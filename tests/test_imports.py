"""A fresh import of the package frees the one before it.

The benchmark imports the package afresh before it measures, and a module
level `typing.Union[...]` would keep every earlier copy alive: typing's
subscription cache holds the classes it names, and each class holds its
module.  A PEP 604 union (`A | B`) is built anew and cached nowhere."""
import subprocess
import sys

REIMPORT = """
import gc, importlib, inspect, pkgutil, sys, weakref

def load():
    package = importlib.import_module("noisysubmax")
    return [package] + [importlib.import_module(f"noisysubmax.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]

def class_refs():
    return {f"{module.__name__}.{name}": weakref.ref(obj) for module in load()
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__}

refs = class_refs()
for key in [key for key in sys.modules if key.partition(".")[0] == "noisysubmax"]:
    del sys.modules[key]
load()
gc.collect()
print(len(refs))
print(*sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_reimport_frees_every_class_of_the_first_import():
    # run in a fresh interpreter, whose caches hold nothing of the tests
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          check=True, timeout=120)
    count, alive = proc.stdout.split("\n")[:2]
    assert int(count) > 30  # every module of the package was imported
    assert alive == ""
