"""A fresh import of the package frees the one before it.

The benchmark imports the package afresh before it measures, and a module
level `typing.Union[...]` would keep every earlier copy alive: typing's
subscription cache holds the classes it names, and each class holds its
module.  A PEP 604 union (`A | B`) is built anew and cached nowhere.  The
one-set folds that `setfn._byte_fold` caches for the process hold no class
of the package, so the first import queries each family before it goes."""
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

def query_each_family():
    # builds the families' one-set folds, which `setfn._byte_fold` keeps
    import numpy as np
    from noisysubmax.random_instances import random_coverage, random_cut, random_waq
    rng = np.random.default_rng(0)
    for make in (random_waq, random_coverage, random_cut):
        make(20, rng).value_mask(0b1011)

refs = class_refs()
query_each_family()
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
