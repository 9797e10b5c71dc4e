"""Structured text format for problem instances.

Key-value sections with typed arrays, e.g.::

    [function]
    variant = weighted_additive_quadratic
    weights = 12.5 3.25
    cost = 0.2

    [matroid]
    variant = uniform
    n = 2
    rank = 1

    [noise]
    distribution = gaussian
    sigma2 = 0.1
    clamp_negative = false

    [seed]
    master_seed = 7

Integer fields round-trip bit-exactly; reals are written with repr, which
preserves the shortest 17-significant-digit form and round-trips exactly.

A function, matroid or noise variant is one row of `_FUNCTIONS`, `_MATROIDS`
or `_DISTRIBUTIONS`; only contractions and `clamp_negative` are written by
hand.  Loading raises `ValueError` for a missing key, a key no field reads, a
repeated key or section, an unknown section or variant, and a boolean other
than true/false (in any case).  A cut's `edges` and `clamp_negative` may be
left out.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .matroids import (ContractedMatroid, Matroid, PartitionMatroid,
                       UniformMatroid)
from .noise import BoundedUniform, Gaussian, NoiseSpec, ShiftedExponential
from .sets import ElementSet, GroundSet, mask_members
from .setfn import (Coverage, CutFunction, Modular, SetFunctionSpec,
                    WeightedAdditiveQuadratic)


@dataclass
class Instance:
    function: SetFunctionSpec | None = None
    matroid: Matroid | None = None
    noise: NoiseSpec | None = None
    master_seed: int | None = None


def _fmt_ints(xs) -> str:
    return " ".join(str(int(x)) for x in xs)


def _ids_to_mask(text: str) -> int:
    mask = 0
    for tok in text.split():
        mask |= 1 << int(tok)
    return mask


def _load_edge(tok: str) -> tuple[int, int, float]:
    uv, _, w = tok.partition(":")
    u, _, v = uv.partition("-")
    return int(u), int(v), float(w)


def _load_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# A codec is a (dump, load) pair: value -> text and text -> value.
_REAL = (lambda x: repr(float(x)), float)
_REALS = (lambda xs: " ".join(repr(float(x)) for x in xs),
          lambda text: tuple(float(x) for x in text.split()))
_INT = (lambda x: str(int(x)), int)
_INTS = (_fmt_ints, lambda text: tuple(int(x) for x in text.split()))
# bitmasks written as member lists separated by "|"
_MASKS = (lambda masks: " | ".join(_fmt_ints(mask_members(m)) for m in masks),
          lambda text: tuple(_ids_to_mask(part) for part in text.split("|")))
_EDGES = (lambda edges: " ".join(f"{u}-{v}:{float(w)!r}" for u, v, w in edges),
          lambda text: tuple(_load_edge(tok) for tok in text.split()))
_GROUND = (lambda ground: str(ground.n), lambda text: GroundSet(int(text)))
# the text read for these keys when a file leaves them out; all others are required
_DEFAULTS = {"edges": "", "clamp_negative": "false"}

# variant name -> (class, fields).  A field is a (file key, attribute, codec)
# triple, in file order; loading calls the class with one keyword per field.
_FUNCTIONS = {
    "weighted_additive_quadratic": (WeightedAdditiveQuadratic, (
        ("weights", "weights", _REALS), ("cost", "cost", _REAL))),
    "modular": (Modular, (("weights", "weights", _REALS),)),
    "coverage": (Coverage, (
        ("covers", "covers", _MASKS), ("item_weights", "item_weights", _REALS))),
    "cut": (CutFunction, (("n", "n_vertices", _INT), ("edges", "edges", _EDGES))),
}
_MATROIDS = {
    "uniform": (UniformMatroid, (("n", "ground", _GROUND), ("rank", "r", _INT))),
    "partition": (PartitionMatroid, (
        ("n", "ground", _GROUND), ("parts", "parts", _MASKS), ("caps", "caps", _INTS))),
}
_DISTRIBUTIONS = {
    "gaussian": (Gaussian, (("sigma2", "sigma2", _REAL),)),
    "bounded_uniform": (BoundedUniform, (("halfwidth", "halfwidth", _REAL),)),
    "shifted_exponential": (ShiftedExponential, (("rate", "rate", _REAL),)),
}


def _dump(table, obj, prefix: str = "", key: str = "variant") -> list[str]:
    for name, (cls, fields) in table.items():
        if cls is type(obj):
            return [f"{prefix}{key} = {name}"] + [
                f"{prefix}{k} = {dump(getattr(obj, attr))}" for k, attr, (dump, _) in fields]
    raise TypeError(f"no instance-file variant for {type(obj)!r}")


def _take(kv: dict[str, str], key: str, load: Callable[[str], Any] = str):
    """Remove `key` from a section's dict and decode its text."""
    text = kv.pop(key, _DEFAULTS.get(key))
    if text is None:
        raise ValueError(f"missing key {key!r}")
    return load(text)


def _load(table, kv: dict[str, str], prefix: str = "", key: str = "variant"):
    name = _take(kv, prefix + key)
    if name not in table:
        raise ValueError(f"unknown {key}: {name!r}")
    cls, fields = table[name]
    return cls(**{attr: _take(kv, prefix + k, load) for k, attr, (_, load) in fields})


def _dump_matroid(m: Matroid, prefix: str = "") -> list[str]:
    if type(m) is not ContractedMatroid:
        return _dump(_MATROIDS, m, prefix)
    return [f"{prefix}variant = contracted",
            f"{prefix}pinned = {_fmt_ints(m.pinned.members())}",
            *_dump_matroid(m.base, prefix + "base_")]


def _load_matroid(kv: dict[str, str], prefix: str = "") -> Matroid:
    if kv.get(prefix + "variant") != "contracted":
        return _load(_MATROIDS, kv, prefix)
    del kv[prefix + "variant"]
    pinned = _take(kv, prefix + "pinned")
    base = _load_matroid(kv, prefix + "base_")
    return ContractedMatroid(base, ElementSet(base.ground, _ids_to_mask(pinned)))


def _dump_noise(spec: NoiseSpec) -> list[str]:
    return _dump(_DISTRIBUTIONS, spec.distribution, key="distribution") + [
        f"clamp_negative = {'true' if spec.clamp_negative else 'false'}"]


def _load_noise(kv: dict[str, str]) -> NoiseSpec:
    return NoiseSpec(_load(_DISTRIBUTIONS, kv, key="distribution"),
                     _take(kv, "clamp_negative", _load_bool))


# section -> (Instance attribute, dump to lines, load from the section's dict)
_SECTIONS = {
    "function": ("function", lambda f: _dump(_FUNCTIONS, f),
                 lambda kv: _load(_FUNCTIONS, kv)),
    "matroid": ("matroid", _dump_matroid, _load_matroid),
    "noise": ("noise", _dump_noise, _load_noise),
    "seed": ("master_seed", lambda seed: [f"master_seed = {int(seed)}"],
             lambda kv: _take(kv, "master_seed", int)),
}


def dumps_instance(inst: Instance) -> str:
    blocks = [f"[{section}]\n" + "\n".join(dump(getattr(inst, attr)))
              for section, (attr, dump, _) in _SECTIONS.items()
              if getattr(inst, attr) is not None]
    return "\n\n".join(blocks) + "\n"


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS or current in sections:
                raise ValueError(f"unknown or repeated section: {raw!r}")
            sections[current] = {}
            continue
        if current is None or "=" not in line:
            raise ValueError(f"malformed instance line: {raw!r}")
        key, _, value = line.partition("=")
        if key.strip() in sections[current]:
            raise ValueError(f"repeated key in [{current}]: {raw!r}")
        sections[current][key.strip()] = value.strip()
    return sections


def loads_instance(text: str) -> Instance:
    inst = Instance()
    for section, kv in _parse_sections(text).items():
        attr, _, load = _SECTIONS[section]
        setattr(inst, attr, load(kv))
        if kv:
            raise ValueError(f"unknown keys in [{section}]: {', '.join(kv)}")
    return inst


def load_instance(path) -> Instance:
    with open(path) as fh:
        return loads_instance(fh.read())


def save_instance(path, inst: Instance):
    with open(path, "w") as fh:
        fh.write(dumps_instance(inst))
