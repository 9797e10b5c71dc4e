"""Random instance generators for tests and lemma suites."""
from __future__ import annotations

import numpy as np

from .harness import nonnegative_certified
from .setfn import (Coverage, CutFunction, SetFunctionSpec,
                    WeightedAdditiveQuadratic)


def random_waq(n: int, rng: np.random.Generator) -> WeightedAdditiveQuadratic:
    """Weighted additive with quadratic cost; resamples until non-negative."""
    high = 20.0
    cost = (high / 2.0) / n
    while True:
        w = np.sort(rng.uniform(0.0, high, size=n))
        if nonnegative_certified(w, cost):
            perm = rng.permutation(n)
            return WeightedAdditiveQuadratic(
                weights=tuple(float(x) for x in w[perm]), cost=cost)


def random_coverage(n: int, rng: np.random.Generator, items: int | None = None) -> Coverage:
    """Each element covers a random subset of items; monotone submodular."""
    items = items or 2 * n
    covers = []
    for _ in range(n):
        mask = 0
        for j in range(items):
            if rng.random() < 0.25:
                mask |= 1 << j
        covers.append(mask)
    weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, size=items))
    return Coverage(covers=tuple(covers), item_weights=weights)


def random_cut(n: int, rng: np.random.Generator, p: float = 0.5) -> CutFunction:
    """Random weighted graph cut; non-monotone submodular."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    return CutFunction(n_vertices=n, edges=tuple(edges))


def random_submodular(n: int, rng: np.random.Generator) -> SetFunctionSpec:
    """One random instance from the non-negative submodular families."""
    kind = rng.integers(3)
    if kind == 0:
        return random_waq(n, rng)
    if kind == 1:
        return random_coverage(n, rng)
    return random_cut(n, rng)
