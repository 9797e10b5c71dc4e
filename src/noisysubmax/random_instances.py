"""Random instance generators for tests, lemma suites and the benchmark.

`random_waq` is the one WAQ draw, the benchmark's instance.  `random_coverage`
and `random_cut` draw their doubles in blocks, in the order of a loop that
draws one scalar per decision (`rng.random()` per item or pair,
`rng.uniform(0.2, 2.0)` per edge weight), and never more doubles than that
loop would.  Each instance is bit for bit the loop's, and the generator ends
in the same state.
"""
from __future__ import annotations

import numpy as np

from .sets import GroundSet, pack_rows, row_masks
from .setfn import Coverage, CutFunction, SetFunctionSpec, WeightedAdditiveQuadratic

RESAMPLE_LIMIT = 10_000
WAQ_WEIGHT_HIGH = 20.0  # random WAQ weights are drawn from Uniform[0, WAQ_WEIGHT_HIGH]


def waq_cost(n: int) -> float:
    """The quadratic cost of a random WAQ over n elements: the full ground
    set has expected value 0 under weights drawn from [0, WAQ_WEIGHT_HIGH]."""
    return (WAQ_WEIGHT_HIGH / 2.0) / n


def nonnegative_certified(weights: np.ndarray, cost: float) -> bool:
    """True iff sum_{i in S} w_i - cost|S|^2 >= 0 for every subset,
    via the closed-form check on ascending prefix sums."""
    asc = np.sort(weights)
    prefix = np.cumsum(asc)
    k = np.arange(1, len(weights) + 1)
    return bool(np.min(prefix - cost * k * k) >= 0.0)


def random_waq(n: int, rng: np.random.Generator) -> WeightedAdditiveQuadratic:
    """The WAQ of the first certified draw of n weights, in draw order;
    RuntimeError after RESAMPLE_LIMIT draws."""
    cost = waq_cost(GroundSet(n).n)
    for _ in range(RESAMPLE_LIMIT):
        weights = rng.uniform(0.0, WAQ_WEIGHT_HIGH, size=n)
        if nonnegative_certified(weights, cost):
            return WeightedAdditiveQuadratic(weights=tuple(weights.tolist()), cost=cost)
    raise RuntimeError(f"non-negativity resampling exceeded {RESAMPLE_LIMIT} attempts")


def random_coverage(n: int, rng: np.random.Generator, items: int | None = None) -> Coverage:
    """Each element covers a random subset of items; monotone submodular."""
    GroundSet(n)
    if items is None:
        items = 2 * n
    if items < 0:
        raise ValueError(f"items must be >= 0, got {items}")
    # one block of `items` doubles per element; item j is covered if its
    # double is below 0.25
    covers = row_masks(pack_rows(rng.random((n, items)) < 0.25))
    weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, size=items))
    return Coverage(covers=tuple(covers), item_weights=weights)


def random_cut(n: int, rng: np.random.Generator, p: float = 0.5) -> CutFunction:
    """Random weighted graph cut; non-monotone submodular.  Each pair (u, v),
    u < v in loop order, is an edge if its double is below p; an edge's
    weight is the next double d as 0.2 + (2.0 - 0.2) * d, numpy's uniform."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    edges = []
    block, j = [], 0
    for u in range(n):
        for v in range(u + 1, n):
            # an empty block is refilled with one double per pair (u, v..n-1)
            # still to come, or with the pending weight and the pairs after
            # v: n - v doubles either way, which the loop draws for certain
            if j == len(block):
                block, j = rng.random(n - v).tolist(), 0
            j += 1
            if block[j - 1] < p:
                if j == len(block):
                    block, j = rng.random(n - v).tolist(), 0
                edges.append((u, v, 0.2 + (2.0 - 0.2) * block[j]))
                j += 1
    return CutFunction(n_vertices=n, edges=tuple(edges))


def random_submodular(n: int, rng: np.random.Generator) -> SetFunctionSpec:
    """One random instance from the non-negative submodular families."""
    kind = rng.integers(3)
    if kind == 0:
        return random_waq(n, rng)
    if kind == 1:
        return random_coverage(n, rng)
    return random_cut(n, rng)
