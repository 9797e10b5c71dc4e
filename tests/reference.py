"""Test-only oracles and reference functions shared by the tests: an
adversarial eps-perturbed oracle, the sampled surrogate of one set, the
exact surrogate of a smoothing set too large to tabulate, the exact partial
derivative of the multilinear extension, one-query-per-call
forms of the solver loops that now send batches, a bit loop that builds
the per-byte weight-sum tables, and the coverage and cut generators with one
scalar draw per decision."""
from math import comb

import numpy as np

from noisysubmax.oracles import ExactOracle, ValueOracle
from noisysubmax.sets import ElementSet, all_k_subset_masks
from noisysubmax.setfn import Coverage, CutFunction, _check_point, multilinear_exact
from noisysubmax.surrogate import SampledSurrogateOracle, SurrogateConfig


class PerturbedOracle(ValueOracle):
    """Deterministic eps-approximate oracle: adds +eps on sets of even size
    and -eps on sets of odd size (so repeated queries agree)."""

    def __init__(self, inner: ValueOracle, eps: float):
        self.inner = inner
        self.ground = inner.ground
        self.eps = eps

    def value_mask(self, mask: int) -> float:
        sign = 1.0 if mask.bit_count() % 2 == 0 else -1.0
        return self.inner.value_mask(mask) + self.eps * sign


def surrogate_sampled(o: ValueOracle, cfg: SurrogateConfig, s: ElementSet) -> float:
    return SampledSurrogateOracle(o, cfg).value(s)


def exact_surrogate(spec, H: ElementSet, t: int) -> SampledSurrogateOracle:
    """The exact surrogate F of f: the sampled surrogate over an exact
    oracle with every t-subset of H frozen, in `all_k_subset_masks` order."""
    samples = tuple(ElementSet(H.ground, mask) for mask in all_k_subset_masks(list(H), t))
    return SampledSurrogateOracle(ExactOracle(spec),
                                  SurrogateConfig(H, t, comb(len(H), t), samples))


def multilinear_partial_exact(spec, x: np.ndarray, i: int) -> float:
    """Exact i-th partial derivative of the multilinear extension."""
    x = _check_point(x, spec.n)
    hi = x.copy()
    hi[i] = 1.0
    lo = x.copy()
    lo[i] = 0.0
    return multilinear_exact(spec, hi) - multilinear_exact(spec, lo)


class RecordingOracle(ValueOracle):
    """Passes queries to an inner oracle and records every queried mask in
    order; a batch goes through ValueOracle's one-call-per-row loop, so its
    rows are recorded one by one."""

    def __init__(self, inner: ValueOracle):
        self.inner = inner
        self.ground = inner.ground
        self.queries: list[int] = []

    def value_mask(self, mask: int) -> float:
        self.queries.append(mask)
        return self.inner.value_mask(mask)


def greedy_by_single_queries(oracle: ValueOracle, m) -> ElementSet:
    """`greedy_cardinality` with one `value_mask` call per candidate."""
    mask = 0
    current = oracle.value_mask(0)
    for _ in range(m.rank()):
        best_gain, best_elem, best_val = 0.0, None, None
        for i in m.free_elements():
            bit = 1 << i
            if mask & bit or not m.indep_mask(mask | bit):
                continue
            val = oracle.value_mask(mask | bit)
            gain = val - current
            if gain > best_gain:
                best_gain, best_elem, best_val = gain, i, val
        if best_elem is None:
            break
        mask |= 1 << best_elem
        current = best_val
    return ElementSet(oracle.ground, mask)


def comparison_by_single_queries(oracle: ValueOracle, s: ElementSet) -> float:
    """`comparison_surrogate_f0` with one `value_mask` call per element."""
    total = 0.0
    for e in s:
        total += oracle.value_mask(s.mask & ~(1 << e))
    return total / len(s)


def byte_sum_tables_by_bit_loop(weights) -> tuple[tuple[float, ...], ...]:
    """`setfn._byte_sum_tables` as a triple loop: table[b][chunk] adds the
    weights of the set bits of chunk from the low bit, starting at 0.0."""
    tables = []
    for byte in range((len(weights) + 7) // 8):
        w = weights[8 * byte: 8 * byte + 8]
        tab = [0.0] * 256
        for chunk in range(256):
            s = 0.0
            for bit in range(len(w)):
                if (chunk >> bit) & 1:
                    s += w[bit]
            tab[chunk] = s
        tables.append(tuple(tab))
    return tuple(tables)


def random_coverage_by_scalar_draws(n: int, rng: np.random.Generator,
                                    items: int | None = None) -> Coverage:
    """`random_coverage` with one `rng.random()` per element and item."""
    items = 2 * n if items is None else items
    covers = []
    for _ in range(n):
        mask = 0
        for j in range(items):
            if rng.random() < 0.25:
                mask |= 1 << j
        covers.append(mask)
    weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, size=items))
    return Coverage(covers=tuple(covers), item_weights=weights)


def random_cut_by_scalar_draws(n: int, rng: np.random.Generator, p: float = 0.5) -> CutFunction:
    """`random_cut` with one `rng.random()` per pair and one
    `rng.uniform(0.2, 2.0)` per edge weight."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    return CutFunction(n_vertices=n, edges=tuple(edges))
