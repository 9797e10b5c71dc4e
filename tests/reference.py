"""Test-only oracles and reference functions shared by the tests: an
adversarial eps-perturbed oracle, the sampled surrogate of one set, the
exact partial derivative of the multilinear extension, one-query-per-call
forms of the solver loops that now send batches, and a bit loop that builds
the per-byte weight-sum tables."""
import numpy as np

from noisysubmax.oracles import ValueOracle
from noisysubmax.sets import ElementSet
from noisysubmax.setfn import _check_point, multilinear_exact
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


def multilinear_partial_exact(fn_or_spec, x: np.ndarray, i: int) -> float:
    """Exact i-th partial derivative of the multilinear extension."""
    n = fn_or_spec.n if hasattr(fn_or_spec, "n") else len(x)
    x = _check_point(x, n)
    hi = x.copy()
    hi[i] = 1.0
    lo = x.copy()
    lo[i] = 0.0
    return multilinear_exact(fn_or_spec, hi) - multilinear_exact(fn_or_spec, lo)


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
