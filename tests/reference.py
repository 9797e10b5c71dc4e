"""Test-only oracles and reference functions shared by the tests: an
adversarial eps-perturbed oracle, the sampled surrogate of one set, the
exact surrogate of a smoothing set too large to tabulate, the exact partial
derivative of the multilinear extension, one-query-per-call
forms of the solver loops that now send batches, a bit loop that builds
the per-byte weight-sum tables, the coverage and cut generators with one
scalar draw per decision, the noise multipliers drawn one at a time, the
noise stream's multiplier of one set mixed chunk by chunk, the cut's
crossing edges found edge by edge, the set-bit walk and the matroid scans
as per-bit and per-element loops, the dense surrogate draw through a
k-subset unranking, the appendix lemmas checked one (S, A) pair at a
time, the oracles forced down one query path, and the memory a batch takes
beyond its output."""
import math
import tracemalloc
from collections import Counter
from math import comb

import numpy as np

from noisysubmax.oracles import ExactOracle, ValueOracle
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.sets import CHUNK_BYTES, ElementSet, all_k_subset_masks, mask_members, mask_rows
from noisysubmax.noise import BoundedUniform, Gaussian, NoiseSpec, PersistentNoisyOracle
from noisysubmax.setfn import (CHECK_TOL, Coverage, CutFunction, Modular, _check_point,
                               multilinear_exact)
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


FORCED_PATH_ORACLES = (ExactOracle, PersistentNoisyOracle, SampledSurrogateOracle)


def force_path(monkeypatch, mode: str) -> Counter:
    """Send every query of the exact, noisy and surrogate oracles down one
    path.  "batch": each one-set `value_mask` answers through a 1-row
    `value_masks`.  "loop": each batch goes through `ValueOracle._value_rows`,
    one `value_mask` per row.  The returned counter counts the patched calls
    by oracle class name."""
    calls = Counter()

    def one_row_batch(self, mask):
        calls[type(self).__name__] += 1
        return float(self.value_masks(mask_rows([mask], self.ground.n))[0])

    def per_row_loop(self, rows):
        calls[type(self).__name__] += 1
        return ValueOracle._value_rows(self, rows)

    name, patch = {"batch": ("value_mask", one_row_batch),
                   "loop": ("_value_rows", per_row_loop)}[mode]
    for cls in FORCED_PATH_ORACLES:
        monkeypatch.setattr(cls, name, patch)
    return calls


def memory_families(n: int, rng: np.random.Generator) -> tuple:
    """One function of each family the batch memory tests bound, over n
    elements: a complete-graph cut, a 200-item coverage, a WAQ and a
    `Modular`."""
    return (random_cut(n, rng, 1.0), random_coverage(n, rng, items=200), random_waq(n, rng),
            Modular(tuple(rng.uniform(-3.0, 3.0, size=n).tolist())))


# The memory bound of a batch beyond its output: one chunk.  A chunk's
# `row_bytes` count its largest arrays, and with the rest (packed rows,
# counts, a surrogate's inner chunk) it keeps under 4 * CHUNK_BYTES.
CHUNK_PEAK = 4 * CHUNK_BYTES


def peak_beyond_output(batch, rows: np.ndarray) -> int:
    """The tracemalloc peak of `batch(rows)` less its float64 output: what
    the batch keeps besides its values.  A 1-row batch first builds the
    lookup tables outside the trace."""
    batch(rows[:1])
    tracemalloc.start()
    try:
        batch(rows)
        return tracemalloc.get_traced_memory()[1] - 8 * len(rows)
    finally:
        tracemalloc.stop()


def comparison_by_single_queries(oracle: ValueOracle, s: ElementSet) -> float:
    """`comparison_surrogate_f0` with one `value_mask` call per element."""
    total = 0.0
    for e in s:
        total += oracle.value_mask(s.mask & ~(1 << e))
    return total / len(s)


def byte_sum_tables_by_bit_loop(weights) -> tuple[tuple[float, ...], ...]:
    """`setfn._ByteTables(weights).tables` as a triple loop: table[b][chunk] adds the
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


def cut_crossing_by_edge_loop(spec: CutFunction, mask: int) -> int:
    """The cut's crossing edges as a loop over the edges: bit e is set when
    edge e has exactly one endpoint in the set (a self-loop never has)."""
    crossing = 0
    for e, (u, v, _) in enumerate(spec.edges):
        if ((mask >> u) & 1) != ((mask >> v) & 1):
            crossing |= 1 << e
    return crossing


def multipliers_by_scalar_draws(spec: NoiseSpec, stream: np.random.Generator,
                                size: int) -> np.ndarray:
    """`noise.sample_multipliers` with one `stream.random(2)` per draw."""
    out = []
    for _ in range(size):
        u1, u2 = stream.random(2)
        out.append(spec.multiplier(1.0 - u1, u2))
    return np.array(out, dtype=np.float64)


# The noise stream, written out apart from noise.py: the mixer's constants,
# 128-bit chunks cut from the mask's bytes, the mixer's rounds as a loop,
# each distribution's transform with its constants computed inline.
STREAM_MULTIPLIERS = (0x2360ED051FC65DA44385DF649FCCF645, 0x5851F42D4C957F2D14057B7EF767814F)
STREAM_KEY_BASE = 0x9E3779B97F4A7C15F39CC0605CEDC835


def stream_mix(h: int) -> int:
    for mul in STREAM_MULTIPLIERS:
        h ^= h >> 64
        h = h * mul % 2 ** 128
    return h ^ h >> 64


def stream_uniforms(master_seed: int, mask: int) -> tuple[float, float]:
    """(u_open, u_half) of one set: the key mixed from the seed, XORed into
    the lowest chunk; each further chunk, up to the highest nonzero one,
    XORed into the mix of the state before it; a last mix."""
    size = 16 * max(1, -(-mask.bit_length() // 128))
    raw = mask.to_bytes(size, "little")
    chunks = [int.from_bytes(raw[i: i + 16], "little") for i in range(0, size, 16)]
    state = stream_mix(STREAM_KEY_BASE ^ master_seed) ^ chunks[0]
    for chunk in chunks[1:]:
        state = stream_mix(state) ^ chunk
    bits = stream_mix(state)
    return (bits % 2 ** 53 + 1) / 2 ** 53, (bits >> 75) / 2 ** 53


def draw_inline(dist, u_open: float, u_half: float) -> float:
    if isinstance(dist, Gaussian):
        z = math.sqrt(-2.0 * math.log(u_open)) * math.cos(2.0 * math.pi * u_half)
        return 1.0 + math.sqrt(dist.sigma2) * z
    if isinstance(dist, BoundedUniform):
        return 1.0 - dist.halfwidth + 2.0 * dist.halfwidth * u_half
    return 1.0 - 1.0 / dist.rate - math.log(u_open) / dist.rate


def multiplier_by_chunk_loop(noise: NoiseSpec, master_seed: int, mask: int) -> float:
    """`PersistentNoisyOracle.multiplier_mask` from `stream_uniforms`."""
    xi = draw_inline(noise.distribution, *stream_uniforms(master_seed, mask))
    return 0.0 if noise.clamp_negative and xi < 0.0 else xi


def mask_members_by_low_bit(mask: int) -> list[int]:
    """`sets.mask_members` as a loop that strips the lowest set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def addable_mask_by_probes(m, mask: int) -> int:
    """`Matroid.addable_mask` with one `indep_mask` probe per element."""
    return sum(1 << i for i in range(m.ground.n)
               if not mask >> i & 1 and m.indep_mask(mask | 1 << i))


def arbitrary_basis_by_probes(m) -> int:
    """The mask of `matroids.arbitrary_basis` with one `indep_mask` probe
    per element, in ascending id order."""
    mask = 0
    for i in range(m.ground.n):
        if m.indep_mask(mask | 1 << i):
            mask |= 1 << i
    return mask


def max_weight_by_probes(m, weights) -> int:
    """The mask of `matroids.max_weight_independent_set` with one
    `indep_mask` probe per positive element, by descending weight."""
    mask = 0
    for i in sorted(range(m.ground.n), key=lambda i: (-weights[i], i)):
        if weights[i] <= 0:
            break
        if m.indep_mask(mask | 1 << i):
            mask |= 1 << i
    return mask


def random_subset_by_probes(m, size: int, rng: np.random.Generator) -> int:
    """The mask of `solvers.RandomSubset(size).solve` with one `indep_mask`
    probe per free element, in the order of one `rng.permutation`, until
    `size` are kept."""
    mask = kept = 0
    for i in rng.permutation(m.free_elements()):
        if kept == size:
            break
        if m.indep_mask(mask | 1 << int(i)):
            mask, kept = mask | 1 << int(i), kept + 1
    return mask


def unrank_k_subset_mask(rank: int, members: list[int], k: int) -> int:
    """Mask of the rank-th k-subset of `members` in lexicographic order,
    counted slot by slot through binomial coefficients."""
    n = len(members)
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    mask = 0
    pos = 0
    for slot in range(k):
        while True:
            below = comb(n - pos - 1, k - slot - 1)
            if rank < below:
                break
            rank -= below
            pos += 1
        mask |= 1 << members[pos]
        pos += 1
    return mask


def dense_draw_by_unrank(H: ElementSet, t: int, m: int, rng: np.random.Generator) -> list[int]:
    """The masks of `surrogate.sample_t_subsets_without_replacement` in its
    dense regime: a uniform m-subset of ranks, each unranked on its own."""
    members = list(H)
    ranks = rng.choice(comb(len(members), t), size=m, replace=False)
    return [unrank_k_subset_mask(int(r), members, t) for r in ranks]


def _submask_iter(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lemma_remove_one_element(table: np.ndarray, pairs) -> bool:
    """Mean over x in A of f(S) - f(S-x) is at most f(S)/|A|."""
    for s_mask, a_mask in pairs:
        size = a_mask.bit_count()
        if size == 0:
            continue
        total = 0.0
        for x in mask_members(a_mask):
            total += table[s_mask] - table[s_mask & ~(1 << x)]
        if total / size > table[s_mask] / size + CHECK_TOL:
            return False
    return True


def lemma_remove_subset(table: np.ndarray, pairs, k: int) -> bool:
    """Exhaustive mean over B in A[k] of f(S \\ B) is at least
    f(S) - k/(|A|-k) * max f(S') over S' in S∩A with |S'| >= |S∩A| - k."""
    for s_mask, a_mask in pairs:
        a = a_mask.bit_count()
        if a <= k:
            continue
        total = 0.0
        for b_mask in all_k_subset_masks(mask_members(a_mask), k):
            total += table[s_mask & ~b_mask]
        mean = total / comb(a, k)
        inter = s_mask & a_mask
        floor = inter.bit_count() - k
        best = max(table[sub] for sub in _submask_iter(inter)
                   if sub.bit_count() >= floor)
        if mean < table[s_mask] - (k / (a - k)) * best - CHECK_TOL:
            return False
    return True


def lemma_add_subset(table: np.ndarray, pairs, k: int) -> bool:
    """Exhaustive mean over B in A[k] of f(S ∪ B) is at least
    f(S) - k/(|A|-k) * max f(S') over S ⊆ S' ⊆ S∪A."""
    for s_mask, a_mask in pairs:
        a = a_mask.bit_count()
        if a <= k:
            continue
        total = 0.0
        for b_mask in all_k_subset_masks(mask_members(a_mask), k):
            total += table[s_mask | b_mask]
        mean = total / comb(a, k)
        extra = a_mask & ~s_mask
        best = max(table[s_mask | sub] for sub in _submask_iter(extra))
        if mean < table[s_mask] - (k / (a - k)) * best - CHECK_TOL:
            return False
    return True
