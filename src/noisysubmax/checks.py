"""Lemma and property suites: finite, testable inequalities behind the
smoothing/meta guarantees, run both by the test suite and the CLI `check`
subcommand."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .matroids import UniformMatroid, arbitrary_basis, contract
from .noise import (BoundedUniform, Gaussian, NoiseSpec, PersistentNoisyOracle,
                    sample_multipliers)
from .random_instances import (random_coverage, random_cut, random_submodular,
                               random_waq)
from .sets import ElementSet, GroundSet, all_k_subset_masks, all_mask_rows, mask_members, pack_rows
from .setfn import CHECK_TOL, table_is_submodular, value_table


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# The appendix lemmas are checked at all (S, A) pairs at once: each helper
# loops over subsets of the ground set, masked to the pairs they belong to,
# so a pair's sum adds its terms in its own loop's order, plus exact 0.0s.
def _pair_arrays(table: np.ndarray, pairs) -> tuple[int, np.ndarray, np.ndarray]:
    """n of a dense table, and the int64 S and A masks of the (S, A) pairs."""
    s, a = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return len(table).bit_length() - 1, s, a


def lemma_remove_one_element(table: np.ndarray, pairs) -> bool:
    """Mean over x in A of f(S) - f(S-x) is at most f(S)/|A|."""
    n, s, a = _pair_arrays(table, pairs)
    total = np.zeros(len(s))
    for x in range(n):
        total += np.where(a & (1 << x) != 0, table[s] - table[s & ~(1 << x)], 0.0)
    size = np.bitwise_count(a)
    per = np.maximum(size, 1)  # A = {} holds; it sums nothing
    return not np.any((size > 0) & (total / per > table[s] / per + CHECK_TOL))


def _k_subset_bound_holds(table: np.ndarray, n: int, s: np.ndarray, a: np.ndarray,
                          k: int, join, best: np.ndarray) -> bool:
    """Whether the mean of f(join(B)) over B in A[k] is at least f(S) - k/(|A|-k)
    * best at every pair with |A| > k; B runs over the ground set's k-subsets
    in rank order, masked to B ⊆ A: the rank order of A's own k-subsets."""
    total = np.zeros(len(s))
    for b in all_k_subset_masks(range(n), k):
        total += np.where(a & b == b, table[join(b)], 0.0)
    size = np.bitwise_count(a).astype(np.int64)
    big = size > k  # |A| <= k holds
    mean = total / np.array([max(comb(i, k), 1) for i in range(n + 1)], dtype=np.float64)[size]
    gap = k / np.where(big, size - k, 1)
    return not np.any(big & (mean < table[s] - gap * best - CHECK_TOL))


def lemma_remove_subset(table: np.ndarray, pairs, ks) -> bool:
    """Whether, for every k in `ks`, the exhaustive mean over B in A[k] of
    f(S \\ B) is at least f(S) - k/(|A|-k) * max f(S') over S' in S∩A with
    |S'| >= |S∩A| - k."""
    n, s, a = _pair_arrays(table, pairs)
    inter = s & a
    # S' = S∩A \ C over the subsets C of S∩A with |C| <= k; the maximum for
    # k extends the one for k - 1 by the subsets of size k
    best = np.full(len(s), -np.inf)
    done = 0  # the sizes of C below `done` are in `best`
    for k in sorted(ks):
        for size in range(done, k + 1):
            for c in all_k_subset_masks(range(n), size):
                best = np.where(inter & c == c, np.maximum(best, table[inter & ~c]), best)
        done = k + 1
        if not _k_subset_bound_holds(table, n, s, a, k, lambda b: s & ~b, best):
            return False
    return True


def lemma_add_subset(table: np.ndarray, pairs, ks) -> bool:
    """Whether, for every k in `ks`, the exhaustive mean over B in A[k] of
    f(S ∪ B) is at least f(S) - k/(|A|-k) * max f(S') over S ⊆ S' ⊆ S∪A."""
    n, s, a = _pair_arrays(table, pairs)
    extra = a & ~s
    # S' = S ∪ C over the subsets C of A \ S, the same for every k
    best = np.full(len(s), -np.inf)
    for c in range(1 << n):
        best = np.where(extra & c == c, np.maximum(best, table[s | c]), best)
    return all(_k_subset_bound_holds(table, n, s, a, k, lambda b: s | b, best) for k in ks)


def surrogate_table(table: np.ndarray, n: int, h_members: list[int], t: int) -> np.ndarray:
    """Dense table of the surrogate: mean of f(S ∪ H') over all t-subsets."""
    masks = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(1 << n)
    for hmask in all_k_subset_masks(h_members, t):
        acc += table[masks | hmask]
    return acc / comb(len(h_members), t)


def smoothing_lemma_gap(spec, r: int, h: int, t: int) -> tuple[float, float, float]:
    """Exhaustive expectation over H in B0[h] of the surrogate optimum over
    the contracted constraint, against the optimum of f over the rank-r
    uniform matroid.

    Returns (expectation, optimum value, t/(h-t) term) so callers can apply
    either the general or the monotone bound.
    """
    n = spec.n
    ground = GroundSet(n)
    matroid = UniformMatroid(ground, r)
    table = value_table(spec)
    masks = np.arange(1 << n, dtype=np.int64)
    opt = float(np.max(table[matroid.indep_masks(masks)]))
    basis = arbitrary_basis(matroid)
    total = 0.0
    for h_mask in all_k_subset_masks(list(basis), h):
        surr = surrogate_table(table, n, mask_members(h_mask), t)
        feasible = contract(matroid, ElementSet(ground, h_mask)).indep_masks(masks)
        total += np.max(surr[feasible])
    return total / comb(len(basis), h), opt, t / (h - t)


def check_smoothing_lemma(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for _ in range(6):
        n = int(rng.integers(8, 13))
        r = int(rng.integers(5, min(n, 8) + 1))
        h = int(rng.integers(1, 3))
        t = int(rng.integers(0, h))
        monotone = rng.random() < 0.5
        spec = random_coverage(n, rng, items=n) if monotone else random_cut(n, rng)
        expectation, opt, t_term = smoothing_lemma_gap(spec, r, h, t)
        bound = (1.0 - h / (r - h) - t_term) * opt
        if monotone:
            bound = max(bound, (1.0 - h / (r - h)) * opt)
        if expectation < bound - CHECK_TOL:
            ok = False
            details.append(f"n={n} r={r} h={h} t={t} exp={expectation:.6f} bound={bound:.6f}")
    return CheckResult("smoothing-lemma", ok, "; ".join(details))


def check_appendix_removal_lemmas(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    # exhaustive (S, A) pairs at small n, sampled pairs at n=10
    for n, sample_pairs in ((7, None), (10, 400)):
        for _ in range(3):
            spec = random_submodular(n, rng)
            table = value_table(spec)
            if sample_pairs is None:
                pairs = np.column_stack(np.divmod(np.arange(1 << 2 * n), 1 << n))
            else:
                pairs = [(int(rng.integers(1 << n)), int(rng.integers(1, 1 << n)))
                         for _ in range(sample_pairs)]
            ok &= lemma_remove_one_element(table, pairs)
            ok &= lemma_remove_subset(table, pairs, (1, 2, 3))
            ok &= lemma_add_subset(table, pairs, (1, 2, 3))
    return CheckResult("appendix-removal-lemmas", bool(ok))


def surrogate_shift_bounds(spec, h: int, t: int, s_masks: list[int]) -> bool:
    """Whether both expectation bounds relating the surrogate to f hold at
    every S in `s_masks` when the smoothing set is a uniform h-subset of the
    whole ground set:
      E_H[F(S \\ H)] >= E_H[F(S)] - h/(n-h) * max_{|S'| <= |S|+h} f(S')
      E_H[F(S)]      >= f(S) - h/(n-h) * max_{S ⊆ S', |S'| <= |S|+h} f(S')
    """
    n = spec.n
    table = value_table(spec)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    probes = np.array(s_masks, dtype=np.int64)
    exp_shifted = np.zeros(len(probes))
    exp_plain = np.zeros(len(probes))
    for h_mask in all_k_subset_masks(list(range(n)), h):
        surr = surrogate_table(table, n, mask_members(h_mask), t)
        exp_shifted += surr[probes & ~h_mask]
        exp_plain += surr[probes]
    exp_shifted /= comb(n, h)
    exp_plain /= comb(n, h)
    gap = h / (n - h)
    for s_mask, shifted, plain in zip(s_masks, exp_shifted, exp_plain):
        cap = s_mask.bit_count() + h
        best_any = float(np.max(table[sizes <= cap]))
        superset = (masks & s_mask) == s_mask
        best_super = float(np.max(table[superset & (sizes <= cap)]))
        if not (shifted >= plain - gap * best_any - CHECK_TOL
                and plain >= table[s_mask] - gap * best_super - CHECK_TOL):
            return False
    return True


def check_surrogate_shift_lemmas(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(4):
        n = int(rng.integers(7, 11))
        spec = random_submodular(n, rng)
        for h in (1, 2, 3):
            for t in range(min(h, 3)):
                s_masks = [int(rng.integers(1 << n)) for _ in range(6)]
                ok &= surrogate_shift_bounds(spec, h, t, s_masks)
    return CheckResult("surrogate-shift-lemmas", bool(ok))


def check_surrogate_submodularity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        n = int(rng.integers(6, 13))
        spec = random_submodular(n, rng)
        h = int(rng.integers(1, min(n, 5)))
        t = int(rng.integers(0, h))
        h_members = [int(i) for i in rng.choice(n, size=h, replace=False)]
        surr = surrogate_table(value_table(spec), n, h_members, t)
        ok &= table_is_submodular(surr)
    return CheckResult("surrogate-submodularity", bool(ok))


def check_noise_properties(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    n = 16
    spec = random_waq(n, rng)
    oracle = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), master_seed=int(rng.integers(2**63)))
    ground = GroundSet(n)
    # persistence: repeated queries are bit-identical
    for _ in range(1000):
        s = ElementSet(ground, int(rng.integers(1 << n)))
        if oracle.value(s) != oracle.value(s):
            ok = False
            details.append("persistence violated")
            break
    # independence proxy: multiplier correlation across distinct set pairs
    pairs = 10_000
    xs = np.empty(pairs)
    ys = np.empty(pairs)
    for i in range(pairs):
        a = int(rng.integers(1 << n))
        b = int(rng.integers(1 << n))
        while b == a:
            b = int(rng.integers(1 << n))
        xs[i] = oracle.multiplier_mask(a)
        ys[i] = oracle.multiplier_mask(b)
    corr = float(np.corrcoef(xs, ys)[0, 1])
    if abs(corr) > 3.0 / np.sqrt(pairs):
        ok = False
        details.append(f"correlation {corr:.4f}")
    # single-bit neighbours S and S ∪ {e}, the sets double greedy compares,
    # `per` pairs for each e of the widest ground set of one 128-bit chunk:
    # the correlation of their multipliers over all pairs within 3 standard
    # errors of 0, and the sum over e of per * r_e^2, chi-square with `wide`
    # degrees of freedom, within 3 standard deviations of its mean
    per, wide = 200, 128
    neighbours = PersistentNoisyOracle(random_waq(wide, rng), NoiseSpec(Gaussian(0.1)),
                                       master_seed=int(rng.integers(2**63)))
    without = rng.random((per * wide, wide)) < 0.5
    element = (np.arange(per * wide), np.repeat(np.arange(wide), per))
    without[element] = False
    with_e = without.copy()
    with_e[element] = True
    xi = np.array([neighbours.noise.multipliers(*neighbours.uniforms(pack_rows(rows)))
                   for rows in (without, with_e)])
    corr = float(np.corrcoef(xi)[0, 1])
    if abs(corr) > 3.0 / np.sqrt(per * wide):
        ok = False
        details.append(f"neighbour correlation {corr:.4f}")
    centred = xi.reshape(2, wide, per) - xi.reshape(2, wide, per).mean(axis=2, keepdims=True)
    r = np.sum(centred[0] * centred[1], axis=1) / np.sqrt(
        np.sum(centred[0] ** 2, axis=1) * np.sum(centred[1] ** 2, axis=1))
    chi2 = float(per * np.sum(r * r))
    if chi2 > wide + 3.0 * np.sqrt(2.0 * wide):
        ok = False
        details.append(f"neighbour chi-square {chi2:.1f}, largest |r| at element "
                       f"{int(np.argmax(np.abs(r)))}")
    # uniformity of both uniforms over the consecutive masks 0..2^n - 1: each
    # mean within 3 standard errors of 1/2, and a chi-square over 64 equal
    # bins within 3 standard deviations of its mean, 63
    uniforms = oracle.uniforms(all_mask_rows(n))
    size, bins = 1 << n, 64
    for name, u in zip(("u_open", "u_half"), uniforms):
        if abs(u.mean() - 0.5) > 3.0 * np.sqrt(1.0 / 12.0 / size):
            ok = False
            details.append(f"{name} mean {u.mean():.5f}")
        counts = np.bincount(np.minimum((u * bins).astype(np.int64), bins - 1), minlength=bins)
        chi2 = float(np.sum((counts - size / bins) ** 2) / (size / bins))
        if chi2 > (bins - 1) + 3.0 * np.sqrt(2.0 * (bins - 1)):
            ok = False
            details.append(f"{name} chi-square {chi2:.1f}")
    # unbiasedness over fresh master seeds
    seeds = 100_000
    mask = int(rng.integers(1, 1 << n))
    noise = NoiseSpec(Gaussian(0.1))
    sigma = np.sqrt(0.1)
    total = 0.0
    for s_ in range(seeds):
        o = PersistentNoisyOracle(spec, noise, master_seed=s_)
        total += o.multiplier_mask(mask)
    if abs(total / seeds - 1.0) > 3.0 * sigma / np.sqrt(seeds):
        ok = False
        details.append(f"mean multiplier {total / seeds:.5f}")
    # bounded-uniform tail never beats the sub-exponential bound by 4x
    bu = NoiseSpec(BoundedUniform(0.5))
    nu, _ = bu.sub_exponential_params
    m, eps, trials = 20, 0.35, 100_000
    stream = np.random.default_rng(seed + 1)
    draws = sample_multipliers(bu, stream, trials * m).reshape(trials, m)
    tail = float(np.mean(np.abs(draws.mean(axis=1) - 1.0) >= eps))
    bound = 2.0 * np.exp(-m * eps * eps / (2.0 * nu * nu))
    if tail > 4.0 * bound:
        ok = False
        details.append(f"tail {tail:.4f} vs bound {bound:.4f}")
    return CheckResult("noise-properties", ok, "; ".join(details))


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [
        check_appendix_removal_lemmas(seed),
        check_surrogate_shift_lemmas(seed),
        check_smoothing_lemma(seed),
        check_surrogate_submodularity(seed),
        check_noise_properties(seed),
    ]
