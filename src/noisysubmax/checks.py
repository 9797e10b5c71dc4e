"""Lemma and property suites: finite, testable inequalities behind the
smoothing/meta guarantees, run both by the test suite and the CLI `check`
subcommand."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .matroids import UniformMatroid, arbitrary_basis, contract
from .noise import (BoundedUniform, Gaussian, NoiseSpec, PersistentNoisyOracle,
                    sample_multiplier)
from .random_instances import (random_coverage, random_cut, random_submodular,
                               random_waq)
from .sets import ElementSet, GroundSet, all_k_subset_masks, mask_members
from .setfn import CHECK_TOL, table_is_submodular, value_table


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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
    masks = np.arange(1 << n, dtype=np.uint64)
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
                pairs = [(s, a) for s in range(1 << n) for a in range(1 << n)]
            else:
                pairs = [(int(rng.integers(1 << n)), int(rng.integers(1, 1 << n)))
                         for _ in range(sample_pairs)]
            ok &= lemma_remove_one_element(table, pairs)
            for k in (1, 2, 3):
                ok &= lemma_remove_subset(table, pairs, k)
                ok &= lemma_add_subset(table, pairs, k)
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
    sizes = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
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


def check_surrogate_submodularity(seed: int = 0, configs: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(configs):
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
    draws = np.array([[sample_multiplier(bu, stream) for _ in range(m)]
                      for _ in range(trials)])
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
