"""Acceptance gate: the twelve headline guarantees of the package.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  Tolerances are pinned; the benchmark reproductions run the
full 1000-trial experiments and dominate the runtime of this module.
"""
import time
from math import comb, exp

import numpy as np
import pytest

from noisysubmax.checks import (check_appendix_removal_lemmas,
                                check_noise_properties, check_smoothing_lemma,
                                check_surrogate_shift_lemmas,
                                check_surrogate_submodularity)
from noisysubmax.harness import ExperimentSpec, run_experiment
from noisysubmax.matroids import PartitionMatroid, UniformMatroid
from noisysubmax.noise import Gaussian, NoiseSpec, PersistentNoisyOracle
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.setfn import brute_force_opt, evaluate, multilinear_exact
from noisysubmax.solvers import (MeasuredContinuousGreedy, double_greedy,
                                 measured_continuous_greedy, pipage_round)
from noisysubmax.surrogate import ParamBudget, SurrogateConfig, compute_parameters

from reference import PerturbedOracle, exact_surrogate, surrogate_sampled
from table_oracle import TableOracle

BENCH_TOL = 0.03
TARGETS_N50 = {"dg_exact": 0.944, "dg_noisy": 0.601, "random": 0.550,
               "ours_m50": 0.674, "ours_m200": 0.735}
TARGETS_N100 = {"dg_exact": 0.944, "dg_noisy": 0.565, "random": 0.536,
                "ours_m50": 0.657, "ours_m200": 0.731}


def report(name: str, passed: bool, detail: str = ""):
    print(f"{'PASS' if passed else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert passed, f"{name}: {detail}"


def _benchmark(n: int, targets: dict, budget_s: float, label: str):
    start = time.perf_counter()
    result = run_experiment(ExperimentSpec(n=n, trials=1000, master_seed=0))
    elapsed = time.perf_counter() - start
    means = {name: mean for name, mean, _ in result.summary()}
    errs = {name: abs(means[name] - want) for name, want in targets.items()}
    ok = max(errs.values()) <= BENCH_TOL and elapsed < budget_s
    detail = (" ".join(f"{k}={means[k]:.3f}" for k in targets)
              + f" (tol {BENCH_TOL}, {elapsed:.0f}s/{budget_s:.0f}s)")
    report(label, ok, detail)


def test_criterion_01_benchmark_n50():
    _benchmark(50, TARGETS_N50, 600.0, "1 benchmark means n=50 within ±0.03, <10min")


def test_criterion_02_benchmark_n100():
    _benchmark(100, TARGETS_N100, 1800.0, "2 benchmark means n=100 within ±0.03, <30min")


def _dg_instances(seed=0, count=30):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(8, 13))
        out.append((random_submodular(n, rng), n))
    return out


def test_criterion_03_double_greedy_half_optimal():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    worst = ""
    for spec, n in _dg_instances():
        oracle = TableOracle(spec)
        opt = float(np.max(oracle.table))
        g = GroundSet(n)
        vals = np.array([
            oracle.table[double_greedy(oracle, g, rng).mask] for _ in range(2000)
        ])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        if vals.mean() < 0.5 * opt - 3 * se:
            ok = False
            worst = f"mean {vals.mean():.3f} < 0.5*{opt:.3f} - 3*{se:.4f}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report("3 double greedy mean >= OPT/2 - 3SE on 30 instances, <60s",
           ok, worst or f"{elapsed:.0f}s")


def test_criterion_04_double_greedy_robust_to_adversarial_oracle():
    rng = np.random.default_rng(2)
    ok = True
    worst = ""
    for spec, n in _dg_instances(seed=2, count=30):
        oracle = TableOracle(spec)
        opt = float(np.max(oracle.table))
        eps = 0.01 * opt
        # deterministic worst-sign perturbation: opposite signs on adjacent
        # set sizes push every queried marginal by the full 2*eps
        adversarial = PerturbedOracle(oracle, eps)
        g = GroundSet(n)
        vals = np.array([
            oracle.table[double_greedy(adversarial, g, rng).mask]
            for _ in range(2000)
        ])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        bound = 0.5 * opt - 1.5 * n * eps - 3 * se
        if vals.mean() < bound:
            ok = False
            worst = f"mean {vals.mean():.3f} < {bound:.3f}"
    report("4 double greedy with ±1%OPT adversarial oracle >= OPT/2 - 1.5n*eps - 3SE",
           ok, worst)


def test_criterion_05_continuous_greedy_monotone():
    rng = np.random.default_rng(3)
    cfg = MeasuredContinuousGreedy(step=1 / 200, exact_extension=True)
    ok = True
    worst = ""
    kept = None
    for _ in range(20):
        n = int(rng.integers(8, 11))
        spec = random_coverage(n, rng)
        g = GroundSet(n)
        m = UniformMatroid(g, 3)
        oracle = TableOracle(spec)
        x = measured_continuous_greedy(oracle, m, cfg, rng)
        _, opt = brute_force_opt(spec, m)
        fx = multilinear_exact(spec, x)
        if fx < (1 - 1 / np.e - 0.03) * opt:
            ok = False
            worst = f"F(x)={fx:.3f} < {(1 - 1/np.e - 0.03) * opt:.3f}"
        kept = (spec, m, x, fx)
    # rounding keeps the fractional value in expectation
    spec, m, x, fx = kept
    vals = np.array([
        evaluate(spec, pipage_round(m, x, rng)) for _ in range(10_000)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    if vals.mean() < fx - 3 * se:
        ok = False
        worst = f"rounded mean {vals.mean():.3f} < F(x)={fx:.3f} - 3SE"
    report("5 continuous greedy monotone F(x) >= (1-1/e-0.03)OPT; rounding preserves value",
           ok, worst)


def test_criterion_06_continuous_greedy_non_monotone():
    rng = np.random.default_rng(4)
    cfg = MeasuredContinuousGreedy(step=1 / 200, exact_extension=True)
    ok = True
    worst = ""
    for _ in range(20):
        n = int(rng.integers(8, 11))
        spec = random_cut(n, rng)
        g = GroundSet(n)
        split = n // 2
        m = PartitionMatroid(
            g, parts=((1 << split) - 1, g.full_mask ^ ((1 << split) - 1)),
            caps=(2, 2))
        oracle = TableOracle(spec)
        x = measured_continuous_greedy(oracle, m, cfg, rng)
        _, opt = brute_force_opt(spec, m)
        fx = multilinear_exact(spec, x)
        if fx < (1 / np.e - 0.05) * opt:
            ok = False
            worst = f"F(x)={fx:.3f} < {(1/np.e - 0.05) * opt:.3f}"
    report("6 continuous greedy non-monotone F(x) >= (1/e-0.05)OPT on partition matroids",
           ok, worst)


def test_criterion_07_surrogate_submodular():
    r = check_surrogate_submodularity(seed=5)
    report("7 smoothed surrogate is submodular on 50 random configurations",
           r.passed, r.detail)


def test_criterion_08_sampled_surrogate_concentration():
    n = 30
    rng = np.random.default_rng(6)
    spec = random_waq(n, rng)
    g = GroundSet(n)
    # f_max from the closed form: cost depends only on |S|
    order = sorted(range(n), key=lambda i: -spec.weights[i])
    f_max = max(sum(spec.weights[i] for i in order[:k]) - spec.cost * k * k
                for k in range(n + 1))
    delta = 0.2
    eps = 3.0 * f_max
    budget = ParamBudget(epsilon=eps, delta=delta, f_max=f_max,
                         noise=NoiseSpec(Gaussian(0.1)))
    params = compute_parameters(budget, n)
    assert params.h <= n and comb(params.h, params.t) >= params.m
    H = g.subset(range(params.h))
    probes = [ElementSet(g, int(rng.integers(1 << n))) for _ in range(50)]
    surrogate = exact_surrogate(spec, H, params.t)
    exact = {s.mask: surrogate.value(s) for s in probes}
    failures = 0
    worlds = 200
    for seed in range(worlds):
        world_rng = np.random.default_rng(seed)
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), seed)
        cfg = SurrogateConfig.draw(H, params.t, params.m, world_rng)
        if any(abs(surrogate_sampled(o, cfg, s) - exact[s.mask]) > eps
               for s in probes):
            failures += 1
    # delta plus 3-sigma binomial slack on the empirical rate
    limit = delta + 3 * np.sqrt(delta * (1 - delta) / worlds)
    ok = failures / worlds <= limit
    report("8 sampled surrogate concentration failure rate <= delta",
           ok, f"h={params.h} t={params.t} m={params.m} "
               f"failures={failures}/{worlds} limit={limit:.3f}")


def test_criterion_09_smoothing_bound():
    r = check_smoothing_lemma(seed=7)
    report("9 smoothed-optimum expectation bound holds (monotone and not)",
           r.passed, r.detail)


def test_criterion_10_averaging_inequality_suites():
    a = check_appendix_removal_lemmas(seed=8)
    b = check_surrogate_shift_lemmas(seed=8)
    report("10 subset removal/addition averaging inequalities hold exhaustively",
           a.passed and b.passed, a.detail or b.detail)


def test_criterion_11_noise_property_suite():
    r = check_noise_properties(seed=9)
    report("11 noise persistence/unbiasedness/independence suite", r.passed, r.detail)


def test_criterion_12_simulate_determinism():
    base = dict(n=20, trials=8, h=5, t=2, m_values=(4, 10), master_seed=9)
    outputs = [
        run_experiment(ExperimentSpec(workers=w, **base)).to_csv()
        for w in (1, 2, 4, 1)
    ]
    ok = all(o == outputs[0] for o in outputs)
    report("12 simulation CSV byte-identical across reruns and worker counts", ok)
