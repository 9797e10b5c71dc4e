import numpy as np
import pytest

from noisysubmax.matroids import UniformMatroid, is_independent
from noisysubmax.meta import (MetaConfig, best_of_T, comparison_surrogate_f0,
                              meta_solve)
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle)
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import GroundSet
from noisysubmax.setfn import Modular, evaluate
from noisysubmax.solvers import DoubleGreedy, Greedy, double_greedy

from table_oracle import TableOracle


def test_meta_config_validation():
    g = GroundSet(10)
    m = UniformMatroid(g, 5)
    MetaConfig(h=3, t=1, m=3, inner=DoubleGreedy(), matroid=m)
    with pytest.raises(ValueError):  # t >= h
        MetaConfig(h=2, t=2, m=1, inner=DoubleGreedy(), matroid=m)
    with pytest.raises(ValueError):  # h > rank
        MetaConfig(h=6, t=1, m=3, inner=DoubleGreedy(), matroid=m)
    with pytest.raises(ValueError):  # m > C(h,t)
        MetaConfig(h=3, t=1, m=4, inner=DoubleGreedy(), matroid=m)
    with pytest.raises(ValueError):  # h=0 requires t=0
        MetaConfig(h=0, t=1, m=1, inner=DoubleGreedy(), matroid=m)
    with pytest.raises(ValueError):  # m > C(0,0) = 1
        MetaConfig(h=0, t=0, m=2, inner=DoubleGreedy(), matroid=m)


def test_degenerate_meta_equals_double_greedy():
    rng = np.random.default_rng(0)
    spec = random_submodular(9, rng)
    g = GroundSet(9)
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 7)
    cfg = MetaConfig(h=0, t=0, m=1, inner=DoubleGreedy(),
                     matroid=UniformMatroid(g, 9))
    for seed in range(10):
        a = meta_solve(o, cfg, np.random.default_rng(seed))
        b = double_greedy(PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 7),
                          g, np.random.default_rng(seed))
        assert a.mask == b.mask


def test_meta_output_independent_in_original_matroid():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(6, 13))
        spec = random_submodular(n, rng)
        g = GroundSet(n)
        r = int(rng.integers(3, n + 1))
        matroid = UniformMatroid(g, r)
        h = int(rng.integers(1, min(r, 4) + 1)) if r >= 1 else 0
        t = int(rng.integers(0, h))
        m = int(rng.integers(1, 4))
        from math import comb
        m = min(m, comb(h, t))
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)),
                                  int(rng.integers(2**32)))
        inner = DoubleGreedy() if rng.random() < 0.5 else Greedy()
        cfg = MetaConfig(h=h, t=t, m=m, inner=inner, matroid=matroid)
        s = meta_solve(o, cfg, rng)
        assert is_independent(matroid, s)


def test_meta_deterministic_given_seeds():
    rng_spec = np.random.default_rng(2)
    spec = random_waq(12, rng_spec)
    g = GroundSet(12)
    o1 = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 99)
    o2 = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 99)
    cfg = MetaConfig(h=4, t=2, m=5, inner=DoubleGreedy(),
                     matroid=UniformMatroid(g, 12))
    a = meta_solve(o1, cfg, np.random.default_rng(123))
    b = meta_solve(o2, cfg, np.random.default_rng(123))
    assert a.mask == b.mask


def test_comparison_surrogate_modular_zero_noise():
    spec = Modular(weights=(2.0, 4.0, 6.0))
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 0)
    g = GroundSet(3)
    s = g.subset([0, 2])
    # f(S - e) = f(S) - w_e, so f0 = f(S) - mean weight
    assert comparison_surrogate_f0(o, s) == pytest.approx(8.0 - 4.0)
    with pytest.raises(ValueError):
        comparison_surrogate_f0(o, g.empty_set())


def test_comparison_surrogate_monotone_bounds():
    rng = np.random.default_rng(3)
    for _ in range(5):
        spec = random_coverage(8, rng)
        o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 0)
        g = GroundSet(8)
        for mask in range(1, 1 << 8):
            from noisysubmax.sets import ElementSet
            s = ElementSet(g, mask)
            f0 = comparison_surrogate_f0(o, s)
            fs = evaluate(spec, s)
            assert f0 <= fs + 1e-9
            assert f0 >= (1 - 1 / len(s)) * fs - 1e-9


def test_best_of_T_one_equals_meta_solve():
    rng_spec = np.random.default_rng(4)
    spec = random_waq(10, rng_spec)
    g = GroundSet(10)
    o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 55)
    cfg = MetaConfig(h=3, t=1, m=3, inner=DoubleGreedy(),
                     matroid=UniformMatroid(g, 10))
    a = best_of_T(o, cfg, 1, np.random.default_rng(77))
    b = meta_solve(o, cfg, np.random.default_rng(77))
    assert a.mask == b.mask
    with pytest.raises(ValueError):
        best_of_T(o, cfg, 0, np.random.default_rng(0))


def test_meta_mean_value_bound_zero_noise():
    # n=12, rank 8, h=3, t=1, exhaustive surrogate samples, zero noise:
    # mean f(solution) >= 1/2 * (1 - h/(r-h) - t/(h-t)) * OPT - 3 SE
    rng = np.random.default_rng(6)
    spec = random_cut(12, rng)
    g = GroundSet(12)
    matroid = UniformMatroid(g, 8)
    oracle = TableOracle(spec)
    from noisysubmax.setfn import brute_force_opt
    _, opt = brute_force_opt(spec, matroid)
    h, t, r = 3, 1, 8
    cfg = MetaConfig(h=h, t=t, m=3, inner=DoubleGreedy(), matroid=matroid)
    vals = np.array([
        float(oracle.table[meta_solve(oracle, cfg, rng).mask])
        for _ in range(5000)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    bound = 0.5 * (1 - h / (r - h) - t / (h - t)) * opt
    assert vals.mean() >= bound - 3 * se


def test_best_of_T_mild_noise_success_rate():
    rng_spec = np.random.default_rng(7)
    spec = random_coverage(12, rng_spec)
    g = GroundSet(12)
    matroid = UniformMatroid(g, 6)
    from noisysubmax.setfn import brute_force_opt
    _, opt = brute_force_opt(spec, matroid)
    threshold = (1 - 1 / np.e - 0.1) * opt
    failures = 0
    seeds = 200
    for seed in range(seeds):
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.05)), seed)
        cfg = MetaConfig(h=3, t=1, m=3, inner=Greedy(), matroid=matroid)
        s = best_of_T(o, cfg, 20, np.random.default_rng(seed))
        if evaluate(spec, s) < threshold:
            failures += 1
    assert failures / seeds < 0.05


def test_best_of_T_improves_or_matches_on_average():
    rng_spec = np.random.default_rng(5)
    spec = random_coverage(10, rng_spec)
    g = GroundSet(10)
    single, repeated = [], []
    for seed in range(40):
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.2)), seed)
        cfg = MetaConfig(h=3, t=1, m=3, inner=Greedy(),
                         matroid=UniformMatroid(g, 5))
        rng = np.random.default_rng(seed)
        single.append(evaluate(spec, meta_solve(o, cfg, rng)))
        repeated.append(evaluate(spec, best_of_T(o, cfg, 8, rng)))
    assert np.mean(repeated) >= np.mean(single) - 1e-9
