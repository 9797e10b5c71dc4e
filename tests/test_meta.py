import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import meta
from noisysubmax.matroids import UniformMatroid, is_independent
from noisysubmax.meta import (MetaConfig, best_of_T, comparison_surrogate_f0,
                              meta_solve)
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle)
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.oracles import ValueOracle
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.setfn import Modular, brute_force_opt, evaluate
from noisysubmax.solvers import DoubleGreedy, Greedy, double_greedy
from noisysubmax.surrogate import SurrogateConfig, check_surrogate_sizes

from reference import RecordingOracle, comparison_by_single_queries
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
    with pytest.raises(ValueError):  # h < 0
        MetaConfig(h=-1, t=0, m=1, inner=DoubleGreedy(), matroid=m)


@pytest.mark.parametrize("h, t, m", [(2, 2, 1), (3, -1, 1), (3, 1, 4), (4, 2, 7),
                                     (3, 1, 0), (0, 1, 1), (0, 0, 2)])
def test_meta_and_surrogate_configs_reject_bad_sizes_alike(h, t, m):
    g = GroundSet(10)
    with pytest.raises(ValueError) as surrogate_error:
        SurrogateConfig(g.subset(range(h)), t, m, ())
    with pytest.raises(ValueError) as meta_error:
        MetaConfig(h=h, t=t, m=m, inner=DoubleGreedy(), matroid=UniformMatroid(g, 5))
    assert str(meta_error.value) == str(surrogate_error.value)


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
        comparison_surrogate_f0(o, ElementSet(g, 0))


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


# The unconstrained guarantee against brute force, without noise: under
# Gaussian(0.0) every multiplier is exactly 1.0, and m = C(h, t) freezes every
# t-subset, so the surrogate is the exact F.  Double greedy's 1/2 on F over
# the contracted ground set, the smoothing loss h/(n-h) + t/(h-t) that
# `checks.check_smoothing_lemma` checks, and E over H' of f(S + H') = F(S)
# give E[f(out)] / OPT >= 1/2 (1 - h/(n-h) - t/(h-t)) on each cut.  The
# ratios lie in [0, 1] and the runs are independent, so (Hoeffding) their
# mean falls more than sqrt(ln(10^6) / (2N)) below the mean bound with
# probability at most 10^-6.

@pytest.mark.parametrize("h, t", [(2, 0), (3, 1)])
def test_meta_double_greedy_meets_the_unconstrained_bound(h, t):
    rng = np.random.default_rng(h)
    ratios, bounds = [], []
    for _ in range(20):
        n = int(rng.integers(12, 15))
        spec = random_cut(n, rng)
        _, opt = brute_force_opt(spec)
        oracle = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.0)), int(rng.integers(2**63)))
        cfg = MetaConfig(h=h, t=t, m=math.comb(h, t), inner=DoubleGreedy(),
                         matroid=UniformMatroid(GroundSet(n), n))
        for _ in range(50):
            out = meta_solve(oracle, cfg, rng)
            assert oracle.value(out) == evaluate(spec, out)  # the multiplier is 1.0
            ratios.append(evaluate(spec, out) / opt)
            bounds.append(0.5 * (1 - h / (n - h) - t / (h - t)))
    margin = math.sqrt(math.log(1e6) / (2 * len(ratios)))
    assert np.mean(ratios) >= np.mean(bounds) - margin


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


class _ScriptedValues(ValueOracle):
    """Noisy-oracle stand-in that answers from a table of set values."""

    def __init__(self, n, values):
        self.ground = GroundSet(n)
        self.values = values

    def value_mask(self, mask):
        return self.values[mask]


@given(st.permutations(range(4)), st.lists(st.integers(-20, 20), min_size=5,
                                           max_size=5, unique=True))
@settings(max_examples=100, deadline=None)
def test_best_of_T_empty_run_wins_only_below_f_empty(order, values):
    # runs: ∅, {0, 1}, {2, 3} and {0, 2}, met in the drawn order; each
    # two-set run scores the mean of its two singletons, a multiple of 1/2,
    # so it never ties with f(∅), which is 1/4 off one
    f = {0: values[0] + 0.25}
    f.update({1 << i: float(v) for i, v in enumerate(values[1:])})
    runs = [0, 0b0011, 0b1100, 0b0101]
    oracle = _ScriptedValues(4, f)
    g = oracle.ground
    script = iter([ElementSet(g, runs[k]) for k in order])
    cfg = MetaConfig(h=0, t=0, m=1, inner=Greedy(), matroid=UniformMatroid(g, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meta, "meta_solve", lambda o, c, rng: next(script))
        best = best_of_T(oracle, cfg, 4, np.random.default_rng(0))
    scores = {mask: comparison_surrogate_f0(oracle, ElementSet(g, mask)) for mask in runs[1:]}
    assert (best.mask == 0) == all(score < f[0] for score in scores.values())
    if best.mask:
        assert scores[best.mask] == max(scores.values())


def test_best_of_T_singleton_ties_with_the_empty_run():
    oracle = _ScriptedValues(2, {0: 1.0, 1: 5.0, 2: 0.0})
    g = oracle.ground
    cfg = MetaConfig(h=0, t=0, m=1, inner=Greedy(), matroid=UniformMatroid(g, 1))
    for first, second in ((0, 1), (1, 0)):
        script = iter([ElementSet(g, first), ElementSet(g, second)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meta, "meta_solve", lambda o, c, rng: next(script))
            # {0} scores f(∅) = 1.0, as ∅ does, so the earlier run is kept
            assert best_of_T(oracle, cfg, 2, np.random.default_rng(0)).mask == first


# The leave-one-out score sends its |S| sets as one batch: the same sets in
# the same order as one query per element, and the same score bit for bit.

@given(st.integers(0, 2), st.integers(1, 100), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_comparison_surrogate_batch_queries_like_the_single_query_loop(family, n, seed):
    rng = np.random.default_rng(seed)
    spec = (random_waq, random_coverage, random_cut)[family](n, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.5)), seed)
    mask = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1) | 1
    s = ElementSet(GroundSet(n), mask)
    batched, single = RecordingOracle(o), RecordingOracle(o)
    want = comparison_by_single_queries(single, s)
    assert comparison_surrogate_f0(batched, s).hex() == want.hex()
    assert batched.queries == single.queries
    assert comparison_surrogate_f0(o, s).hex() == want.hex()


@pytest.mark.parametrize("sizes", [dict(h=3, t=1, m=2.5), dict(h=3.0, t=1, m=2),
                                   dict(h=3, t=1.0, m=2)])
def test_meta_and_surrogate_sizes_must_be_integers(sizes):
    # MetaConfig(m=2.5) was accepted, and meta_solve then failed inside numpy
    g = GroundSet(10)
    with pytest.raises(TypeError):
        MetaConfig(**sizes, inner=DoubleGreedy(), matroid=UniformMatroid(g, 5))
    with pytest.raises(TypeError):
        check_surrogate_sizes(sizes["h"], sizes["t"], sizes["m"])
    if type(sizes["h"]) is int:
        samples = (g.subset([0]), g.subset([1]))
        with pytest.raises(TypeError):
            SurrogateConfig(g.subset(range(3)), sizes["t"], sizes["m"], samples)


def test_meta_and_surrogate_sizes_are_stored_as_ints():
    g = GroundSet(10)
    cfg = MetaConfig(h=np.int64(3), t=np.int32(1), m=np.int64(2), inner=DoubleGreedy(),
                     matroid=UniformMatroid(g, 5))
    assert (cfg.h, cfg.t, cfg.m) == (3, 1, 2)
    assert all(type(size) is int for size in (cfg.h, cfg.t, cfg.m))
    surrogate = SurrogateConfig.draw(g.subset(range(3)), np.int8(1), np.int64(2),
                                     np.random.default_rng(0))
    assert (type(surrogate.t), type(surrogate.m)) == (int, int)
    assert check_surrogate_sizes(np.int64(3), np.int64(1), np.int64(2)) == (3, 1, 2)
