from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import surrogate

from noisysubmax.checks import (smoothing_lemma_gap, surrogate_shift_bounds,
                                surrogate_table)
from noisysubmax.matroids import UniformMatroid
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential)
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import ElementSet, GroundSet, all_k_subset_masks, mask_rows
from noisysubmax.setfn import (Modular, WeightedAdditiveQuadratic, brute_force_opt,
                               evaluate, value_table)
from noisysubmax.surrogate import (ParamBudget, SampledSurrogateOracle,
                                   SurrogateConfig, SurrogateParams,
                                   compute_parameters,
                                   sample_t_subsets_without_replacement)

from reference import surrogate_sampled


# The exact surrogate is the dense table `checks.surrogate_table`.

def test_surrogate_exact_t0_is_identity():
    rng = np.random.default_rng(0)
    spec = random_submodular(8, rng)
    table = value_table(spec)
    assert surrogate_table(table, 8, [1, 4, 6], 0).tobytes() == table.tobytes()


def test_surrogate_exact_two_term_average():
    rng = np.random.default_rng(1)
    spec = random_submodular(6, rng)
    g = GroundSet(6)
    s = g.subset([4])
    want = 0.5 * (evaluate(spec, g.subset([0, 4])) + evaluate(spec, g.subset([3, 4])))
    assert surrogate_table(value_table(spec), 6, [0, 3], 1)[s.mask] == pytest.approx(want)


def test_surrogate_exact_matches_enumeration():
    rng = np.random.default_rng(2)
    spec = random_submodular(10, rng)
    g = GroundSet(10)
    H = g.subset([0, 2, 5, 9])
    s = g.subset([1, 7])
    masks = list(all_k_subset_masks(list(H), 2))
    want = np.mean([evaluate(spec, ElementSet(g, s.mask | m)) for m in masks])
    surr = surrogate_table(value_table(spec), 10, list(H), 2)
    assert surr[s.mask] == pytest.approx(float(want))


def test_surrogate_shift_bounds_hold_through_the_gap_term():
    # f modular with positive weights: E_H[F(S \ H)] < E_H[F(S)] for every
    # nonempty S, so only the h/(n-h) term keeps the first bound
    spec = Modular(weights=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    for h, t in ((1, 0), (2, 1), (3, 2)):
        assert surrogate_shift_bounds(spec, h, t, [0b1, 0b10110, 0xFF])


def test_surrogate_shift_bounds_fail_at_any_failing_probe():
    # f(S) = |S|^2 is supermodular: at n=8, h=1, t=0 the first bound holds
    # at the empty set and fails at the full set (49 < 64 - 64/7)
    spec = WeightedAdditiveQuadratic(weights=(0.0,) * 8, cost=-1.0)
    assert surrogate_shift_bounds(spec, 1, 0, [0, 0b1010])
    assert not surrogate_shift_bounds(spec, 1, 0, [0xFF])
    assert not surrogate_shift_bounds(spec, 1, 0, [0, 0xFF, 0b1010])


def test_smoothing_lemma_gap_optimum_is_over_the_matroid():
    # the rank-5 constraint binds: the optimum is the 5 largest weights
    spec = Modular(weights=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    _, opt, _ = smoothing_lemma_gap(spec, 5, 2, 1)
    assert opt == brute_force_opt(spec, UniformMatroid(GroundSet(8), 5))[1] == 30.0


def test_sampling_without_replacement_distinct_and_exhaustive():
    rng = np.random.default_rng(3)
    g = GroundSet(8)
    H = g.subset([0, 1, 2, 3])
    subs = sample_t_subsets_without_replacement(H, 2, 3, rng)
    assert len({s.mask for s in subs}) == 3
    full = sample_t_subsets_without_replacement(H, 2, 6, rng)
    assert {s.mask for s in full} == set(all_k_subset_masks(list(H), 2))
    with pytest.raises(ValueError):
        sample_t_subsets_without_replacement(H, 2, 7, rng)


def test_sampling_uniform_frequencies():
    rng = np.random.default_rng(4)
    g = GroundSet(6)
    H = g.full_set()
    counts = {}
    reps = 30000
    for _ in range(reps):
        for s in sample_t_subsets_without_replacement(H, 2, 5, rng):
            counts[s.mask] = counts.get(s.mask, 0) + 1
    total = comb(6, 2)
    p = 5 / total
    expected = reps * p
    sigma = np.sqrt(reps * p * (1 - p))
    assert len(counts) == total
    for c in counts.values():
        assert abs(c - expected) < 4 * sigma


def test_surrogate_config_validation():
    rng = np.random.default_rng(5)
    g = GroundSet(8)
    H = g.subset([0, 1, 2, 3])
    cfg = SurrogateConfig.draw(H, 2, 4, rng)
    assert cfg.h == 4 and cfg.m == 4
    with pytest.raises(ValueError):  # t >= h
        SurrogateConfig.draw(H, 4, 1, rng)
    with pytest.raises(ValueError):  # duplicate samples
        sub = g.subset([0, 1])
        SurrogateConfig(H, 2, 2, (sub, sub))
    with pytest.raises(ValueError):  # sample not a subset of H
        SurrogateConfig(H, 2, 1, (g.subset([0, 5]),))
    with pytest.raises(ValueError):  # wrong sample size
        SurrogateConfig(H, 2, 1, (g.subset([0]),))
    # degenerate identity surrogate
    empty = ElementSet(g, 0)
    dg = SurrogateConfig.draw(empty, 0, 1, rng)
    assert dg.h == 0 and dg.m == 1


@pytest.mark.parametrize("m", [0, -1])
def test_surrogate_config_needs_a_frozen_sample(m):
    g = GroundSet(8)
    H = g.subset([0, 1, 2, 3])
    with pytest.raises(ValueError, match="m >= 1"):
        SurrogateConfig.draw(H, 1, m, np.random.default_rng(5))
    with pytest.raises(ValueError, match="m >= 1"):
        SurrogateConfig(H, 1, m, ())


def test_sampled_surrogate_zero_noise_full_m_equals_exact():
    rng = np.random.default_rng(6)
    spec = random_submodular(9, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 17)
    g = GroundSet(9)
    H = g.subset([2, 4, 7, 8])
    cfg = SurrogateConfig.draw(H, 2, comb(4, 2), rng)
    exact = surrogate_table(value_table(spec), 9, list(H), 2)
    for _ in range(20):
        s = ElementSet(g, int(rng.integers(1 << 9)))
        assert surrogate_sampled(o, cfg, s) == pytest.approx(exact[s.mask])


def test_sampled_surrogate_degenerate_is_raw_oracle():
    rng = np.random.default_rng(7)
    spec = random_waq(8, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 23)
    g = GroundSet(8)
    cfg = SurrogateConfig.draw(ElementSet(g, 0), 0, 1, rng)
    for mask in range(40):
        assert SampledSurrogateOracle(o, cfg).value_mask(mask) == o.value_mask(mask)


def test_sampled_surrogate_persistence():
    rng = np.random.default_rng(8)
    spec = random_waq(10, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 31)
    g = GroundSet(10)
    H = g.subset([0, 1, 2, 3, 4])
    cfg = SurrogateConfig.draw(H, 2, 6, rng)
    surr = SampledSurrogateOracle(o, cfg)
    for _ in range(50):
        mask = int(rng.integers(1 << 10))
        assert surr.value_mask(mask) == surr.value_mask(mask)


def test_param_budget_validation():
    noise = NoiseSpec(ShiftedExponential(1.0))  # nu = alpha = 2
    ParamBudget(epsilon=1.0, delta=0.1, f_max=1.0, noise=noise)
    with pytest.raises(ValueError):  # epsilon > 2 nu^2 f_max / alpha = 4
        ParamBudget(epsilon=5.0, delta=0.1, f_max=1.0, noise=noise)
    with pytest.raises(ValueError):
        ParamBudget(epsilon=0.0, delta=0.1, f_max=1.0, noise=noise)
    with pytest.raises(ValueError):
        ParamBudget(epsilon=1.0, delta=1.0, f_max=1.0, noise=noise)


@pytest.mark.parametrize("field, bad", [
    ("f_max", -1.0), ("f_max", 0.0), ("f_max", np.nan), ("f_max", np.inf),
    ("epsilon", np.nan), ("epsilon", np.inf), ("epsilon", -1.0)])
def test_param_budget_needs_finite_positive_epsilon_and_f_max(field, bad):
    kwargs = dict(epsilon=1.0, delta=0.1, f_max=1.0, noise=NoiseSpec(Gaussian(0.1)))
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        ParamBudget(**kwargs)


def test_compute_parameters_reference_values():
    budget = ParamBudget(epsilon=1.0, delta=0.04, f_max=1.0,
                         noise=NoiseSpec(Gaussian(1.0)))  # nu = 1
    p = compute_parameters(budget, 10)
    assert (p.h, p.t, p.m) == (81, 9, 117)

    budget2 = ParamBudget(epsilon=1.0, delta=4.0 / np.e**4, f_max=1.0,
                          noise=NoiseSpec(Gaussian(0.25)))  # nu = 0.5
    p2 = compute_parameters(budget2, 1)
    assert (p2.h, p2.t, p2.m) == (36, 6, 10)


def test_compute_parameters_binomial_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(20):
        eps = float(rng.uniform(0.3, 3.0))
        delta = float(rng.uniform(0.01, 0.5))
        nu = float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(1, 200))
        budget = ParamBudget(epsilon=eps, delta=delta, f_max=1.0,
                             noise=NoiseSpec(Gaussian(nu * nu)))
        p = compute_parameters(budget, n)
        assert comb(p.h, p.t) >= p.m
        assert p.h == p.t * p.t


@pytest.mark.parametrize("n", [0, -100])
def test_compute_parameters_needs_a_nonempty_ground_set(n):
    budget = ParamBudget(epsilon=1.0, delta=0.04, f_max=1.0, noise=NoiseSpec(Gaussian(1.0)))
    with pytest.raises(ValueError, match="ground set size must be >= 1"):
        compute_parameters(budget, n)


def test_fits_within():
    p = SurrogateParams(h=9, t=3, m=10)
    assert p.fits_within(10)
    assert not p.fits_within(8)


# The surrogate batch sends the k*m unions to the inner oracle's batch and
# averages each row left to right; each value must equal `value_mask`.

def surrogate_case(family, n, h, exact, seed):
    rng = np.random.default_rng(seed)
    spec = (random_waq, random_coverage, random_cut)[family](n, rng)
    inner = (ExactOracle(spec) if exact else
             PersistentNoisyOracle(spec, NoiseSpec(ShiftedExponential(2.0)), seed))
    g = GroundSet(n)
    H = g.subset(rng.choice(n, size=min(h, n), replace=False).tolist())
    if len(H) == 0:
        cfg = SurrogateConfig.draw(H, 0, 1, rng)
    else:
        t = int(rng.integers(0, len(H)))
        # m up to 20, past the 8 terms where numpy's pairwise sum departs
        # from a left-to-right one
        cfg = SurrogateConfig.draw(H, t, int(rng.integers(1, min(comb(len(H), t), 20) + 1)), rng)
    return SampledSurrogateOracle(inner, cfg), rng


@given(st.integers(0, 2), st.integers(1, 100), st.integers(0, 8), st.booleans(),
       st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_surrogate_batch_equals_value_mask(family, n, h, exact, k, seed):
    oracle, rng = surrogate_case(family, n, h, exact, seed)
    rows = rng.random((k, n)) < rng.random()
    masks = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
             for r in rows]
    got = oracle.value_masks(rows)
    assert got.shape == (k,)
    assert [v.hex() for v in got.tolist()] == [oracle.value_mask(m).hex() for m in masks]


@given(st.integers(0, 2), st.integers(1, 100), st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_surrogate_batch_chunks_equal_one_batch(family, n, h, seed):
    oracle, rng = surrogate_case(family, n, h, False, seed)
    rows = rng.random((3 * 4 + 1, n)) < 0.5
    whole = oracle.value_masks(rows)
    cells_per_row = oracle.cfg.m * n
    with pytest.MonkeyPatch.context() as mp:
        # chunks of 4 rows (the last one 1 row), then chunks of 1 row
        for cells in (4 * cells_per_row, 1):
            mp.setattr(surrogate, "_SURROGATE_CHUNK_CELLS", cells)
            assert oracle.value_masks(rows).tobytes() == whole.tobytes()
