from math import comb

import numpy as np
import pytest

from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential)
from noisysubmax.random_instances import random_submodular, random_waq
from noisysubmax.sets import ElementSet, GroundSet, all_k_subset_masks
from noisysubmax.setfn import evaluate
from noisysubmax.surrogate import (ParamBudget, SampledSurrogateOracle,
                                   SurrogateConfig, SurrogateParams,
                                   compute_parameters,
                                   sample_t_subsets_without_replacement,
                                   surrogate_exact, surrogate_sampled)


def test_surrogate_exact_t0_is_identity():
    rng = np.random.default_rng(0)
    spec = random_submodular(8, rng)
    g = GroundSet(8)
    H = g.subset([1, 4, 6])
    for _ in range(20):
        s = ElementSet(g, int(rng.integers(1 << 8)))
        assert surrogate_exact(spec, H, 0, s) == pytest.approx(evaluate(spec, s))


def test_surrogate_exact_two_term_average():
    rng = np.random.default_rng(1)
    spec = random_submodular(6, rng)
    g = GroundSet(6)
    H = g.subset([0, 3])
    s = g.subset([4])
    want = 0.5 * (evaluate(spec, s.add(0)) + evaluate(spec, s.add(3)))
    assert surrogate_exact(spec, H, 1, s) == pytest.approx(want)


def test_surrogate_exact_matches_enumeration():
    rng = np.random.default_rng(2)
    spec = random_submodular(10, rng)
    g = GroundSet(10)
    H = g.subset([0, 2, 5, 9])
    s = g.subset([1, 7])
    masks = list(all_k_subset_masks(list(H), 2))
    want = np.mean([evaluate(spec, ElementSet(g, s.mask | m)) for m in masks])
    assert surrogate_exact(spec, H, 2, s) == pytest.approx(float(want))


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
    empty = g.empty_set()
    dg = SurrogateConfig.draw(empty, 0, 1, rng)
    assert dg.h == 0 and dg.m == 1


def test_sampled_surrogate_zero_noise_full_m_equals_exact():
    rng = np.random.default_rng(6)
    spec = random_submodular(9, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 17)
    g = GroundSet(9)
    H = g.subset([2, 4, 7, 8])
    cfg = SurrogateConfig.draw(H, 2, comb(4, 2), rng)
    for _ in range(20):
        s = ElementSet(g, int(rng.integers(1 << 9)))
        assert surrogate_sampled(o, cfg, s) == pytest.approx(
            surrogate_exact(spec, H, 2, s))


def test_sampled_surrogate_degenerate_is_raw_oracle():
    rng = np.random.default_rng(7)
    spec = random_waq(8, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 23)
    g = GroundSet(8)
    cfg = SurrogateConfig.draw(g.empty_set(), 0, 1, rng)
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


def test_fits_within():
    p = SurrogateParams(h=9, t=3, m=10)
    assert p.fits_within(10)
    assert not p.fits_within(8)
