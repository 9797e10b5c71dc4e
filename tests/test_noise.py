import numpy as np
import pytest

from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential,
                               sample_multiplier)
from noisysubmax.random_instances import random_waq
from noisysubmax.sets import ElementSet
from noisysubmax.setfn import Modular, evaluate


def make_oracle(seed=0, n=10, sigma2=0.1):
    rng = np.random.default_rng(99)
    spec = random_waq(n, rng)
    return spec, PersistentNoisyOracle(spec, NoiseSpec(Gaussian(sigma2)), seed)


def test_persistence_bit_identical():
    spec, o = make_oracle()
    rng = np.random.default_rng(0)
    for _ in range(500):
        s = ElementSet(o.ground, int(rng.integers(1 << 10)))
        assert o.value(s) == o.value(s)


def test_persistence_across_oracle_instances():
    spec, o1 = make_oracle(seed=7)
    _, o2 = make_oracle(seed=7)
    _, o3 = make_oracle(seed=8)
    differs = False
    for mask in range(1 << 10):
        assert o1.value_mask(mask) == o2.value_mask(mask)
        differs |= o1.multiplier_mask(mask) != o3.multiplier_mask(mask)
    assert differs


def test_multiplicative_structure():
    spec, o = make_oracle()
    for mask in range(64):
        base = evaluate(spec, ElementSet(o.ground, mask))
        assert o.value_mask(mask) == pytest.approx(o.multiplier_mask(mask) * base)


def test_unbiased_multiplier_over_seeds():
    spec = Modular(weights=(1.0, 2.0, 4.0))
    noise = NoiseSpec(Gaussian(0.1))
    draws = np.array([
        PersistentNoisyOracle(spec, noise, seed).multiplier_mask(0b101)
        for seed in range(20000)
    ])
    se = np.sqrt(0.1 / len(draws))
    assert abs(draws.mean() - 1.0) < 4 * se
    assert draws.std() == pytest.approx(np.sqrt(0.1), rel=0.05)


def test_pairwise_independence_proxy():
    _, o = make_oracle(n=16)
    rng = np.random.default_rng(5)
    a = np.array([o.multiplier_mask(int(rng.integers(1 << 16))) for _ in range(5000)])
    b = np.array([o.multiplier_mask(int(rng.integers(1 << 16))) for _ in range(5000)])
    assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(5000)


def test_bounded_uniform_support():
    spec = Modular(weights=(1.0,) * 6)
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.25)), 3)
    for mask in range(64):
        assert 0.75 <= o.multiplier_mask(mask) <= 1.25


def test_zero_amplitude_noise_is_exact():
    rng = np.random.default_rng(1)
    spec = random_waq(8, rng)
    o = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 11)
    for mask in range(256):
        assert o.value_mask(mask) == pytest.approx(
            evaluate(spec, ElementSet(o.ground, mask)))


def test_shifted_exponential_mean_and_support():
    spec = NoiseSpec(ShiftedExponential(2.0))
    rng = np.random.default_rng(2)
    draws = np.array([sample_multiplier(spec, rng) for _ in range(200000)])
    assert np.min(draws) >= 1.0 - 1.0 / 2.0 - 1e-12
    se = (1.0 / 2.0) / np.sqrt(len(draws))
    assert abs(draws.mean() - 1.0) < 3 * se


def test_clamp_negative():
    spec = Modular(weights=(1.0,) * 4)
    clamped = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(4.0), clamp_negative=True), 0)
    raw = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(4.0)), 0)
    saw_negative = False
    for mask in range(1 << 4):
        assert clamped.multiplier_mask(mask) >= 0.0
        saw_negative |= raw.multiplier_mask(mask) < 0.0
    assert saw_negative  # sigma=2 makes negatives common


def test_sub_exponential_params():
    assert NoiseSpec(Gaussian(0.25)).sub_exponential_params == (0.5, 0.0)
    assert NoiseSpec(BoundedUniform(0.3)).sub_exponential_params == (0.6, 0.0)
    nu, alpha = NoiseSpec(ShiftedExponential(4.0)).sub_exponential_params
    assert (nu, alpha) == (0.5, 0.5)
    assert NoiseSpec(ShiftedExponential(4.0)).sub_exponential_norm == 0.5


def test_large_and_negative_master_seeds():
    spec = Modular(weights=(1.0, 1.0))
    for seed in (0, 2**64 - 1):
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), seed)
        assert np.isfinite(o.value_mask(0b11))
    # out-of-range seeds would alias in-range ones (-1 and 2^64 - 1, 0 and 2^64)
    for seed in (2**64, 2**64 + 5, -1, -3):
        with pytest.raises(ValueError):
            PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), seed)
