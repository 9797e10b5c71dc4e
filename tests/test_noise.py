import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential,
                               sample_multiplier)
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.sets import ElementSet, mask_rows
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


def test_oracle_survives_pickle_and_deepcopy():
    spec, o = make_oracle(seed=11)
    for twin in (pickle.loads(pickle.dumps(o)), copy.deepcopy(o)):
        assert [twin.value_mask(m) for m in range(64)] == [o.value_mask(m) for m in range(64)]


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


@pytest.mark.parametrize("dist", [Gaussian, BoundedUniform, ShiftedExponential])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, -2.0])
def test_bad_noise_parameters_rejected(dist, bad):
    with pytest.raises(ValueError, match="must be finite"):
        dist(bad)


def test_zero_noise_parameters():
    assert Gaussian(0.0).draw(0.5, 0.5) == 1.0
    assert BoundedUniform(0.0).draw(0.5, 0.5) == 1.0
    with pytest.raises(ValueError, match="finite and > 0"):
        ShiftedExponential(0.0)


def test_large_and_negative_master_seeds():
    spec = Modular(weights=(1.0, 1.0))
    for seed in (0, 2**64 - 1):
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), seed)
        assert np.isfinite(o.value_mask(0b11))
    # out-of-range seeds would alias in-range ones (-1 and 2^64 - 1, 0 and 2^64)
    for seed in (2**64, 2**64 + 5, -1, -3):
        with pytest.raises(ValueError):
            PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), seed)


def test_master_seeds_are_integers_and_never_truncated():
    spec = Modular(weights=(1.0, 1.0))
    noise = NoiseSpec(Gaussian(0.1))
    for seed in (1.9, 1.0, np.float64(3.0), "7"):
        with pytest.raises(TypeError):
            PersistentNoisyOracle(spec, noise, seed)
    # numpy integers are integers: they key the same stream as the int
    for seed in (np.uint64(2**64 - 1), np.int64(5), np.uint8(3)):
        o = PersistentNoisyOracle(spec, noise, seed)
        assert type(o.master_seed) is int
        assert o.value_mask(0b11) == PersistentNoisyOracle(spec, noise, int(seed)).value_mask(0b11)


# The multiplier path must equal the construction it replaced bit for bit:
# a BLAKE2b hash keyed per call, the 53-bit split, and each distribution's
# transform with its constants computed inline.

def former_draw(dist, u_open, u_half):
    if isinstance(dist, Gaussian):
        z = math.sqrt(-2.0 * math.log(u_open)) * math.cos(2.0 * math.pi * u_half)
        return 1.0 + math.sqrt(dist.sigma2) * z
    if isinstance(dist, BoundedUniform):
        return 1.0 - dist.halfwidth + 2.0 * dist.halfwidth * u_half
    return 1.0 - 1.0 / dist.rate - math.log(u_open) / dist.rate


def multiplier_by_keyed_hash(noise, master_seed, n, mask):
    digest = hashlib.blake2b(mask.to_bytes((n + 7) // 8, "little"), digest_size=16,
                             key=master_seed.to_bytes(8, "little")).digest()
    bits = int.from_bytes(digest, "little")
    u_open = ((bits & ((1 << 53) - 1)) + 1) * 2.0 ** -53
    u_half = ((bits >> 53) & ((1 << 53) - 1)) * 2.0 ** -53
    xi = former_draw(noise.distribution, u_open, u_half)
    return 0.0 if noise.clamp_negative and xi < 0.0 else xi


distributions = st.one_of(
    st.builds(Gaussian, st.floats(1e-6, 10.0)),
    st.builds(BoundedUniform, st.floats(0.0, 2.0)),
    st.builds(ShiftedExponential, st.floats(0.1, 10.0)))


@given(distributions, st.booleans(), st.integers(0, 2**64 - 1), st.integers(1, 100),
       st.data())
@settings(max_examples=150, deadline=None)
def test_multiplier_mask_matches_the_keyed_hash_reference(dist, clamp, seed, n, data):
    noise = NoiseSpec(dist, clamp_negative=clamp)
    oracle = PersistentNoisyOracle(Modular((1.0,) * n), noise, seed)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    for mask in masks + [0, (1 << n) - 1]:
        want = multiplier_by_keyed_hash(noise, seed, n, mask)
        assert oracle.multiplier_mask(mask).hex() == want.hex()


# The noisy batch hashes packed rows and splits the digests in numpy; each
# value must equal `value_mask` of its row bit for bit, on every family
# (the numpy batches of coverage and cut, the per-row loop of the others).

def batch_family(kind, n, rng):
    if kind == "modular":  # negative weights too
        return Modular(tuple(float(w) for w in rng.uniform(-5.0, 5.0, size=n)))
    return {"waq": random_waq, "coverage": random_coverage, "cut": random_cut}[kind](n, rng)


@given(distributions, st.booleans(), st.integers(0, 2**64 - 1),
       st.sampled_from(["waq", "coverage", "cut", "modular"]), st.integers(1, 100),
       st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_noisy_batch_equals_value_mask(dist, clamp, seed, kind, n, k, data_seed):
    rng = np.random.default_rng(data_seed)
    oracle = PersistentNoisyOracle(batch_family(kind, n, rng),
                                   NoiseSpec(dist, clamp_negative=clamp), seed)
    masks = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
             for _ in range(k)] + [0, (1 << n) - 1]
    got = oracle.value_masks(mask_rows(masks, n))
    assert got.shape == (len(masks),)
    assert [v.hex() for v in got.tolist()] == [oracle.value_mask(m).hex() for m in masks]
    assert oracle.value_masks(mask_rows([], n)).shape == (0,)
