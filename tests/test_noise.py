import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisysubmax import sets
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential,
                               sample_multipliers)
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.sets import ElementSet, all_mask_rows, mask_rows
from noisysubmax.setfn import Modular, evaluate

from reference import (CHUNK_PEAK, memory_families, multiplier_by_chunk_loop,
                       multipliers_by_scalar_draws, peak_beyond_output, stream_uniforms)


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
    # every family, and a noisy oracle over it, after a one-set and a batch
    # query have built the families' lookup tables
    rng = np.random.default_rng(11)
    specs = (random_waq(10, rng), Modular(tuple(rng.uniform(-2.0, 2.0, size=10).tolist())),
             random_coverage(10, rng), random_cut(10, rng))
    masks = list(range(64))
    rows = mask_rows(masks, 10)
    for spec in specs:
        o = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), master_seed=11)
        for queried in (spec, o):
            want = [queried.value_mask(m).hex() for m in masks]
            batch = queried.value_masks(rows).tobytes()
            for twin in (pickle.loads(pickle.dumps(queried)), copy.deepcopy(queried)):
                assert [twin.value_mask(m).hex() for m in masks] == want
                assert twin.value_masks(rows).tobytes() == batch


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
    draws = sample_multipliers(spec, rng, 200000)
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


# The multiplier path must equal the stream written out chunk by chunk in
# tests/reference.py, and each distribution's transform with its constants
# computed inline.  Up to n=300 the masks span one to three 128-bit chunks.

def edge_masks(n):
    """The empty and full sets, the last element alone, and every element
    past the first chunk; the last two leave lower chunks zero."""
    full = (1 << n) - 1
    return [0, full, 1 << n - 1, full >> 128 << 128]


distributions = st.one_of(
    st.builds(Gaussian, st.floats(1e-6, 10.0)),
    st.builds(BoundedUniform, st.floats(0.0, 2.0)),
    st.builds(ShiftedExponential, st.floats(0.1, 10.0)))


@given(distributions, st.booleans(), st.integers(0, 2**64 - 1), st.integers(1, 300),
       st.data())
@settings(max_examples=150, deadline=None)
def test_multiplier_mask_matches_the_keyed_hash_reference(dist, clamp, seed, n, data):
    noise = NoiseSpec(dist, clamp_negative=clamp)
    oracle = PersistentNoisyOracle(Modular((1.0,) * n), noise, seed)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    for mask in masks + edge_masks(n):
        want = multiplier_by_chunk_loop(noise, seed, mask)
        assert oracle.multiplier_mask(mask).hex() == want.hex()


@given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_batch_uniforms_match_the_chunk_loop_reference(seed, n, data_seed):
    rng = np.random.default_rng(data_seed)
    oracle = PersistentNoisyOracle(Modular((1.0,) * n), NoiseSpec(Gaussian(0.1)), seed)
    masks = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
             for _ in range(8)] + edge_masks(n)
    u_open, u_half = oracle.uniforms(mask_rows(masks, n))
    want = [stream_uniforms(seed, mask) for mask in masks]
    assert list(zip(u_open.tolist(), u_half.tolist())) == want


def test_multiplier_depends_on_the_set_not_on_the_ground_set_size():
    noise = NoiseSpec(Gaussian(0.1))
    for mask in (0, 0b1011, 1 << 60 | 1, (1 << 130) - 1):
        values = {PersistentNoisyOracle(Modular((1.0,) * n), noise, 9).multiplier_mask(mask)
                  for n in (mask.bit_length() or 1, 131, 200, 400)}
        assert len(values) == 1


# The noisy batch mixes packed rows and splits the results in numpy; each
# value must equal `value_mask` of its row bit for bit, on every family's
# numpy batch.

def batch_family(kind, n, rng):
    if kind == "modular":  # negative weights too
        return Modular(tuple(float(w) for w in rng.uniform(-5.0, 5.0, size=n)))
    return {"waq": random_waq, "coverage": random_coverage, "cut": random_cut}[kind](n, rng)


@given(distributions, st.booleans(), st.integers(0, 2**64 - 1),
       st.sampled_from(["waq", "coverage", "cut", "modular"]), st.integers(1, 300),
       st.integers(0, 12), st.integers(0, 2**32))
@example(Gaussian(0.1), False, 7, "coverage", 128, 6, 0)  # a whole last byte
@settings(max_examples=150, deadline=None)
def test_noisy_batch_equals_value_mask(dist, clamp, seed, kind, n, k, data_seed):
    rng = np.random.default_rng(data_seed)
    oracle = PersistentNoisyOracle(batch_family(kind, n, rng),
                                   NoiseSpec(dist, clamp_negative=clamp), seed)
    masks = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
             for _ in range(k)] + edge_masks(n)
    got = oracle.value_masks(mask_rows(masks, n))
    assert got.shape == (len(masks),)
    assert [v.hex() for v in got.tolist()] == [oracle.value_mask(m).hex() for m in masks]
    assert oracle.value_masks(mask_rows([], n)).shape == (0,)


# The noisy batch works through `sets.map_chunks` chunks of CHUNK_BYTES //
# (128 x the row's 128-bit mask chunks) rows; no chunking changes a value.

@given(distributions, st.booleans(), st.integers(0, 2**64 - 1),
       st.sampled_from(["waq", "coverage", "cut", "modular"]), st.integers(1, 300),
       st.integers(0, 2**32))
@example(Gaussian(0.1), True, 3, "cut", 300, 0)  # three 128-bit mask chunks
@settings(max_examples=60, deadline=None)
def test_noisy_batch_chunks_equal_one_batch(dist, clamp, seed, kind, n, data_seed):
    rng = np.random.default_rng(data_seed)
    oracle = PersistentNoisyOracle(batch_family(kind, n, rng),
                                   NoiseSpec(dist, clamp_negative=clamp), seed)
    masks = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
             for _ in range(3 * 3 + 1)] + edge_masks(n)
    rows = mask_rows(masks, n)
    whole = oracle.value_masks(rows)
    with pytest.MonkeyPatch.context() as mp:
        # chunks of 3 rows (the last one 2 rows), then chunks of 1 row
        for chunk_bytes in (3 * 128 * -(-rows.shape[1] // 16), 1):
            mp.setattr(sets, "CHUNK_BYTES", chunk_bytes)
            assert oracle.value_masks(rows).tobytes() == whole.tobytes()
    assert [v.hex() for v in whole.tolist()] == [oracle.value_mask(m).hex() for m in masks]


def test_noisy_batch_memory_stays_within_one_chunk():
    # over all 2^16 rows the peak beyond the 512 KiB of values is one chunk's
    # mixer, map and family batch (tracemalloc: 146-294 KiB); mixing the
    # whole batch at once took 8706 KiB on each of these families
    rows = all_mask_rows(16)
    for spec in memory_families(16, np.random.default_rng(23)):
        for dist in (Gaussian(0.1), BoundedUniform(0.5), ShiftedExponential(2.0)):
            oracle = PersistentNoisyOracle(spec, NoiseSpec(dist), 5)
            assert peak_beyond_output(oracle.value_masks, rows) < CHUNK_PEAK, (type(spec).__name__, dist)


@given(distributions, st.booleans(), st.integers(0, 2**32), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_sample_multipliers_equal_scalar_draws(dist, clamp, seed, size):
    # one (size, 2) block holds the doubles of `size` draws of two, in order
    noise = NoiseSpec(dist, clamp_negative=clamp)
    stream, scalar_stream = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_multipliers(noise, stream, size)
    want = multipliers_by_scalar_draws(noise, scalar_stream, size)
    assert got.shape == (size,) and got.tobytes() == want.tobytes()
    assert stream.random() == scalar_stream.random()


@given(distributions, st.booleans(), st.integers(0, 2**32), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_multipliers_equal_the_scalar_multiplier(dist, clamp, seed, size):
    # the array map of each distribution, at the ends of both uniforms too
    noise = NoiseSpec(dist, clamp_negative=clamp)
    u = np.random.default_rng(seed).random((size, 2))
    u_open = np.concatenate([1.0 - u[:, 0], [1.0, 1.0, 2.0 ** -53, 2.0 ** -53]])
    u_half = np.concatenate([u[:, 1], [0.0, 1.0 - 2.0 ** -53, 0.0, 0.5]])
    got = noise.multipliers(u_open, u_half)
    want = np.array([noise.multiplier(a, b) for a, b in zip(u_open.tolist(), u_half.tolist())],
                    dtype=np.float64)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
