"""Value oracles: batch queries through `value_masks` on packed rows, and
the ground-set check at the oracle boundary."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisysubmax.noise import BoundedUniform, NoiseSpec, PersistentNoisyOracle, ShiftedExponential
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.sets import all_mask_rows, mask_rows, pack_rows, row_masks
from noisysubmax.surrogate import SampledSurrogateOracle, SurrogateConfig

from reference import CHUNK_PEAK, PerturbedOracle, memory_families, peak_beyond_output

FAMILIES = (random_waq, random_coverage, random_cut)


def hexes(values):
    return [float(v).hex() for v in values]


@given(st.integers(0, 2), st.integers(1, 100), st.integers(0, 12), st.integers(0, 2**32))
@example(1, 16, 6, 0)  # packed rows with a whole last byte
@settings(max_examples=40, deadline=None)
def test_exact_batch_matches_the_default_loop(family, n, k, seed):
    rng = np.random.default_rng(seed)
    spec = FAMILIES[family](n, rng)
    rows = pack_rows(rng.random((k, n)) < rng.random())
    exact = ExactOracle(spec)
    batch = exact.value_masks(rows)
    # PerturbedOracle(..., 0.0) adds a zero to each value and keeps the
    # default one-call-per-row loop of ValueOracle
    assert hexes(batch) == hexes(PerturbedOracle(exact, 0.0).value_masks(rows))
    noisy = PersistentNoisyOracle(spec, NoiseSpec(ShiftedExponential(2.0)), seed)
    masks = row_masks(rows)
    assert hexes(noisy.value_masks(rows)) == hexes(
        noisy.multiplier_mask(mask) * value for mask, value in zip(masks, batch))


def test_default_loop_queries_each_row_in_order():
    exact = ExactOracle(random_cut(9, np.random.default_rng(0)))
    seen = []

    class Recording(PerturbedOracle):
        def value_mask(self, mask):
            seen.append(mask)
            return super().value_mask(mask)

    Recording(exact, 0.0).value_masks(mask_rows([0b100000001, 0, 0b110], 9))
    assert seen == [0b100000001, 0, 0b110]


def _oracles(n=10):
    spec = random_waq(n, np.random.default_rng(3))
    exact = ExactOracle(spec)
    noisy = PersistentNoisyOracle(spec, NoiseSpec(ShiftedExponential(2.0)), 5)
    h = exact.ground.subset([0, 1, 2])
    surrogate = SampledSurrogateOracle(
        noisy, SurrogateConfig.draw(h, 1, 2, np.random.default_rng(0)))
    return exact, noisy, surrogate


@pytest.mark.parametrize("mask", [1 << 10, 1 << 12, (1 << 10) | 1, 1 << 40, 1 << 100, -1, -(1 << 70)])
def test_masks_outside_the_ground_set_are_rejected(mask):
    exact, noisy, surrogate = _oracles()
    calls = [exact.value_mask, noisy.value_mask, noisy.multiplier_mask, surrogate.value_mask,
             PerturbedOracle(exact, 0.1).value_mask]
    for call in calls:
        with pytest.raises(ValueError, match="ground set of size 10"):
            call(mask)


def test_masks_inside_the_ground_set_are_accepted():
    for oracle in _oracles():
        for mask in (0, 1, (1 << 10) - 1, 1 << 9):
            assert np.isfinite(oracle.value_mask(mask))


def _batch_calls(n=10):
    """`value_masks` of one oracle of each kind over n, the exact one also
    on a coverage function, whose batch is numpy, and the noisy oracle's
    `uniforms`."""
    exact, noisy, surrogate = _oracles(n)
    cover = ExactOracle(random_coverage(n, np.random.default_rng(4)))
    oracles = (exact, noisy, surrogate, cover, PerturbedOracle(exact, 0.0))
    return [oracle.value_masks for oracle in oracles] + [noisy.uniforms]


# Packed rows for n=10 are 2 bytes wide.
@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2,), (2, 3, 2), (0, 10)])
def test_row_matrices_of_the_wrong_shape_are_rejected(shape):
    rows = np.zeros(shape, dtype=np.uint8)
    for call in _batch_calls():
        with pytest.raises(ValueError, match="expected"):
            call(rows)
        call(np.zeros((2, 2), dtype=np.uint8))


# Boolean or 0/1 membership rows, one column per element, are not packed
# rows; neither is any other entry type.
@pytest.mark.parametrize("bad", [
    [[0.5] + [0] * 9],
    [[2] + [0] * 9],
    [[-1] + [0] * 9],
    np.zeros((2, 10)),
    np.eye(2, 10),
    np.full((1, 10), None),
    [["1"] + ["0"] * 9],
])
def test_row_matrices_with_values_other_than_0_and_1_are_rejected(bad):
    for call in _batch_calls():
        with pytest.raises(ValueError, match="expected uint8"):
            call(bad)


@pytest.mark.parametrize("n", [10, 16])
def test_rows_that_are_not_packed_uint8_rows_are_rejected(n):
    rng = np.random.default_rng(n)
    members = rng.random((4, n)) < 0.5
    width = (n + 7) // 8
    packed = pack_rows(members)
    bad = (members,                                  # boolean membership rows
           members.astype(np.uint8),                 # 0/1 bytes, n wide
           members.astype(np.int64),
           members.tolist(),
           packed[:, :-1],                           # one byte too narrow
           np.zeros((4, width + 1), dtype=np.uint8),  # one byte too wide
           packed.astype(np.int8),                   # the right bytes, another dtype
           packed.astype(np.uint16),
           packed.astype(np.int64),
           packed.tolist())
    for call in _batch_calls(n):
        for rows in bad:
            with pytest.raises(ValueError, match="expected uint8"):
                call(rows)
        call(packed)


def test_a_bit_outside_the_ground_set_in_the_last_byte_is_rejected():
    # n=10: bits 10..15 of the 2-byte rows lie outside the ground set
    n = 10
    for call in _batch_calls(n):
        for bit in range(n, 16):
            rows = mask_rows([0b11, (1 << n) - 1, 1 << bit, 5], 16)
            with pytest.raises(ValueError, match=f"mask {1 << bit:#x} is not a subset"):
                call(rows)
        call(mask_rows([0b11, (1 << n) - 1, 1 << (n - 1), 5], n))


@pytest.mark.parametrize("n", [10, 16])
def test_an_empty_batch_has_no_values(n):
    empty = mask_rows([], n)
    assert empty.shape == (0, (n + 7) // 8)
    for call in _batch_calls(n)[:-1]:
        assert call(empty).shape == (0,)
    u_open, u_half = _batch_calls(n)[-1](empty)
    assert u_open.shape == u_half.shape == (0,)


def test_exact_and_surrogate_batch_memory_stays_within_one_chunk():
    # over all 2^16 rows the exact batch keeps its family's chunk (228-276
    # KiB beyond the 512 KiB of values); the surrogate keeps its chunk of
    # unions and their values and its noisy inner oracle's chunk (275-421
    # KiB at m=4).  The noisy and family batches are bounded in
    # test_noise.py and test_setfn.py.
    rows = all_mask_rows(16)
    for spec in memory_families(16, np.random.default_rng(23)):
        exact = ExactOracle(spec)
        noisy = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.5)), 5)
        cfg = SurrogateConfig.draw(exact.ground.subset(range(6)), 2, 4, np.random.default_rng(1))
        for oracle in (exact, SampledSurrogateOracle(noisy, cfg)):
            assert peak_beyond_output(oracle.value_masks, rows) < CHUNK_PEAK, (
                type(spec).__name__, type(oracle).__name__)
