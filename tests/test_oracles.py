"""Value oracles: batch queries through `value_masks`, and the ground-set
check at the oracle boundary."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax.noise import NoiseSpec, PersistentNoisyOracle, ShiftedExponential
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.surrogate import SampledSurrogateOracle, SurrogateConfig

from reference import PerturbedOracle

FAMILIES = (random_waq, random_coverage, random_cut)


def hexes(values):
    return [float(v).hex() for v in values]


@given(st.integers(0, 2), st.integers(1, 100), st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_exact_batch_matches_the_default_loop(family, n, k, seed):
    rng = np.random.default_rng(seed)
    spec = FAMILIES[family](n, rng)
    rows = rng.random((k, n)) < rng.random()
    exact = ExactOracle(spec)
    batch = exact.value_masks(rows)
    # PerturbedOracle(..., 0.0) adds a zero to each value and keeps the
    # default one-call-per-row loop of ValueOracle
    assert hexes(batch) == hexes(PerturbedOracle(exact, 0.0).value_masks(rows))
    noisy = PersistentNoisyOracle(spec, NoiseSpec(ShiftedExponential(2.0)), seed)
    masks = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in rows]
    assert hexes(noisy.value_masks(rows)) == hexes(
        noisy.multiplier_mask(mask) * value for mask, value in zip(masks, batch))


def test_default_loop_queries_each_row_in_order():
    exact = ExactOracle(random_cut(9, np.random.default_rng(0)))
    seen = []

    class Recording(PerturbedOracle):
        def value_mask(self, mask):
            seen.append(mask)
            return super().value_mask(mask)

    rows = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1], [0] * 9, [0, 1, 1] + [0] * 6], dtype=bool)
    Recording(exact, 0.0).value_masks(rows)
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


def _all_oracles():
    """One oracle of each kind over n=10; the exact one on a coverage
    function, whose batch is numpy."""
    exact, noisy, surrogate = _oracles()
    cover = ExactOracle(random_coverage(10, np.random.default_rng(4)))
    return exact, noisy, surrogate, cover, PerturbedOracle(exact, 0.0)


@pytest.mark.parametrize("shape", [(3, 9), (3, 11), (10,), (2, 3, 10), (0, 11)])
def test_row_matrices_of_the_wrong_shape_are_rejected(shape):
    rows = np.zeros(shape, dtype=bool)
    for oracle in _all_oracles():
        with pytest.raises(ValueError, match="expected"):
            oracle.value_masks(rows)
        oracle.value_masks(np.zeros((2, 10), dtype=bool))


@pytest.mark.parametrize("bad", [
    [[0.5] + [0] * 9],                      # a fraction would be cast to True
    [[2] + [0] * 9],                        # so would any other non-zero integer
    [[-1] + [0] * 9],
    np.zeros((2, 10)),                      # floats, even if all are 0 or 1
    np.eye(2, 10),
    np.full((1, 10), None),
    [["1"] + ["0"] * 9],
])
def test_row_matrices_with_values_other_than_0_and_1_are_rejected(bad):
    for oracle in _all_oracles():
        with pytest.raises(ValueError, match="must be boolean"):
            oracle.value_masks(bad)


def test_integer_rows_of_0_and_1_equal_boolean_rows():
    rows = np.random.default_rng(8).random((6, 10)) < 0.5
    for oracle in _all_oracles():
        want = oracle.value_masks(rows)
        for ints in (rows.astype(np.int64), rows.astype(np.uint8), rows.astype(int).tolist()):
            assert hexes(oracle.value_masks(ints)) == hexes(want)
