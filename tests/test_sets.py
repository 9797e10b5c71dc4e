import numpy as np
import pytest
from hypothesis import given, strategies as st
from itertools import combinations
from math import comb

from noisysubmax.noise import Gaussian, NoiseSpec, PersistentNoisyOracle
from noisysubmax.random_instances import random_waq
from noisysubmax.setfn import evaluate
from noisysubmax.sets import (MULTILINEAR_BUDGET, ElementSet, GroundSet,
                              all_k_subset_masks, all_mask_rows, mask_members,
                              mask_rows, pack_rows, random_k_subset,
                              random_k_subset_mask, row_masks)

from reference import mask_members_by_low_bit


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    g = GroundSet(5)
    assert g.full_mask == 0b11111
    assert len(g.full_set()) == 5


def test_ground_set_size_must_be_an_integer():
    with pytest.raises(TypeError):
        GroundSet(2.5)
    n = GroundSet(np.int64(5)).n
    assert type(n) is int and n == 5


def test_subset_construction_and_bounds():
    g = GroundSet(4)
    s = g.subset([0, 2])
    assert s.mask == 0b101
    with pytest.raises(ValueError):
        g.subset([4])
    with pytest.raises(ValueError):
        ElementSet(g, 1 << 4)


# numpy integers enter through `operator.index`: numpy's own shifts wrap
# (`1 << np.int64(70)` is 0 and `1 << np.int64(63)` is negative)

@pytest.mark.parametrize("i", [63, 70])
def test_subset_of_a_numpy_element_at_or_past_bit_63(i):
    s = GroundSet(100).subset([np.int64(i)])
    assert s.mask == 1 << i and type(s.mask) is int and list(s) == [i]


def test_subset_of_a_numpy_draw_evaluates_and_queries():
    rng = np.random.default_rng(3)
    members = rng.choice(70, 5, replace=False)
    assert members.max() >= 64
    s = GroundSet(70).subset(members)
    assert type(s.mask) is int and list(s) == sorted(members.tolist())
    spec = random_waq(70, rng)
    oracle = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 7)
    want = GroundSet(70).subset(members.tolist())
    assert evaluate(spec, s) == evaluate(spec, want)
    assert oracle.value(s) == oracle.value(want)


def test_element_set_mask_is_an_int():
    s = ElementSet(GroundSet(8), np.uint8(5))
    assert type(s.mask) is int and list(s) == [0, 2]


def test_membership_iteration_order():
    g = GroundSet(8)
    s = g.subset([5, 1, 3])
    assert list(s) == [1, 3, 5]
    assert s.members() == (1, 3, 5)
    assert 3 in s and 0 not in s
    assert len(s) == 3


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_set_algebra_matches_bit_ops(a, b):
    g = GroundSet(10)
    sa, sb = ElementSet(g, a), ElementSet(g, b)
    assert sa.union(sb).mask == a | b
    assert sa.issubset(sb) == (a & ~b == 0)


def test_add_remove_indicator():
    g = GroundSet(6)
    s = g.subset([2, 4])
    x = s.indicator()
    assert x.tolist() == [0, 0, 1, 0, 1, 0]


def test_cross_ground_operations_rejected():
    a = ElementSet(GroundSet(4), 0b1)
    b = ElementSet(GroundSet(5), 0b1)
    with pytest.raises(ValueError):
        a.union(b)


def test_mask_members_roundtrip():
    assert mask_members(0) == []
    assert mask_members(0b101001) == [0, 3, 5]


@given(st.integers(0, 2**200))
def test_mask_members_equals_the_low_bit_loop(mask):
    for m in (mask, mask & 0xFF00FF00FF00FF, mask | 1 << 199, mask >> 64 << 64):
        assert mask_members(m) == mask_members_by_low_bit(m)


@given(st.integers(1, 8), st.integers(-1, 8))
def test_all_k_subset_masks_complete_and_distinct(n, k):
    members = list(range(n))
    masks = list(all_k_subset_masks(members, k))
    if not 0 <= k <= n:
        assert masks == []
    else:
        assert len(masks) == comb(n, k)
        assert len(set(masks)) == len(masks)
        assert all(m.bit_count() == k for m in masks)
        # lexicographic order of the member positions, as combinations yields
        assert masks == [sum(1 << i for i in combo) for combo in combinations(members, k)]


def test_random_k_subset_size_and_membership():
    rng = np.random.default_rng(0)
    g = GroundSet(12)
    s = g.subset([0, 2, 5, 7, 8, 11])
    for _ in range(50):
        sub = random_k_subset(s, 3, rng)
        assert len(sub) == 3 and sub.issubset(s)
    with pytest.raises(ValueError):
        random_k_subset_mask([0, 1], 3, rng)


def test_random_k_subset_rejects_negative_k():
    # numpy's "negative dimensions are not allowed" no longer leaks out
    with pytest.raises(ValueError, match="cannot draw a negative number"):
        random_k_subset_mask([0, 1], -1, np.random.default_rng(0))


def test_random_k_subset_of_full_set():
    full = GroundSet(6).full_set()
    rng = np.random.default_rng(14)
    assert len(random_k_subset(full, 0, rng)) == 0
    assert random_k_subset(full, 6, rng) == full
    assert len(random_k_subset(full, 3, rng)) == 3
    with pytest.raises(ValueError):
        random_k_subset(full, 7, rng)


def test_random_k_subset_uniform_frequencies():
    rng = np.random.default_rng(1)
    members = list(range(6))
    counts = {}
    draws = 20000
    for _ in range(draws):
        m = random_k_subset_mask(members, 3, rng)
        counts[m] = counts.get(m, 0) + 1
    expected = draws / comb(6, 3)
    sigma = np.sqrt(draws * (1 / 20) * (19 / 20))
    assert len(counts) == 20
    for c in counts.values():
        assert abs(c - expected) < 4 * sigma


def test_all_mask_rows_equals_mask_rows_of_every_mask():
    for n in range(1, 21):
        got = all_mask_rows(n)
        assert got.dtype == np.uint8 and got.shape == (1 << n, (n + 7) // 8)
        assert np.array_equal(got, mask_rows(range(1 << n), n))


def test_all_mask_rows_over_the_enumeration_budget_raises():
    with pytest.raises(ValueError, match="enumeration budget"):
        all_mask_rows(MULTILINEAR_BUDGET + 1)


def test_mask_rows_of_no_bytes():
    # a coverage with no items builds its incidence from rows of width 0
    assert mask_rows([0, 0], 0).shape == (2, 0)
    assert mask_rows([], 0).shape == (0, 0)


@given(st.integers(1, 200), st.lists(st.integers(0, 2**200 - 1), max_size=8))
def test_packed_rows_are_the_little_endian_bytes_of_the_masks(n, masks):
    masks = [mask & ((1 << n) - 1) for mask in masks]
    rows = mask_rows(masks, n)
    assert rows.dtype == np.uint8 and rows.shape == (len(masks), (n + 7) // 8)
    assert [row.tobytes() for row in rows] == [m.to_bytes((n + 7) // 8, "little") for m in masks]
    assert row_masks(rows) == masks
    # boolean membership rows pack to the same bytes
    members = np.array([[(m >> i) & 1 for i in range(n)] for m in masks], dtype=bool)
    assert np.array_equal(pack_rows(members.reshape(len(masks), n)), rows)


@pytest.mark.parametrize("mask", [1 << 6, (1 << 6) | 1, 1 << 70, -1, -(1 << 70)])
def test_element_set_rejects_a_mask_outside_its_ground_set(mask):
    with pytest.raises(ValueError, match="is not a subset of a ground set of size 6"):
        ElementSet(GroundSet(6), mask)
