import numpy as np
import pytest
from hypothesis import given, strategies as st
from itertools import combinations
from math import comb

from noisysubmax.sets import (ElementSet, GroundSet, all_k_subset_masks,
                              mask_members, random_k_subset,
                              random_k_subset_mask, unrank_k_subset_mask)


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


@given(st.integers(1, 8), st.integers(0, 8))
def test_all_k_subset_masks_complete_and_distinct(n, k):
    members = list(range(n))
    masks = list(all_k_subset_masks(members, k))
    if k > n:
        assert masks == []
    else:
        assert len(masks) == comb(n, k)
        assert len(set(masks)) == len(masks)
        assert all(m.bit_count() == k for m in masks)
        # lexicographic order of the member positions, as combinations yields
        assert masks == [sum(1 << i for i in combo) for combo in combinations(members, k)]


def test_unrank_matches_enumeration_order():
    members = [1, 3, 4, 6, 9]
    for k in range(len(members) + 1):
        enumerated = list(all_k_subset_masks(members, k))
        for r, mask in enumerate(enumerated):
            assert unrank_k_subset_mask(r, members, k) == mask
    with pytest.raises(ValueError):
        unrank_k_subset_mask(comb(5, 2), members, 2)


def test_random_k_subset_size_and_membership():
    rng = np.random.default_rng(0)
    g = GroundSet(12)
    s = g.subset([0, 2, 5, 7, 8, 11])
    for _ in range(50):
        sub = random_k_subset(s, 3, rng)
        assert len(sub) == 3 and sub.issubset(s)
    with pytest.raises(ValueError):
        random_k_subset_mask([0, 1], 3, rng)


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
