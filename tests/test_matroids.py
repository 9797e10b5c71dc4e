import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax.matroids import (ContractedMatroid, PartitionMatroid,
                                  UniformMatroid, arbitrary_basis, contract,
                                  is_independent, max_weight_independent_set)
from noisysubmax.oracles import ExactOracle
from noisysubmax.setfn import Modular
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.solvers import RandomSubset

from reference import (addable_mask_by_probes, arbitrary_basis_by_probes, max_weight_by_probes,
                       random_subset_by_probes)


def test_uniform_matroid():
    g = GroundSet(5)
    m = UniformMatroid(g, 2)
    assert is_independent(m, g.subset([0, 3]))
    assert not is_independent(m, g.subset([0, 1, 3]))
    assert m.rank() == 2
    with pytest.raises(ValueError):
        UniformMatroid(g, 6)


def test_partition_matroid():
    g = GroundSet(6)
    m = PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(1, 2))
    assert is_independent(m, g.subset([0, 3, 5]))
    assert not is_independent(m, g.subset([0, 1]))
    assert m.rank() == 3
    with pytest.raises(ValueError):  # overlap
        PartitionMatroid(g, parts=(0b000111, 0b001100), caps=(1, 1))
    with pytest.raises(ValueError):  # not covering
        PartitionMatroid(g, parts=(0b000111,), caps=(1,))
    with pytest.raises(ValueError):  # cap too large
        PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(4, 1))


def test_rank_and_caps_must_be_integers():
    g = GroundSet(4)
    with pytest.raises(TypeError):
        UniformMatroid(g, 2.5)
    with pytest.raises(TypeError):
        PartitionMatroid(g, parts=(0b0011, 0b1100), caps=(1, 1.0))
    assert type(UniformMatroid(g, np.int64(2)).r) is int
    caps = PartitionMatroid(g, parts=(0b0011, 0b1100), caps=[np.int64(1), 2]).caps
    assert caps == (1, 2) and all(type(c) is int for c in caps)


def test_partition_parts_take_numpy_integers_as_ints():
    # 70 elements: a uint64 part ORed with a part past bit 63 overflowed
    g = GroundSet(70)
    low = np.uint64((1 << 64) - 1)
    m = PartitionMatroid(g, parts=(low, g.full_mask ^ int(low)), caps=(2, 1))
    assert all(type(p) is int for p in m.parts)
    assert is_independent(m, g.subset([0, 63, 69]))
    assert not is_independent(m, g.subset([64, 69]))


def test_contracted_matroid():
    g = GroundSet(6)
    base = UniformMatroid(g, 3)
    pinned = g.subset([1, 4])
    m = contract(base, pinned)
    assert m.rank() == 1
    assert is_independent(m, g.subset([0]))
    assert not is_independent(m, g.subset([1]))  # intersects pinned
    assert not is_independent(m, g.subset([0, 2]))  # pinned + 2 > 3
    assert sorted(m.free_elements()) == [0, 2, 3, 5]
    with pytest.raises(ValueError):  # pinned dependent in base
        ContractedMatroid(UniformMatroid(g, 1), pinned)


def test_contraction_rejects_a_pinned_set_over_another_ground_set():
    with pytest.raises(ValueError, match="pinned set over a ground set of size 10, base matroid over size 3"):
        ContractedMatroid(UniformMatroid(GroundSet(3), 2), ElementSet(GroundSet(10), 1))


def test_downward_closure_exhaustive():
    g = GroundSet(6)
    matroids = [
        UniformMatroid(g, 3),
        PartitionMatroid(g, parts=(0b000011, 0b111100), caps=(1, 2)),
        contract(UniformMatroid(g, 4), g.subset([2])),
    ]
    for m in matroids:
        for mask in range(1 << 6):
            if is_independent(m, ElementSet(g, mask)):
                sub = mask
                while sub:
                    sub = (sub - 1) & mask
                    assert is_independent(m, ElementSet(g, sub))


def test_indep_masks_matches_scalar():
    g = GroundSet(7)
    pm = PartitionMatroid(g, parts=(0b0001111, 0b1110000), caps=(2, 1))
    small = (UniformMatroid(g, 3), pm, contract(UniformMatroid(g, 4), g.subset([0, 5])),
             contract(pm, g.subset([1, 6])))
    # n = 63, the widest ground set an int64 mask holds
    wide = GroundSet(63)
    top = wide.full_mask
    wide_pm = PartitionMatroid(wide, parts=(0xFF, top & ~0xFF), caps=(2, 54))
    probe = [0, 1 << 62, top, top & ~0x3, top & ~0xFF, top >> 1 & ~0xFF,
             top >> 1 & ~0xFC, top >> 1 & ~0xF8, 0x3 | 1 << 62]
    for dtype in (np.int64, np.uint64):
        masks = np.arange(1 << 7, dtype=dtype)
        for m in small:
            vec = m.indep_masks(masks)
            for mask in range(1 << 7):
                assert vec[mask] == is_independent(m, ElementSet(g, mask))
        for m in (UniformMatroid(wide, 61), wide_pm, contract(wide_pm, wide.subset([0, 62]))):
            vec = m.indep_masks(np.array(probe, dtype=dtype))
            assert vec.tolist() == [is_independent(m, ElementSet(wide, mask)) for mask in probe]


def test_arbitrary_basis_is_maximal():
    g = GroundSet(6)
    for m in (UniformMatroid(g, 4),
              PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(2, 1)),
              contract(UniformMatroid(g, 3), g.subset([4]))):
        b = arbitrary_basis(m)
        assert is_independent(m, b)
        assert len(b) == m.rank()
        for i in range(6):
            if i not in b:
                assert not is_independent(m, ElementSet(g, b.mask | 1 << i))


def test_max_weight_independent_set():
    g = GroundSet(5)
    m = UniformMatroid(g, 2)
    s = max_weight_independent_set(m, [1.0, 5.0, 3.0, -2.0, 0.0])
    assert sorted(s) == [1, 2]
    # nonpositive weights never added
    s = max_weight_independent_set(m, [-1.0, 0.0, -3.0, 0.0, -1.0])
    assert len(s) == 0
    # partition caps respected
    pm = PartitionMatroid(g, parts=(0b00011, 0b11100), caps=(1, 1))
    s = max_weight_independent_set(pm, [4.0, 3.0, 2.0, 9.0, 1.0])
    assert sorted(s) == [0, 3]
    with pytest.raises(ValueError):
        max_weight_independent_set(m, [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_weight_independent_set_rejects_non_finite_weights(bad):
    # a NaN compares false both ways, so no descending order places it
    m = UniformMatroid(GroundSet(3), 1)
    for weights in ([bad, 1.0, 0.5], [1.0, 0.5, bad]):
        with pytest.raises(ValueError, match="finite"):
            max_weight_independent_set(m, weights)


def test_group_capacities():
    g = GroundSet(6)
    assert UniformMatroid(g, 4).groups() == [(0b111111, 4)]
    pm = PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(2, 1))
    assert pm.groups() == [(0b000111, 2), (0b111000, 1)]
    cm = contract(pm, g.subset([0]))
    assert cm.groups() == [(0b000110, 1), (0b111000, 1)]


def test_groups_agree_with_indep_mask():
    # pipage_round rounds within groups() and relies on this agreement
    g = GroundSet(7)
    um = UniformMatroid(g, 3)
    pm = PartitionMatroid(g, parts=(0b0001111, 0b1110000), caps=(2, 1))
    for m in (um, pm, contract(um, g.subset([1, 4])), contract(pm, g.subset([0, 6]))):
        free = g.subset(m.free_elements()).mask
        for mask in range(1 << 7):
            if mask & ~free:
                continue
            want = all((mask & group).bit_count() <= cap for group, cap in m.groups())
            assert m.indep_mask(mask) == want


def test_nested_contraction_equals_single_contraction():
    # the 12-element partition matroid of the golden tests
    g = GroundSet(12)
    pm = PartitionMatroid(g, parts=(0x00F, 0x0F0, 0xF00), caps=(2, 1, 2))
    nested = contract(contract(pm, g.subset([0, 5])), g.subset([1, 8]))
    single = contract(pm, g.subset([0, 1, 5, 8]))
    assert nested.free_elements() == single.free_elements()
    assert nested.rank() == single.rank() == 1
    for mask in range(1 << 12):
        assert nested.indep_mask(mask) == single.indep_mask(mask)


def test_ground_mismatch_rejected():
    m = UniformMatroid(GroundSet(5), 2)
    with pytest.raises(ValueError):
        is_independent(m, ElementSet(GroundSet(6), 0b1))


@st.composite
def matroids(draw):
    """A uniform, partition or (nested) contracted matroid on up to 70
    elements, so that masks can span two 64-bit words."""
    n = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    g = GroundSet(n)
    labels = rng.integers(draw(st.integers(1, 6)), size=n)
    parts = tuple(sum(1 << int(i) for i in np.flatnonzero(labels == p))
                  for p in np.unique(labels))
    caps = tuple(int(rng.integers(p.bit_count() + 1)) for p in parts)
    m = draw(st.sampled_from([UniformMatroid(g, int(rng.integers(n + 1))),
                              PartitionMatroid(g, parts, caps)]))
    for _ in range(draw(st.integers(0, 2))):
        pinned = 0
        for i in rng.permutation(n):
            if rng.random() < 0.3 and m.indep_mask(pinned | 1 << int(i)):
                pinned |= 1 << int(i)
        m = contract(m, ElementSet(g, pinned))
    return m, rng


@given(matroids())
@settings(max_examples=150, deadline=None)
def test_addable_mask_equals_per_element_probes(case):
    m, rng = case
    # random independent masks, from empty to a basis
    masks = [0, arbitrary_basis(m).mask]
    for p in (0.2, 0.5, 0.9):
        mask = 0
        for i in rng.permutation(m.ground.n):
            if rng.random() < p and m.indep_mask(mask | 1 << int(i)):
                mask |= 1 << int(i)
        masks.append(mask)
    for mask in masks:
        assert m.addable_mask(mask) == addable_mask_by_probes(m, mask)
    assert arbitrary_basis(m).mask == arbitrary_basis_by_probes(m)
    weights = rng.normal(size=m.ground.n)
    weights[rng.random(m.ground.n) < 0.2] = 0.0
    assert max_weight_independent_set(m, weights).mask == max_weight_by_probes(m, weights)


@given(matroids(), st.integers(0, 72), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_random_subset_equals_random_order_probes(case, size, seed):
    m, _ = case
    oracle = ExactOracle(Modular((1.0,) * m.ground.n))
    rng = np.random.default_rng(seed)
    got = RandomSubset(size).solve(oracle, m, rng)
    want_rng = np.random.default_rng(seed)
    assert got.mask == random_subset_by_probes(m, size, want_rng)
    # the same permutation draw, so both leave the stream in one state
    assert rng.random() == want_rng.random()
    assert m.indep_mask(got.mask) and len(got) == min(size, m.rank())
