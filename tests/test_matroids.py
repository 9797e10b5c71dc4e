import numpy as np
import pytest

from noisysubmax.matroids import (ContractedMatroid, PartitionMatroid,
                                  UniformMatroid, arbitrary_basis, contract,
                                  is_independent, max_weight_independent_set)
from noisysubmax.sets import ElementSet, GroundSet


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
    masks = np.arange(1 << 7, dtype=np.uint64)
    pm = PartitionMatroid(g, parts=(0b0001111, 0b1110000), caps=(2, 1))
    for m in (UniformMatroid(g, 3), pm,
              contract(UniformMatroid(g, 4), g.subset([0, 5])),
              contract(pm, g.subset([1, 6]))):
        vec = m.indep_masks(masks)
        for mask in range(1 << 7):
            assert vec[mask] == is_independent(m, ElementSet(g, mask))


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
