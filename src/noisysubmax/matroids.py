"""Independence-oracle matroids: uniform, partition, and contraction.

Everything the meta-algorithm needs from the constraint: independence
queries, rank, an arbitrary basis, contraction by a pinned set, and the
classic greedy for max-weight independent sets.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sets import ElementSet, GroundSet, mask_members


# Every matroid here is a partition matroid on its free elements.  `groups()`
# lists its capacity groups as (group mask, capacity) pairs: disjoint masks
# whose union is the set of free elements.  A mask is independent iff it has
# no bit outside the free elements and meets every group in at most its
# capacity.  A new class defines only its fields, its validation and
# `groups()`; the base class derives independence (for one mask and for an
# int64 or uint64 mask array, n <= 63), the elements an independent mask can
# take, the greedy scan, rank and the free elements from them.

class Matroid:
    """Base class: independence, rank and free elements from `groups()`."""

    ground: GroundSet

    def groups(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    @cached_property
    def _groups(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.groups())

    @cached_property
    def free_mask(self) -> int:
        """Union of the group masks: the elements an independent set may hold."""
        free = 0
        for g, _ in self._groups:
            free |= g
        return free

    def indep_mask(self, mask: int) -> bool:
        if mask & ~self.free_mask:
            return False
        for g, c in self._groups:
            if (mask & g).bit_count() > c:
                return False
        return True

    def addable_mask(self, mask: int) -> int:
        """The elements whose addition keeps the independent `mask`
        independent: the union of the groups with room left, minus `mask`."""
        room = 0
        for g, c in self._groups:
            if (mask & g).bit_count() < c:
                room |= g
        return room & ~mask

    @cached_property
    def _group_of(self) -> tuple[int, ...]:
        """The index in `_groups` of each free element's group (0 for an
        element outside every group, which no scan keeps)."""
        index = [0] * self.ground.n
        for gi, (g, _) in enumerate(self._groups):
            for i in mask_members(g):
                index[i] = gi
        return tuple(index)

    def greedy_mask(self, order, limit: int | None = None) -> int:
        """The matroid greedy scan: visit the elements of `order` and keep
        each one that leaves the kept mask independent, until `limit` are
        kept (no limit when None).  `room` is `addable_mask` of the kept
        mask, kept up to date: a kept element leaves it, and so does its
        group once the group is full."""
        group_of, left = self._group_of, [c for _, c in self._groups]
        mask = kept = 0
        room = self.addable_mask(mask)
        for i in order:
            if kept == limit:
                break
            if room >> i & 1:
                bit = 1 << i
                mask |= bit
                room ^= bit
                kept += 1
                gi = group_of[i]
                left[gi] -= 1
                if not left[gi]:
                    room &= ~self._groups[gi][0]
        return mask

    def indep_masks(self, masks: np.ndarray) -> np.ndarray:
        ok = (masks & self.free_mask) == masks
        for g, c in self._groups:
            ok &= np.bitwise_count(masks & g) <= c
        return ok

    def rank(self) -> int:
        """Common size of all maximal independent sets."""
        return sum(c for _, c in self._groups)

    def free_elements(self) -> list[int]:
        return mask_members(self.free_mask)


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """Independent iff |S| <= rank."""

    ground: GroundSet
    r: int

    def __post_init__(self):
        object.__setattr__(self, "r", operator.index(self.r))
        if not 0 <= self.r <= self.ground.n:
            raise ValueError(f"rank {self.r} outside [0, {self.ground.n}]")

    def groups(self) -> list[tuple[int, int]]:
        return [(self.ground.full_mask, self.r)]


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Independent iff |S ∩ part_p| <= cap_p for every part.

    Parts must partition the ground set.
    """

    ground: GroundSet
    parts: tuple[int, ...]  # bitmasks
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(operator.index(p) for p in self.parts))
        object.__setattr__(self, "caps", tuple(operator.index(c) for c in self.caps))
        if len(self.parts) != len(self.caps):
            raise ValueError("parts and caps length mismatch")
        union = 0
        for p in self.parts:
            if union & p:
                raise ValueError("parts overlap")
            union |= p
        if union != self.ground.full_mask:
            raise ValueError("parts do not cover the ground set")
        for p, c in zip(self.parts, self.caps):
            if not 0 <= c <= p.bit_count():
                raise ValueError(f"cap {c} invalid for part of size {p.bit_count()}")

    def groups(self) -> list[tuple[int, int]]:
        return list(zip(self.parts, self.caps))


@dataclass(frozen=True)
class ContractedMatroid(Matroid):
    """Contraction by a pinned independent set H:
    S independent iff S ∩ H = ∅ and S ∪ H independent in the base."""

    base: Matroid
    pinned: ElementSet

    def __post_init__(self):
        self.base.ground.check_same(self.pinned.ground, "pinned set", "base matroid")
        if not self.base.indep_mask(self.pinned.mask):
            raise ValueError("pinned set must be independent in the base matroid")

    @property
    def ground(self) -> GroundSet:
        return self.base.ground

    def groups(self) -> list[tuple[int, int]]:
        h = self.pinned.mask
        return [(g & ~h, c - (g & h).bit_count()) for g, c in self.base._groups]


def is_independent(m: Matroid, s: ElementSet) -> bool:
    m.ground.check_same(s.ground, "set", "matroid")
    return m.indep_mask(s.mask)


def arbitrary_basis(m: Matroid) -> ElementSet:
    """Deterministic basis: greedy by ascending element id."""
    return ElementSet(m.ground, m.greedy_mask(range(m.ground.n)))


def max_weight_independent_set(m: Matroid, weights) -> ElementSet:
    """Matroid greedy: scan by descending weight (ties by id), add an
    element if it keeps independence and its weight is positive.

    Elements with weight <= 0 are never added; downward closure means
    dropping them cannot hurt the total.  A NaN or infinite weight has no
    place in that order and raises ValueError.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m.ground.n,):
        raise ValueError(f"expected {m.ground.n} weights, got shape {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    # a stable sort of the negated weights breaks ties by id; the positive
    # weights come first
    order = np.argsort(-weights, kind="stable")[:np.count_nonzero(weights > 0)]
    return ElementSet(m.ground, m.greedy_mask(order.tolist()))


def contract(m: Matroid, pinned: ElementSet) -> ContractedMatroid:
    return ContractedMatroid(m, pinned)
