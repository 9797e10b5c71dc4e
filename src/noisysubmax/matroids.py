"""Independence-oracle matroids: uniform, partition, and contraction.

Everything the meta-algorithm needs from the constraint: independence
queries, rank, an arbitrary basis, contraction by a pinned set, and the
classic greedy for max-weight independent sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .sets import ElementSet, GroundSet, mask_members, popcount_array


# Each matroid answers independence for one mask (`indep_mask`) and for an
# array of uint64 masks (`indep_masks`, n <= 63), and gives its rank, its
# capacity groups and its free elements.  `groups()` lists the tight
# constraint families as (group mask, capacity) pairs restricted to the free
# elements: a mask of free elements is independent iff it meets every group
# in at most its capacity.  Polytope checks and rounding rely on that.

@dataclass(frozen=True)
class UniformMatroid:
    """Independent iff |S| <= rank."""

    ground: GroundSet
    r: int

    def __post_init__(self):
        if not 0 <= self.r <= self.ground.n:
            raise ValueError(f"rank {self.r} outside [0, {self.ground.n}]")

    def indep_mask(self, mask: int) -> bool:
        return mask.bit_count() <= self.r

    def indep_masks(self, masks: np.ndarray) -> np.ndarray:
        return popcount_array(masks) <= self.r

    def rank(self) -> int:
        return self.r

    def groups(self) -> list[tuple[int, int]]:
        return [(self.ground.full_mask, self.r)]

    def free_elements(self) -> list[int]:
        return list(range(self.ground.n))


@dataclass(frozen=True)
class PartitionMatroid:
    """Independent iff |S ∩ part_p| <= cap_p for every part.

    Parts must partition the ground set.
    """

    ground: GroundSet
    parts: tuple[int, ...]  # bitmasks
    caps: tuple[int, ...]

    def __post_init__(self):
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

    def indep_mask(self, mask: int) -> bool:
        return all((mask & p).bit_count() <= c for p, c in zip(self.parts, self.caps))

    def indep_masks(self, masks: np.ndarray) -> np.ndarray:
        ok = np.ones(masks.shape, dtype=bool)
        for p, c in zip(self.parts, self.caps):
            ok &= popcount_array(masks & np.uint64(p)) <= c
        return ok

    def rank(self) -> int:
        return sum(self.caps)

    def groups(self) -> list[tuple[int, int]]:
        return list(zip(self.parts, self.caps))

    def free_elements(self) -> list[int]:
        return list(range(self.ground.n))


@dataclass(frozen=True)
class ContractedMatroid:
    """Contraction by a pinned independent set H:
    S independent iff S ∩ H = ∅ and S ∪ H independent in the base."""

    base: "Matroid"
    pinned: ElementSet

    def __post_init__(self):
        if not self.base.indep_mask(self.pinned.mask):
            raise ValueError("pinned set must be independent in the base matroid")

    @property
    def ground(self) -> GroundSet:
        return self.base.ground

    def indep_mask(self, mask: int) -> bool:
        h = self.pinned.mask
        return mask & h == 0 and self.base.indep_mask(mask | h)

    def indep_masks(self, masks: np.ndarray) -> np.ndarray:
        h = np.uint64(self.pinned.mask)
        return ((masks & h) == 0) & self.base.indep_masks(masks | h)

    def rank(self) -> int:
        return self.base.rank() - len(self.pinned)

    def groups(self) -> list[tuple[int, int]]:
        h = self.pinned.mask
        return [(g & ~h, c - (g & h).bit_count()) for g, c in self.base.groups()]

    def free_elements(self) -> list[int]:
        return mask_members(self.ground.full_mask & ~self.pinned.mask)


Matroid = Union[UniformMatroid, PartitionMatroid, ContractedMatroid]


def is_independent(m: Matroid, s: ElementSet) -> bool:
    if s.ground.n != m.ground.n:
        raise ValueError("set and matroid over different ground sets")
    return m.indep_mask(s.mask)


def independent_mask_array(m: Matroid, masks: np.ndarray) -> np.ndarray:
    """Vectorized independence over an array of masks (n <= 63)."""
    return m.indep_masks(masks.astype(np.uint64))


def rank(m: Matroid) -> int:
    """Common size of all maximal independent sets."""
    return m.rank()


def arbitrary_basis(m: Matroid) -> ElementSet:
    """Deterministic basis: greedy by ascending element id."""
    mask = 0
    for i in range(m.ground.n):
        cand = mask | (1 << i)
        if m.indep_mask(cand):
            mask = cand
    return ElementSet(m.ground, mask)


def max_weight_independent_set(m: Matroid, weights) -> ElementSet:
    """Matroid greedy: scan by descending weight (ties by id), add an
    element if it keeps independence and its weight is positive.

    Elements with weight <= 0 are never added; downward closure means
    dropping them cannot hurt the total.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m.ground.n,):
        raise ValueError(f"expected {m.ground.n} weights, got shape {weights.shape}")
    order = sorted(range(m.ground.n), key=lambda i: (-weights[i], i))
    mask = 0
    for i in order:
        if weights[i] <= 0:
            break
        cand = mask | (1 << i)
        if m.indep_mask(cand):
            mask = cand
    return ElementSet(m.ground, mask)


def contract(m: Matroid, pinned: ElementSet) -> ContractedMatroid:
    return ContractedMatroid(m, pinned)
