"""Ground sets, canonical element subsets, and k-subset combinatorics.

Subsets are stored as integer bitmasks so that equality/hashing is O(1)
and the same bits can key the persistent noise streams.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True, slots=True)
class GroundSet:
    """Ground set of n elements, identified by the dense ids 0..n-1."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"ground set size must be >= 1, got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def full_set(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def subset(self, members) -> "ElementSet":
        mask = 0
        for i in members:
            if not 0 <= i < self.n:
                raise ValueError(f"element {i} outside ground set of size {self.n}")
            mask |= 1 << i
        return ElementSet(self, mask)


@dataclass(frozen=True, slots=True)
class ElementSet:
    """Canonical subset of a ground set, stored as a bitmask.

    Two ElementSets over the same ground set are equal iff their masks are
    identical; this canonical form is what the persistent noise keys on.
    """

    ground: GroundSet
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.ground.n:
            raise ValueError("mask has bits outside the ground set")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def __iter__(self):
        return iter(mask_members(self.mask))

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def union(self, other: "ElementSet") -> "ElementSet":
        self._check_same_ground(other)
        return ElementSet(self.ground, self.mask | other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self._check_same_ground(other)
        return self.mask & ~other.mask == 0

    def indicator(self) -> np.ndarray:
        x = np.zeros(self.ground.n)
        x[list(self)] = 1.0
        return x

    def _check_same_ground(self, other: "ElementSet"):
        if self.ground.n != other.ground.n:
            raise ValueError("element sets over different ground sets")


def mask_members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def all_k_subset_masks(members: list[int], k: int):
    """Yield the masks of all k-subsets of `members` in lexicographic rank order."""
    n = len(members)
    if k < 0 or k > n:
        return
    idx = list(range(k))
    while True:
        mask = 0
        for j in idx:
            mask |= 1 << members[j]
        yield mask
        # advance the combination in lexicographic order
        for pos in reversed(range(k)):
            if idx[pos] != pos + n - k:
                break
        else:
            return
        idx[pos] += 1
        for later in range(pos + 1, k):
            idx[later] = idx[later - 1] + 1


def unrank_k_subset_mask(rank: int, members: list[int], k: int) -> int:
    """Mask of the rank-th k-subset of `members` in lexicographic order."""
    n = len(members)
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    mask = 0
    pos = 0
    for slot in range(k):
        while True:
            below = comb(n - pos - 1, k - slot - 1)
            if rank < below:
                break
            rank -= below
            pos += 1
        mask |= 1 << members[pos]
        pos += 1
    return mask


def random_k_subset_mask(members: list[int], k: int, rng: np.random.Generator) -> int:
    if k > len(members):
        raise ValueError(f"cannot draw {k} elements from {len(members)}")
    mask = 0
    for i in rng.choice(len(members), size=k, replace=False):
        mask |= 1 << members[int(i)]
    return mask


def random_k_subset(s: ElementSet, k: int, rng: np.random.Generator) -> ElementSet:
    """Uniformly random k-subset of s."""
    return ElementSet(s.ground, random_k_subset_mask(list(s), k, rng))


def row_masks(rows: np.ndarray) -> list[int]:
    """The integer mask of each row of a (k, n) boolean membership matrix."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def mask_rows(masks, n: int) -> np.ndarray:
    """The (k, n) boolean membership matrix of k masks over n elements;
    the inverse of `row_masks`."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks),
                        dtype=np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=1, count=n,
                         bitorder="little").view(bool)
