"""Ground sets, canonical element subsets, and k-subset combinatorics.

Subsets are stored as integer bitmasks so that equality/hashing is O(1)
and the same bits can key the persistent noise streams.  A batch of k
masks over n elements is a (k, ceil(n/8)) uint8 matrix of packed rows:
row r is the little-endian bytes of mask r, the bytes the one-set path
reads.  This module alone converts and checks packed rows, bounds the
enumeration of all 2^n sets and sizes the chunks of a batch (`map_chunks`).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MULTILINEAR_BUDGET = 20  # the largest n whose 2^n sets `all_mask_rows` enumerates
CHUNK_BYTES = 1 << 17  # the transient bytes one chunk of a batch may take


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

    def check_same(self, other: "GroundSet", what: str, owner: str) -> None:
        """The one ground-set check: ValueError naming both sizes unless
        `other` (the ground set of `what`) has the size of this one (the
        ground set of `owner`)."""
        if other.n != self.n:
            raise ValueError(f"{what} over a ground set of size {other.n}, "
                             f"{owner} over size {self.n}")

    def subset(self, members) -> "ElementSet":
        mask = 0
        for i in map(operator.index, members):
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
        object.__setattr__(self, "mask", operator.index(self.mask))
        if self.mask >> self.ground.n:
            raise mask_error(self.mask, self.ground.n)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def __iter__(self):
        return iter(mask_members(self.mask))

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def union(self, other: "ElementSet") -> "ElementSet":
        self.ground.check_same(other.ground, "other set", "set")
        return ElementSet(self.ground, self.mask | other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self.ground.check_same(other.ground, "other set", "set")
        return self.mask & ~other.mask == 0

    def indicator(self) -> np.ndarray:
        x = np.zeros(self.ground.n)
        x[list(self)] = 1.0
        return x


def mask_error(mask: int, n: int) -> ValueError:
    """The error for a mask that is negative or has a bit at n or above.
    Callers test `mask >> n` inline, since it is on every query: it is
    nonzero exactly for such masks (a negative mask shifts to -1 or less)."""
    return ValueError(f"mask {mask:#x} is not a subset of a ground set of size {n}")


# The positions of the set bits of each byte value, from the low bit.
BYTE_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))


def mask_members(mask: int) -> list[int]:
    """The set bits of a mask in ascending order, read byte by byte
    through `BYTE_BITS`."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + bit for i, byte in enumerate(raw) if byte for bit in BYTE_BITS[byte]]


def all_k_subset_masks(members: list[int], k: int):
    """Yield the masks of all k-subsets of `members` in lexicographic rank
    order, the order of `itertools.combinations`; nothing for k < 0."""
    if k < 0:
        return
    for combo in combinations([1 << i for i in members], k):
        yield sum(combo)


def random_k_subset_mask(members: list[int], k: int, rng: np.random.Generator) -> int:
    if k < 0:
        raise ValueError(f"cannot draw a negative number of elements, got k={k}")
    if k > len(members):
        raise ValueError(f"cannot draw {k} elements from {len(members)}")
    mask = 0
    for i in rng.choice(len(members), size=k, replace=False):
        mask |= 1 << members[int(i)]
    return mask


def random_k_subset(s: ElementSet, k: int, rng: np.random.Generator) -> ElementSet:
    """Uniformly random k-subset of s."""
    return ElementSet(s.ground, random_k_subset_mask(list(s), k, rng))


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """The packed rows of boolean membership rows (entry [..., i] is true
    when element i is in the set), packed along the last axis."""
    return np.packbits(rows, axis=-1, bitorder="little")


def row_masks(rows: np.ndarray) -> list[int]:
    """The integer mask of each packed row."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def mask_rows(masks, n: int) -> np.ndarray:
    """The (k, ceil(n/8)) packed rows of k masks over n elements, read-only;
    the inverse of `row_masks`.  n may be 0 (rows of no bytes)."""
    width = (n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)


def check_rows(rows, n: int) -> np.ndarray:
    """Packed rows over n elements, or ValueError: the batch form of the
    one-set test `mask >> n`.  Any other dtype or width (boolean or 0/1
    membership rows included) is an error, as is a row with a bit at n or
    above, which can only sit in the last byte."""
    rows = np.asarray(rows)
    width = (n + 7) // 8
    if rows.dtype != np.uint8 or rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"rows of dtype {rows.dtype} and shape {rows.shape}, "
                         f"expected uint8 packed rows of shape (k, {width})")
    if n % 8 and np.any(rows[:, -1] >> n % 8):
        raise mask_error(max(row_masks(rows)), n)  # the largest mask is outside
    return rows


def all_mask_rows(n: int) -> np.ndarray:
    """`mask_rows(range(1 << n), n)`, the packed rows of every mask in mask
    order: the low bytes of one little-endian arange (n <= MULTILINEAR_BUDGET)."""
    if n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={n} over the enumeration budget {MULTILINEAR_BUDGET}")
    raw = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return raw[:, :(n + 7) // 8]


def map_chunks(fn, rows: np.ndarray, row_bytes: int) -> np.ndarray:
    """`fn(rows)`, one float64 per row, computed on `CHUNK_BYTES // row_bytes`
    rows (at least one) at a time into one array, `row_bytes` being what `fn`
    keeps per row; a row's value depends on that row alone."""
    step = max(1, CHUNK_BYTES // row_bytes)
    if len(rows) <= step:
        return fn(rows)
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        out[start: start + step] = fn(rows[start: start + step])
    return out
