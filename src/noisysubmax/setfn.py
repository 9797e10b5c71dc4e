"""Exact submodular set-function families and brute-force machinery.

All families evaluate in closed form.  For exhaustive work (brute-force
optimization, submodularity checks, the multilinear extension) we build a
dense value table over all 2^n subsets with numpy doubling tricks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .sets import ElementSet, GroundSet, mask_members, row_masks

SUBMODULARITY_BUDGET = 14
MULTILINEAR_BUDGET = 20
CHECK_TOL = 1e-9


def _byte_sum_tables(weights: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Per-byte lookup tables: table[b][chunk] = sum of weights of set bits,
    as Python floats (an np.float64 would change the repr of a value)."""
    padded = np.zeros(8 * ((len(weights) + 7) // 8))
    padded[:len(weights)] = weights
    return tuple(tuple(_weight_sum_table(padded[b: b + 8]).tolist())
                 for b in range(0, len(padded), 8))


def _mask_weight_sum(mask: int, tables) -> float:
    """Sum of the weights of the set bits, added byte by byte from the low
    byte.  A zero byte adds table[0] = 0.0, which leaves the total exact
    (the total starts at 0.0, so it is never -0.0)."""
    total = 0.0
    for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
        total += table[byte]
    return total


def _left_sum(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added left to right from 0.0 as a Python
    `total += v` loop adds them (np.sum adds pairwise, which can change the
    last bits).  The final `+ 0.0` turns the -0.0 that such a loop never
    returns into 0.0.  The running sums overwrite the float array `a`,
    which saves allocating a second array of its size."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.add.accumulate(a, axis=-1, out=a)[..., -1] + 0.0


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"ground set size must be >= 1, got {n}")


def _check_finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


def _weight_sum_table(weights) -> np.ndarray:
    """Sum of the weights of each of the 2^len(weights) subsets, indexed by mask."""
    wsum = np.zeros(1 << len(weights))
    for i, w in enumerate(weights):
        half = 1 << i
        wsum[half: 2 * half] = wsum[:half] + w
    return wsum


# Each family evaluates one mask in closed form (`value_mask`) and its dense
# table over all 2^n masks (`table`).  `Coverage` and `CutFunction` also
# evaluate a batch of masks given as the rows of a (k, n) boolean membership
# matrix (`value_masks`, bit for bit equal to `value_mask` of each row).
# Lookup tables and edge arrays are built on first use and kept on the
# instance.  Weights must be finite: a NaN weight would make every value NaN.

# A cut batch is evaluated in chunks of at most this many rows x edges, so
# its transient float matrix stays within 128 KiB whatever the batch size.
_CUT_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class WeightedAdditiveQuadratic:
    """f(S) = sum_{i in S} w_i - cost * |S|^2."""

    weights: tuple[float, ...]
    cost: float

    def __post_init__(self):
        _check_size(self.n)
        _check_finite("weights and cost", (*self.weights, self.cost))

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _tables(self):
        return _byte_sum_tables(self.weights)

    def value_mask(self, mask: int) -> float:
        k = mask.bit_count()
        return _mask_weight_sum(mask, self._tables) - self.cost * k * k

    def table(self) -> np.ndarray:
        k = np.bitwise_count(np.arange(1 << self.n, dtype=np.uint64)).astype(np.float64)
        return _weight_sum_table(self.weights) - self.cost * k * k


@dataclass(frozen=True)
class Coverage:
    """Weighted coverage: covers[i] is the bitmask of items element i covers."""

    covers: tuple[int, ...]
    item_weights: tuple[float, ...]

    def __post_init__(self):
        _check_size(self.n)
        for c in self.covers:
            if c < 0 or c >> len(self.item_weights):
                raise ValueError(f"cover {c:#x} names an item outside [0, {len(self.item_weights)})")
        _check_finite("item weights", self.item_weights)

    @property
    def n(self) -> int:
        return len(self.covers)

    @cached_property
    def _tables(self):
        return _byte_sum_tables(self.item_weights)

    def value_mask(self, mask: int) -> float:
        covered = 0
        covers = self.covers
        for i in mask_members(mask):
            covered |= covers[i]
        return _mask_weight_sum(covered, self._tables)

    @cached_property
    def _cover_tables(self) -> np.ndarray:
        """(element bytes, 256, item bytes) uint8: entry [b, c] holds the
        little-endian bytes of the items covered by the elements of byte b
        whose bits are set in c."""
        n, width = self.n, len(self._tables)
        covers = np.zeros((8 * ((n + 7) // 8), width), dtype=np.uint8)
        for i, c in enumerate(self.covers):
            covers[i] = np.frombuffer(c.to_bytes(width, "little"), dtype=np.uint8)
        out = np.zeros((len(covers) // 8, 256, width), dtype=np.uint8)
        for bit in range(8):
            half = 1 << bit
            out[:, half: 2 * half] = out[:, :half] | covers[bit::8, None]
        return out

    @cached_property
    def _item_tables(self) -> np.ndarray:
        """The item byte tables as one (item bytes, 256) array."""
        return np.array(self._tables).reshape(len(self._tables), 256)

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        # the covered items of each row, OR-ed byte by byte of the row, then
        # their weights added byte by byte from the low byte, as value_mask
        # does
        packed = np.packbits(rows, axis=1, bitorder="little")
        cover_tables = self._cover_tables
        covered = cover_tables[0][packed[:, 0]]
        for byte in range(1, packed.shape[1]):
            covered |= cover_tables[byte][packed[:, byte]]
        item_tables = self._item_tables
        return _left_sum(item_tables[np.arange(len(item_tables)), covered])

    def table(self) -> np.ndarray:
        covered = np.zeros(1 << self.n, dtype=np.uint64)
        for i, c in enumerate(self.covers):
            half = 1 << i
            covered[half: 2 * half] = covered[:half] | np.uint64(c)
        return _weight_sum_table(self.item_weights)[covered]


@dataclass(frozen=True)
class CutFunction:
    """Weighted undirected graph cut: f(S) = sum of edge weights crossing S."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        _check_size(self.n_vertices)
        for u, v, _ in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) outside [0, {self.n_vertices})")
        _check_finite("edge weights", (w for _, _, w in self.edges))

    @property
    def n(self) -> int:
        return self.n_vertices

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoints and weights of the edges, in edge order."""
        return (np.array([u for u, _, _ in self.edges], dtype=np.intp),
                np.array([v for _, v, _ in self.edges], dtype=np.intp),
                np.array([w for _, _, w in self.edges], dtype=np.float64))

    def value_mask(self, mask: int) -> float:
        # the crossing weights summed in edge order, as a loop over the
        # edges would; `+ 0.0` maps a -0.0 total to 0.0, as in _left_sum
        u, v, w = self._edge_arrays
        raw = np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=self.n, bitorder="little")
        crossing = w[bits[u] != bits[v]]
        if crossing.size == 0:
            return 0.0
        return float(np.add.accumulate(crossing)[-1]) + 0.0

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        # endpoint rows gathered from a transposed (n, k) chunk give an
        # (edges, k) crossing matrix; its transpose sums in edge order per
        # row.  With finite weights, crossing * w equals
        # np.where(crossing, w, 0.0) up to the sign of a zero, which the
        # sum's `+ 0.0` drops
        u, v, w = self._edge_arrays
        w = w[:, None]
        step = max(1, _CUT_CHUNK_CELLS // max(1, len(w)))
        sums = []
        for chunk in np.split(rows, range(step, len(rows), step)):
            by_vertex = np.ascontiguousarray(chunk.T)
            sums.append(_left_sum(((by_vertex[u] != by_vertex[v]) * w).T))
        return np.concatenate(sums)

    def table(self) -> np.ndarray:
        masks = np.arange(1 << self.n, dtype=np.uint64)
        total = np.zeros(1 << self.n)
        for u, v, w in self.edges:
            cross = ((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & np.uint64(1)
            total += w * cross.astype(np.float64)
        return total


@dataclass(frozen=True)
class Modular:
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_size(self.n)
        _check_finite("weights", self.weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _tables(self):
        return _byte_sum_tables(self.weights)

    def value_mask(self, mask: int) -> float:
        return _mask_weight_sum(mask, self._tables)

    def table(self) -> np.ndarray:
        return _weight_sum_table(self.weights)


SetFunctionSpec = Union[WeightedAdditiveQuadratic, Coverage, CutFunction, Modular]


def evaluate_mask(spec: SetFunctionSpec, mask: int) -> float:
    """Closed-form value of the subset given by `mask`."""
    return spec.value_mask(mask)


def evaluate_masks(spec: SetFunctionSpec, rows: np.ndarray) -> np.ndarray:
    """Values of the sets given by the rows of a checked (k, n) boolean
    membership matrix: the family's numpy batch where it has one, else one
    `evaluate_mask` per row, in row order."""
    batch = getattr(spec, "value_masks", None)
    if batch is not None:
        return batch(rows)
    return np.array([evaluate_mask(spec, mask) for mask in row_masks(rows)],
                    dtype=np.float64)


def evaluate(spec: SetFunctionSpec, s: ElementSet) -> float:
    if s.ground.n != spec.n:
        raise ValueError(f"set over ground of size {s.ground.n}, spec has n={spec.n}")
    return evaluate_mask(spec, s.mask)


def value_table(spec: SetFunctionSpec) -> np.ndarray:
    """Dense table of f over all 2^n subsets, indexed by mask."""
    if spec.n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={spec.n} over the enumeration budget {MULTILINEAR_BUDGET}")
    return spec.table()


def brute_force_opt(spec: SetFunctionSpec, feasible=None) -> tuple[ElementSet, float]:
    """Exhaustive optimum over all feasible subsets.

    `feasible` is a matroid (or None for unconstrained).  Ties broken by
    the smallest mask, so the result is a deterministic test oracle.
    """
    values = value_table(spec)
    if feasible is not None:
        ok = feasible.indep_masks(np.arange(1 << spec.n, dtype=np.uint64))
        values = np.where(ok, values, -np.inf)
    best_mask = int(np.argmax(values))  # argmax returns the lowest mask on ties
    return ElementSet(GroundSet(spec.n), best_mask), float(values[best_mask])


def check_submodular(spec: SetFunctionSpec, tol: float = CHECK_TOL) -> bool:
    """Exhaustive diminishing-returns check.

    Uses the equivalent local condition f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    for all S and i != j outside S, which holds iff the full A-subset-of-B
    inequality does (tests verify this equivalence against the direct
    triple enumeration).
    """
    if spec.n > SUBMODULARITY_BUDGET:
        raise ValueError(f"n={spec.n} over the submodularity check budget {SUBMODULARITY_BUDGET}")
    return table_is_submodular(value_table(spec), tol)


def table_is_submodular(table: np.ndarray, tol: float = CHECK_TOL) -> bool:
    """Pairwise local submodularity condition over a dense value table."""
    n = (len(table) - 1).bit_length()
    masks = np.arange(1 << n, dtype=np.int64)
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            base = masks[(masks & (bi | bj)) == 0]
            lhs = table[base | bi] + table[base | bj]
            rhs = table[base | bi | bj] + table[base]
            if np.any(lhs - rhs < -tol):
                return False
    return True


def _inclusion_probs(x: np.ndarray) -> np.ndarray:
    """Product-distribution probabilities over all masks for marginals x."""
    probs = np.ones(1)
    for xi in x:
        probs = np.concatenate([probs * (1.0 - xi), probs * xi])
    return probs


def _check_point(x: np.ndarray, n: int):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"point of shape {x.shape}, expected ({n},)")
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):
        raise ValueError("fractional point has coordinates that are NaN or outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def multilinear_exact(spec: SetFunctionSpec, x: np.ndarray) -> float:
    """Exact multilinear extension: expectation of f under independent
    inclusion with probabilities x."""
    table = value_table(spec)
    return float(_inclusion_probs(_check_point(x, spec.n)) @ table)
