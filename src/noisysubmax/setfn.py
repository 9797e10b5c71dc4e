"""Exact submodular set-function families and brute-force machinery.

All families evaluate in closed form.  For exhaustive work (brute-force
optimization, submodularity checks, the multilinear extension) we build a
dense value table over all 2^n subsets in numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .sets import BYTE_BITS, ElementSet, GroundSet, all_mask_rows, mask_members

SUBMODULARITY_BUDGET = 14
MULTILINEAR_BUDGET = 20
CHECK_TOL = 1e-9
WAQ_WEIGHT_HIGH = 20.0  # random WAQ weights are drawn from Uniform[0, WAQ_WEIGHT_HIGH]


def waq_cost(n: int) -> float:
    """The quadratic cost of a random WAQ over n elements: the full ground
    set has expected value 0 under weights drawn from [0, WAQ_WEIGHT_HIGH]."""
    return (WAQ_WEIGHT_HIGH / 2.0) / n


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


class _ByteTables:
    """The one summation order of the weights of a mask's set bits (WAQ,
    `Modular`, `Coverage`'s covered items): tables[b][chunk] sums the weights
    of byte b's set bits in chunk from the low bit, as Python floats (an
    np.float64 would change the repr of a value), added from the low byte."""

    def __init__(self, weights: tuple[float, ...]):
        padded = np.zeros(8 * ((len(weights) + 7) // 8))
        padded[:len(weights)] = weights
        self.tables = tuple(tuple(_weight_sum_table(padded[b: b + 8]).tolist())
                            for b in range(0, len(padded), 8))

    def sum_mask(self, mask: int) -> float:
        """The sum of one mask.  A zero byte adds table[0] = 0.0, which
        leaves the total exact (it starts at 0.0, so it is never -0.0)."""
        total = 0.0
        tables = self.tables
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            total += table[byte]
        return total

    @cached_property
    def _array(self) -> np.ndarray:
        return np.array(self.tables).reshape(-1, 256)

    def sum_rows(self, packed: np.ndarray) -> np.ndarray:
        """The sums of the masks given as (k, bytes) uint8 rows of their
        little-endian bytes, each bit for bit equal to `sum_mask`."""
        return _left_sum(self._array[np.arange(len(self.tables)), packed])


# Each family evaluates one mask in closed form (`value_mask`) and a batch of
# masks given as the rows of a (k, n) boolean membership matrix
# (`value_masks`, bit for bit equal to `value_mask` of each row); its dense
# table is the batch over all 2^n rows.  Lookup tables and edge arrays are
# built on first use and kept on the instance.  Weights must be finite: a
# NaN weight would make every value NaN.

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
    def _tables(self) -> _ByteTables:
        return _ByteTables(self.weights)

    def value_mask(self, mask: int) -> float:
        k = mask.bit_count()
        return self._tables.sum_mask(mask) - self.cost * k * k

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        k = np.count_nonzero(rows, axis=1)
        packed = np.packbits(rows, axis=1, bitorder="little")
        return self._tables.sum_rows(packed) - self.cost * k * k


def nonnegative_certified(weights: np.ndarray, cost: float) -> bool:
    """True iff sum_{i in S} w_i - cost|S|^2 >= 0 for every subset,
    via the closed-form check on ascending prefix sums."""
    asc = np.sort(weights)
    prefix = np.cumsum(asc)
    k = np.arange(1, len(weights) + 1)
    return bool(np.min(prefix - cost * k * k) >= 0.0)


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
    def _tables(self) -> _ByteTables:
        return _ByteTables(self.item_weights)

    def value_mask(self, mask: int) -> float:
        covered = 0
        covers = self.covers
        for i in mask_members(mask):
            covered |= covers[i]
        return self._tables.sum_mask(covered)

    @cached_property
    def _cover_tables(self) -> np.ndarray:
        """(element bytes, 256, item bytes) uint8: entry [b, c] holds the
        little-endian bytes of the items covered by the elements of byte b
        whose bits are set in c."""
        n, width = self.n, len(self._tables.tables)
        covers = np.zeros((8 * ((n + 7) // 8), width), dtype=np.uint8)
        for i, c in enumerate(self.covers):
            covers[i] = np.frombuffer(c.to_bytes(width, "little"), dtype=np.uint8)
        out = np.zeros((len(covers) // 8, 256, width), dtype=np.uint8)
        for bit in range(8):
            half = 1 << bit
            out[:, half: 2 * half] = out[:, :half] | covers[bit::8, None]
        return out

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        # each row's covered items as (k, item bytes) little-endian uint8
        packed = np.packbits(rows, axis=1, bitorder="little")
        cover_tables = self._cover_tables
        covered = cover_tables[0][packed[:, 0]]
        for byte in range(1, packed.shape[1]):
            covered |= cover_tables[byte][packed[:, byte]]
        return self._tables.sum_rows(covered)


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
        """Endpoints and weights of the edges, in edge order, for the batch."""
        return (np.array([u for u, _, _ in self.edges], dtype=np.intp),
                np.array([v for _, v, _ in self.edges], dtype=np.intp),
                np.array([w for _, _, w in self.edges], dtype=np.float64))

    @cached_property
    def _crossing_tables(self) -> tuple[tuple[int, ...], ...]:
        """One 256-entry table per mask byte: entry c is the XOR of the edge
        incidence ints of the byte's vertices whose bits are set in c, so
        bit e of the XOR over a mask's bytes says that edge e has exactly
        one endpoint in the set.  A self-loop never crosses and is in no
        incidence."""
        incidence = [0] * (8 * ((self.n + 7) // 8))
        for e, (u, v, _) in enumerate(self.edges):
            if u != v:
                incidence[u] |= 1 << e
                incidence[v] |= 1 << e
        tables = []
        for b in range(0, len(incidence), 8):
            table = [0]
            for inc in incidence[b: b + 8]:
                table += [entry ^ inc for entry in table]
            tables.append(tuple(table))
        return tuple(tables)

    @cached_property
    def _weight_bytes(self) -> tuple[tuple[float, ...], ...]:
        """The edge weights in groups of 8, one per byte of a crossing int."""
        weights = [float(w) for _, _, w in self.edges]
        return tuple(tuple(weights[e: e + 8]) for e in range(0, len(weights), 8))

    def value_mask(self, mask: int) -> float:
        # the crossing weights added in edge order, as the batch's
        # np.add.accumulate adds them; a total that starts from 0.0 is never
        # -0.0, as the batch's `+ 0.0` makes its totals
        tables, weights = self._crossing_tables, self._weight_bytes
        crossing = 0
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            crossing ^= table[byte]
        total = 0.0
        for chunk, byte in zip(weights, crossing.to_bytes(len(weights), "little")):
            for bit in BYTE_BITS[byte]:
                total += chunk[bit]
        return total

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
    def _tables(self) -> _ByteTables:
        return _ByteTables(self.weights)

    def value_mask(self, mask: int) -> float:
        return self._tables.sum_mask(mask)

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        return self._tables.sum_rows(np.packbits(rows, axis=1, bitorder="little"))


SetFunctionSpec = Union[WeightedAdditiveQuadratic, Coverage, CutFunction, Modular]


def evaluate_mask(spec: SetFunctionSpec, mask: int) -> float:
    """Closed-form value of the subset given by `mask`."""
    return spec.value_mask(mask)


def evaluate_masks(spec: SetFunctionSpec, rows: np.ndarray) -> np.ndarray:
    """Values of the sets given by the rows of a checked (k, n) boolean
    membership matrix, each bit for bit equal to `evaluate_mask` of its row."""
    return spec.value_masks(rows)


def evaluate(spec: SetFunctionSpec, s: ElementSet) -> float:
    if s.ground.n != spec.n:
        raise ValueError(f"set over ground of size {s.ground.n}, spec has n={spec.n}")
    return evaluate_mask(spec, s.mask)


def value_table(spec: SetFunctionSpec) -> np.ndarray:
    """Dense table of f over all 2^n subsets, indexed by mask: the family's batch."""
    if spec.n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={spec.n} over the enumeration budget {MULTILINEAR_BUDGET}")
    return spec.value_masks(all_mask_rows(spec.n))


def brute_force_opt(spec: SetFunctionSpec, feasible=None) -> tuple[ElementSet, float]:
    """Exhaustive optimum over all feasible subsets.

    `feasible` is a matroid (or None for unconstrained).  Ties broken by
    the smallest mask, so the result is a deterministic test oracle.
    """
    values = value_table(spec)
    if feasible is not None:
        ok = feasible.indep_masks(np.arange(1 << spec.n, dtype=np.int64))
        values = np.where(ok, values, -np.inf)
    best_mask = int(np.argmax(values))  # argmax returns the lowest mask on ties
    return ElementSet(GroundSet(spec.n), best_mask), float(values[best_mask])


def check_submodular(spec: SetFunctionSpec) -> bool:
    """Exhaustive diminishing-returns check.

    Uses the equivalent local condition f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    for all S and i != j outside S, which holds iff the full A-subset-of-B
    inequality does (tests verify this equivalence against the direct
    triple enumeration).
    """
    if spec.n > SUBMODULARITY_BUDGET:
        raise ValueError(f"n={spec.n} over the submodularity check budget {SUBMODULARITY_BUDGET}")
    return table_is_submodular(value_table(spec))


def table_is_submodular(table: np.ndarray) -> bool:
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
            if np.any(lhs - rhs < -CHECK_TOL):
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
