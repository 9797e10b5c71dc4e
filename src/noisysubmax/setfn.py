"""Exact submodular set-function families and brute-force machinery.

All families evaluate in closed form.  For exhaustive work (brute-force
optimization, submodularity checks, the multilinear extension) we build a
dense value table over all 2^n subsets in numpy.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sets import ElementSet, GroundSet, all_mask_rows, map_chunks, mask_error, mask_rows, row_masks
from .sets import MULTILINEAR_BUDGET  # noqa: F401  (all_mask_rows checks it)

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


def _check_finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


def _byte_subset_tables(items: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """One 256-entry table per 8 items, a missing last item counting as
    zeros: entry [b, c] combines items 8b..8b+7 whose bits are set in c,
    from the low bit, starting from zeros.  With np.add over weights an
    entry is the subset's weight sum; with np.bitwise_or or np.bitwise_xor
    over (items, width) uint8 rows it is the union or the symmetric
    difference of the subset's sets."""
    padded = np.zeros((8 * ((len(items) + 7) // 8),) + items.shape[1:], dtype=items.dtype)
    padded[:len(items)] = items
    out = np.zeros((len(padded) // 8, 256) + items.shape[1:], dtype=items.dtype)
    for bit in range(8):
        half = 1 << bit
        out[:, half: 2 * half] = combine(out[:, :half], padded[bit::8, None])
    return out


# A table of at most this many rows (8 weights each) gives its one-set sum
# tuples of Python floats, whose reads allocate nothing; a larger one gives
# memoryviews of its array, whose reads allocate a float each but which hold
# no float objects (a tuple row takes about 8 KiB).  WAQs up to n=128 and
# coverages up to 128 items read tuples; a cut of 200 edges (25 rows) reads
# memoryviews, which keeps its memory at the array's 2 KiB per row.
_TUPLE_ROWS = 16


class _ByteTables:
    """The one summation order of the weights of a mask's set bits (WAQ,
    `Modular`, `Coverage`'s covered items, a cut's crossing edges):
    array[b, chunk] sums the weights of byte b's set bits in chunk from the
    low bit, and the entries add up from the low byte.  `tables` reads the
    rows of the one array as tuples of Python floats up to `_TUPLE_ROWS`
    rows, and as memoryviews above, which give Python floats too (an
    np.float64 would change the repr of a value)."""

    def __init__(self, weights: tuple[float, ...]):
        self.weights = weights
        self.array = _byte_subset_tables(np.array(weights, dtype=np.float64), np.add)
        if len(self.array) <= _TUPLE_ROWS:
            self.tables = tuple(tuple(row.tolist()) for row in self.array)
        else:
            self.tables = tuple(memoryview(row) for row in self.array)

    def __reduce__(self):
        # a memoryview cannot be pickled or deep-copied; rebuild the tables
        return (type(self), (self.weights,))

    def sum_mask(self, mask: int) -> float:
        """The sum of one mask.  A zero byte adds table[0] = 0.0, which
        leaves the total exact (it starts at 0.0, so it is never -0.0)."""
        total = 0.0
        tables = self.tables
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            total += table[byte]
        return total

    @property
    def row_bytes(self) -> int:
        """The bytes `sum_rows` keeps per row: 8 per summed byte (the float gather)."""
        return 8 * max(1, len(self.array))

    def sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """The sums of (rows, bytes) uint8 rows (a WAQ's packed rows, a
        family's combined items), each bit for bit equal to `sum_mask`.  It
        does not chunk: a family calls it on each chunk of its batch's
        `map_chunks`, at `row_bytes` per row plus its own."""
        return _left_sum(self.array[np.arange(len(self.array)), rows])


# Each family evaluates one mask in closed form (`value_mask`) and a batch of
# masks given as packed rows, the masks' little-endian bytes (`value_masks`,
# bit for bit equal to `value_mask` of each row); its dense table is the
# batch over all 2^n rows.  Lookup tables are built on first use and kept on
# the instance.  Weights must be finite: a NaN weight would make every value
# NaN.


@dataclass(frozen=True)
class WeightedAdditiveQuadratic:
    """f(S) = sum_{i in S} w_i - cost * |S|^2."""

    weights: tuple[float, ...]
    cost: float

    def __post_init__(self):
        GroundSet(self.n)
        _check_finite("weights and cost", (*self.weights, self.cost))

    @cached_property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _tables(self) -> _ByteTables:
        return _ByteTables(self.weights)

    def value_mask(self, mask: int) -> float:
        k = mask.bit_count()
        return self._tables.sum_mask(mask) - self.cost * k * k

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        tables, cost = self._tables, self.cost

        def values(chunk):
            k = np.bitwise_count(chunk).sum(axis=1)
            return tables.sum_rows(chunk) - cost * k * k
        # a row keeps its float gather, its member count and its cost term
        return map_chunks(values, rows, tables.row_bytes + 16)

    def optimum(self) -> tuple[ElementSet, float]:
        """Closed-form optimum: the cost depends only on |S|, so the optimum is
        the best descending-weight prefix (ties by id; the smallest best k)."""
        order = sorted(range(self.n), key=lambda i: (-self.weights[i], i))
        best_k, best_val, running = 0, 0.0, 0.0
        for k, i in enumerate(order, start=1):
            running += self.weights[i]
            val = running - self.cost * k * k
            if val > best_val:
                best_k, best_val = k, val
        return GroundSet(self.n).subset(order[:best_k]), best_val


@dataclass(frozen=True)
class Modular(WeightedAdditiveQuadratic):
    """f(S) = sum_{i in S} w_i: the WAQ with cost 0 (x - 0.0 * k * k is x)."""

    cost: float = field(default=0.0, init=False)


def nonnegative_certified(weights: np.ndarray, cost: float) -> bool:
    """True iff sum_{i in S} w_i - cost|S|^2 >= 0 for every subset,
    via the closed-form check on ascending prefix sums."""
    asc = np.sort(weights)
    prefix = np.cumsum(asc)
    k = np.arange(1, len(weights) + 1)
    return bool(np.min(prefix - cost * k * k) >= 0.0)


# `Coverage` and the cut sum the weights of the items of the combined item
# sets of a mask's elements (OR: the covered items; XOR: the crossing edges).
# A family defines only its fields, its validation, `_item_sets()` (one int
# per element, bit j for item j), `_item_weights()` and `_combine`, a (numpy
# ufunc, int operator) pair; the base class derives both evaluation paths.

class _IncidenceSum:
    """Base class: per-byte incidence tables, one set and a batch."""

    _combine: tuple

    @cached_property
    def _tables(self) -> _ByteTables:
        return _ByteTables(self._item_weights())

    @cached_property
    def _incidence(self) -> np.ndarray:
        """(element bytes, 256, item bytes) uint8: entry [b, c] combines the
        little-endian item sets of byte b's elements whose bits are set in c."""
        items = mask_rows(self._item_sets(), len(self._item_weights()))
        return _byte_subset_tables(items, self._combine[0])

    @cached_property
    def _incidence_ints(self) -> tuple[tuple[int, ...], ...]:
        """`_incidence` with each entry as a Python int, for one set."""
        return tuple(tuple(row_masks(table)) for table in self._incidence)

    def value_mask(self, mask: int) -> float:
        tables = self._incidence_ints
        combine = self._combine[1]
        items = 0
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            items = combine(items, table[byte])
        return self._tables.sum_mask(items)

    def _combined_rows(self, packed: np.ndarray) -> np.ndarray:
        """The (rows, item bytes) uint8 combined item sets of packed rows."""
        tables, combine = self._incidence, self._combine[0]
        out = tables[0][packed[:, 0]]
        for byte in range(1, packed.shape[1]):
            combine(out, tables[byte][packed[:, byte]], out=out)
        return out

    def value_masks(self, rows: np.ndarray) -> np.ndarray:
        tables = self._tables
        return map_chunks(lambda chunk: tables.sum_rows(self._combined_rows(chunk)),
                          rows, tables.row_bytes)


@dataclass(frozen=True)
class Coverage(_IncidenceSum):
    """Weighted coverage: covers[i] is the bitmask of items element i covers."""

    covers: tuple[int, ...]
    item_weights: tuple[float, ...]
    _combine = (np.bitwise_or, operator.or_)

    def __post_init__(self):
        object.__setattr__(self, "covers", tuple(map(operator.index, self.covers)))
        GroundSet(self.n)
        for c in self.covers:
            if c < 0 or c >> len(self.item_weights):
                raise ValueError(f"cover {c:#x} names an item outside [0, {len(self.item_weights)})")
        _check_finite("item weights", self.item_weights)

    @cached_property
    def n(self) -> int:
        return len(self.covers)

    def _item_sets(self) -> tuple[int, ...]:
        return self.covers

    def _item_weights(self) -> tuple[float, ...]:
        return self.item_weights


@dataclass(frozen=True)
class CutFunction(_IncidenceSum):
    """Weighted undirected graph cut: f(S) = sum of edge weights crossing S.
    A vertex's item set is its edge-incidence int, so bit e of the XOR over
    a set's vertices says that edge e has exactly one endpoint in the set.
    A self-loop never crosses and is in no incidence."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]
    _combine = (np.bitwise_xor, operator.xor)

    def __post_init__(self):
        object.__setattr__(self, "n_vertices", GroundSet(self.n_vertices).n)
        for u, v, _ in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) outside [0, {self.n_vertices})")
        _check_finite("edge weights", (w for _, _, w in self.edges))

    @cached_property
    def n(self) -> int:
        return self.n_vertices

    def _item_sets(self) -> list[int]:
        incidence = [0] * self.n
        for e, (u, v, _) in enumerate(self.edges):
            if u != v:
                incidence[u] |= 1 << e
                incidence[v] |= 1 << e
        return incidence

    def _item_weights(self) -> tuple[float, ...]:
        return tuple(w for _, _, w in self.edges)


SetFunctionSpec = WeightedAdditiveQuadratic | Coverage | CutFunction


def evaluate_mask(spec: SetFunctionSpec, mask: int) -> float:
    """Closed-form value of the subset given by `mask`; ValueError for a
    mask that is negative or has a bit at n or above.  Each family caches
    its `n`, so the check costs an attribute read and a shift."""
    if mask >> spec.n:
        raise mask_error(mask, spec.n)
    return spec.value_mask(mask)


def evaluate(spec: SetFunctionSpec, s: ElementSet) -> float:
    GroundSet(spec.n).check_same(s.ground, "set", "function")
    return evaluate_mask(spec, s.mask)


def value_table(spec: SetFunctionSpec) -> np.ndarray:
    """Dense table of f over all 2^n subsets, indexed by mask: the family's batch."""
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
    """Exhaustive diminishing-returns check over `value_table`, whose budget bounds n.

    Uses the equivalent local condition f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    for all S and i != j outside S, which holds iff the full A-subset-of-B
    inequality does (tests verify this equivalence against the direct
    triple enumeration).
    """
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
