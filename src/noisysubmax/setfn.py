"""Exact submodular set-function families and brute-force machinery.

All families evaluate in closed form.  For exhaustive work (brute-force
optimization, submodularity checks, the multilinear extension) we build a
dense value table over all 2^n subsets with numpy doubling tricks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .sets import ElementSet, GroundSet, popcount_array

BRUTE_FORCE_BUDGET = 24
SUBMODULARITY_BUDGET = 14
MULTILINEAR_BUDGET = 20
CHECK_TOL = 1e-9


def _byte_sum_tables(weights: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Per-byte lookup tables: table[b][chunk] = sum of weights of set bits."""
    n = len(weights)
    tables = []
    for byte in range((n + 7) // 8):
        w = weights[8 * byte: 8 * byte + 8]
        tab = [0.0] * 256
        for chunk in range(256):
            s = 0.0
            for bit in range(len(w)):
                if (chunk >> bit) & 1:
                    s += w[bit]
            tab[chunk] = s
        tables.append(tuple(tab))
    return tuple(tables)


def _mask_weight_sum(mask: int, tables) -> float:
    total = 0.0
    i = 0
    while mask:
        total += tables[i][mask & 255]
        mask >>= 8
        i += 1
    return total


def _weight_sum_table(weights) -> np.ndarray:
    """Sum of the weights of each of the 2^len(weights) subsets, indexed by mask."""
    wsum = np.zeros(1 << len(weights))
    for i, w in enumerate(weights):
        half = 1 << i
        wsum[half: 2 * half] = wsum[:half] + w
    return wsum


# Each family evaluates one mask in closed form (`value_mask`) and builds
# its dense table over all 2^n masks (`table`).  The byte tables are built
# on first use and kept on the instance.

@dataclass(frozen=True)
class WeightedAdditiveQuadratic:
    """f(S) = sum_{i in S} w_i - cost * |S|^2."""

    weights: tuple[float, ...]
    cost: float

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
        k = popcount_array(np.arange(1 << self.n, dtype=np.uint64)).astype(np.float64)
        return _weight_sum_table(self.weights) - self.cost * k * k


@dataclass(frozen=True)
class Coverage:
    """Weighted coverage: covers[i] is the bitmask of items element i covers."""

    covers: tuple[int, ...]
    item_weights: tuple[float, ...]

    def __post_init__(self):
        for c in self.covers:
            if c < 0 or c >> len(self.item_weights):
                raise ValueError(f"cover {c:#x} names an item outside [0, {len(self.item_weights)})")

    @property
    def n(self) -> int:
        return len(self.covers)

    @cached_property
    def _tables(self):
        return _byte_sum_tables(self.item_weights)

    def value_mask(self, mask: int) -> float:
        covered = 0
        covers = self.covers
        m = mask
        while m:
            low = m & -m
            covered |= covers[low.bit_length() - 1]
            m ^= low
        return _mask_weight_sum(covered, self._tables)

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
        for u, v, _ in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) outside [0, {self.n_vertices})")

    @property
    def n(self) -> int:
        return self.n_vertices

    def value_mask(self, mask: int) -> float:
        total = 0.0
        for u, v, w in self.edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                total += w
        return total

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


def ground_of(spec: SetFunctionSpec) -> GroundSet:
    return GroundSet(spec.n)


def evaluate_mask(spec: SetFunctionSpec, mask: int) -> float:
    """Closed-form value of the subset given by `mask`."""
    return spec.value_mask(mask)


def evaluate(spec: SetFunctionSpec, s: ElementSet) -> float:
    if s.ground.n != spec.n:
        raise ValueError(f"set over ground of size {s.ground.n}, spec has n={spec.n}")
    return evaluate_mask(spec, s.mask)


def marginal(spec: SetFunctionSpec, s: ElementSet, x: int) -> float:
    """f(S+x) - f(S); x must not already be in S."""
    if x in s:
        raise ValueError(f"element {x} already in the set")
    return evaluate(spec, s.add(x)) - evaluate(spec, s)


def value_table(spec: SetFunctionSpec) -> np.ndarray:
    """Dense table of f over all 2^n subsets, indexed by mask."""
    if spec.n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={spec.n} over the enumeration budget {MULTILINEAR_BUDGET}")
    return spec.table()


def _table_of(fn_or_spec, n: int) -> np.ndarray:
    """Dense table of a set-function family, or of a callable on ElementSets."""
    if not callable(fn_or_spec):
        return value_table(fn_or_spec)
    if n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={n} over the enumeration budget {MULTILINEAR_BUDGET}")
    ground = GroundSet(n)
    return np.array([fn_or_spec(ElementSet(ground, mask)) for mask in range(1 << n)])


def brute_force_opt(spec: SetFunctionSpec, feasible=None) -> tuple[ElementSet, float]:
    """Exhaustive optimum over all feasible subsets.

    `feasible` is a matroid (or None for unconstrained).  Ties broken by
    the smallest mask, so the result is a deterministic test oracle.
    """
    n = spec.n
    if n > BRUTE_FORCE_BUDGET:
        raise ValueError(f"n={n} over the enumeration budget {BRUTE_FORCE_BUDGET}")
    ground = GroundSet(n)
    if n <= MULTILINEAR_BUDGET:
        values = value_table(spec)
        if feasible is not None:
            ok = feasible.indep_masks(np.arange(1 << n, dtype=np.uint64))
            values = np.where(ok, values, -np.inf)
        best_mask = int(np.argmax(values))  # argmax returns the lowest mask on ties
        return ElementSet(ground, best_mask), float(values[best_mask])
    best_mask, best_val = None, -np.inf
    for mask in range(1 << n):
        if feasible is not None and not feasible.indep_mask(mask):
            continue
        v = evaluate_mask(spec, mask)
        if v > best_val:
            best_mask, best_val = mask, v
    return ElementSet(ground, best_mask), best_val


def check_submodular(fn_or_spec, ground: GroundSet, tol: float = CHECK_TOL) -> bool:
    """Exhaustive diminishing-returns check.

    Uses the equivalent local condition f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    for all S and i != j outside S, which holds iff the full A-subset-of-B
    inequality does (tests verify this equivalence against the direct
    triple enumeration).
    """
    n = ground.n
    if n > SUBMODULARITY_BUDGET:
        raise ValueError(f"n={n} over the submodularity check budget {SUBMODULARITY_BUDGET}")
    return table_is_submodular(_table_of(fn_or_spec, n), tol)


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
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("fractional point has coordinates outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def multilinear_exact(fn_or_spec, x: np.ndarray) -> float:
    """Exact multilinear extension: expectation of f under independent
    inclusion with probabilities x."""
    n = fn_or_spec.n if hasattr(fn_or_spec, "n") else len(x)
    if n > MULTILINEAR_BUDGET:
        raise ValueError(f"n={n} over the enumeration budget {MULTILINEAR_BUDGET}")
    x = _check_point(x, n)
    return float(_inclusion_probs(x) @ _table_of(fn_or_spec, n))


def multilinear_partial_exact(fn_or_spec, x: np.ndarray, i: int) -> float:
    """Exact i-th partial derivative of the multilinear extension."""
    n = fn_or_spec.n if hasattr(fn_or_spec, "n") else len(x)
    x = _check_point(x, n)
    hi = x.copy()
    hi[i] = 1.0
    lo = x.copy()
    lo[i] = 0.0
    return multilinear_exact(fn_or_spec, hi) - multilinear_exact(fn_or_spec, lo)
