"""Exact-oracle algorithms the meta-algorithm wraps: cardinality/matroid
greedy, double greedy, measured continuous greedy with pipage rounding,
and the random-subset baseline."""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .matroids import Matroid, max_weight_independent_set
from .oracles import ValueOracle
from .sets import ElementSet, GroundSet, all_mask_rows, mask_members, mask_rows, pack_rows
from .setfn import _check_flag, _check_point, _inclusion_probs, _left_sum

POLYTOPE_TOL = 1e-9
RATIO_UNDERFLOW = 1e-12


# Each solver config runs itself through `solve(oracle, m, rng)`.  It calls
# the solver functions below through this module's globals, so a wrapper
# installed on a module name (as the benchmark's tracer does) sees every call.

@dataclass(frozen=True)
class Greedy:
    def solve(self, oracle: ValueOracle, m: Matroid, rng: np.random.Generator) -> ElementSet:
        return greedy_cardinality(oracle, m)


@dataclass(frozen=True)
class DoubleGreedy:
    def solve(self, oracle: ValueOracle, m: Matroid, rng: np.random.Generator) -> ElementSet:
        """Double greedy over the free elements; the matroid is enforced only
        when it can bind."""
        universe = ElementSet(oracle.ground, m.free_mask)
        effective = None if m.rank() >= len(universe) else m
        return double_greedy(oracle, oracle.ground, rng, universe=universe,
                             matroid=effective)


@dataclass(frozen=True)
class MeasuredContinuousGreedy:
    step: float = 0.01
    partial_samples: int = 32
    exact_extension: bool = False

    def __post_init__(self):
        inv = 1.0 / self.step
        if not 0 < self.step < 1 or abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"step must be in (0,1) with integer 1/step, got {self.step}")
        object.__setattr__(self, "partial_samples", operator.index(self.partial_samples))
        if self.partial_samples < 1:
            raise ValueError("partial_samples must be >= 1")
        object.__setattr__(self, "exact_extension",
                           _check_flag("exact_extension", self.exact_extension))

    def solve(self, oracle: ValueOracle, m: Matroid, rng: np.random.Generator) -> ElementSet:
        x = measured_continuous_greedy(oracle, m, self, rng)
        return pipage_round(m, x, rng)


@dataclass(frozen=True)
class RandomSubset:
    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")

    def solve(self, oracle: ValueOracle, m: Matroid, rng: np.random.Generator) -> ElementSet:
        """Random-order matroid greedy: visit the free elements in a random
        order and keep each one that leaves the set independent, until
        `size` are kept; the result has min(size, rank) elements."""
        order = rng.permutation(m.free_elements()).tolist()
        return ElementSet(oracle.ground, m.greedy_mask(order, self.size))


SolverConfig = Greedy | DoubleGreedy | MeasuredContinuousGreedy | RandomSubset


def greedy_cardinality(oracle: ValueOracle, m: Matroid) -> ElementSet:
    """Greedy: add the best feasible positive marginal each round, ties by id.

    The feasible candidates of a round, the matroid's addable elements, go
    to the oracle as one `value_masks` batch, in id order; the first one
    with the largest gain wins if that gain is positive."""
    oracle.ground.check_same(m.ground, "matroid", "oracle")
    mask = 0
    current = oracle.value_mask(0)
    for _ in range(m.rank()):
        grown = [mask | 1 << i for i in mask_members(m.addable_mask(mask))]
        if not grown:
            break
        values = oracle.value_masks(mask_rows(grown, oracle.ground.n))
        best = int(np.argmax(values - current))
        if not values[best] - current > 0.0:
            break
        mask, current = grown[best], float(values[best])
    return ElementSet(oracle.ground, mask)


def double_greedy(oracle: ValueOracle, ground: GroundSet,
                  rng: np.random.Generator,
                  universe: ElementSet | None = None,
                  matroid: Matroid | None = None) -> ElementSet:
    """Double greedy: one pass over the elements keeping X ⊆ Y, deciding
    each by the randomized comparison of add/remove marginals.

    Elements outside `universe` are never touched.  If a matroid is given,
    an element whose addition would break independence of X is forced out;
    this keeps X independent throughout and reduces to the unconstrained
    algorithm when the matroid is free.
    """
    oracle.ground.check_same(ground, "ground", "oracle")
    if universe is not None:
        oracle.ground.check_same(universe.ground, "universe", "oracle")
    if matroid is not None:
        oracle.ground.check_same(matroid.ground, "matroid", "oracle")
    elements = list(universe) if universe is not None else list(range(ground.n))
    x_mask = 0
    y_mask = universe.mask if universe is not None else ground.full_mask
    value = oracle.value_mask
    fx = value(x_mask)
    fy = value(y_mask)
    for u in elements:
        bit = 1 << u
        if matroid is not None and not matroid.indep_mask(x_mask | bit):
            # cannot add without breaking feasibility: forced removal
            y_mask &= ~bit
            fy = value(y_mask)
            continue
        fx_add = value(x_mask | bit)
        fy_del = value(y_mask & ~bit)
        a_hat = max(fx_add - fx, 0.0)
        b_hat = max(fy_del - fy, 0.0)
        total = a_hat + b_hat
        # both estimates nonpositive (or an underflowing sum) supports
        # neither direction; the symmetric split is the limit of the ratio
        # as both tend to 0+ at equal rates
        p = 0.5 if total < RATIO_UNDERFLOW else a_hat / total
        if p > 0.0 and (p >= 1.0 or rng.random() < p):
            x_mask |= bit
            fx = fx_add
        else:
            y_mask &= ~bit
            fy = fy_del
    if x_mask != y_mask:
        raise RuntimeError(f"double greedy ended with X={x_mask:#x} != Y={y_mask:#x}")
    return ElementSet(ground, x_mask)


def _exact_partials(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All partial derivatives of the multilinear extension of a tabulated
    function, at point x."""
    n = len(x)
    probs = _inclusion_probs(x)
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.empty(n)
    for i in range(n):
        bit = 1 << i
        out[i] = probs @ (table[masks | bit] - table[masks & ~bit])
    return out


def _marginal_rows(drawn: np.ndarray, singles: np.ndarray) -> np.ndarray:
    """The packed rows of one sampled step from its (k, samples, n) boolean
    draws R, given the packed rows of the k free coordinates' singletons
    {i}: for each coordinate i in turn, R_s + i for every sample s, then
    R_s.  The draws are packed once, and i's bit is ORed into the bytes of
    its R_s + i rows."""
    packed = pack_rows(drawn)
    rows = np.empty((len(packed), 2) + packed.shape[1:], dtype=np.uint8)
    np.bitwise_or(packed, singles[:, None], out=rows[:, 0])
    rows[:, 1] = packed
    return rows.reshape(-1, packed.shape[-1])


def measured_continuous_greedy(oracle: ValueOracle, m: Matroid,
                               cfg: MeasuredContinuousGreedy,
                               rng: np.random.Generator) -> np.ndarray:
    """Continuous-time greedy with the measured update
    x <- x + step * (1 - x) * direction, keeping x in the matroid polytope.

    Direction weights are expected marginals E[f(R + i) - f(R)] for R ~ x,
    which equal (1 - x_i) times the multilinear partial: computed exactly
    when cfg.exact_extension, from one `value_masks` batch of all 2^n sets,
    else averaged over `partial_samples` fresh draws R_s per free
    coordinate.  The sets R_s + i and R_s of every free coordinate of one
    step go to the oracle as one `value_masks` batch.
    """
    oracle.ground.check_same(m.ground, "matroid", "oracle")
    n = oracle.ground.n
    steps = round(1.0 / cfg.step)
    x = np.zeros(n)
    members = m.free_elements()
    free = np.array(members, dtype=np.intp)
    singles = mask_rows([1 << i for i in members], n)
    k, samples = len(free), cfg.partial_samples
    if cfg.exact_extension:
        table = oracle.value_masks(all_mask_rows(n))
    for _ in range(steps):
        if cfg.exact_extension:
            weights = _exact_partials(table, x) * (1.0 - x)
        else:
            # the same doubles as k draws of shape (samples, n) in turn
            rows = _marginal_rows(rng.random((k, samples, n)) < x, singles)
            values = oracle.value_masks(rows).reshape(k, 2 * samples)
            weights = np.zeros(n)
            weights[free] = _left_sum(values[:, :samples] - values[:, samples:]) / samples
        # an element outside the free mask is never independent, so its
        # weight is never used
        direction = max_weight_independent_set(m, weights)
        ind = direction.indicator()
        x = x + cfg.step * (1.0 - x) * ind
    return x


def pipage_round(m: Matroid, x: np.ndarray, rng: np.random.Generator) -> ElementSet:
    """Oblivious swap rounding of a matroid polytope point to an independent
    set, preserving coordinate marginals in expectation.

    Fractional coordinates are paired within each capacity group and mass
    is transferred randomly until at most one fractional coordinate per
    group remains; leftovers round independently.
    """
    n = m.ground.n
    x = _check_point(np.asarray(x, dtype=np.float64), n)
    members = [(mask_members(gmask), cap) for gmask, cap in m.groups()]
    for idx, cap in members:
        gsum = sum(x[i] for i in idx)
        if gsum > cap + POLYTOPE_TOL:
            raise ValueError(f"point outside the matroid polytope: group sum {gsum} > {cap}")
    for i in mask_members(m.ground.full_mask & ~m.free_mask):
        if x[i] > POLYTOPE_TOL:
            raise ValueError(f"coordinate {i} outside every capacity group must be 0")

    x = x.copy()
    out_mask = 0
    for idx, _ in members:
        frac = [i for i in idx if POLYTOPE_TOL < x[i] < 1.0 - POLYTOPE_TOL]
        while len(frac) >= 2:
            i, j = frac[0], frac[1]
            up_i = min(1.0 - x[i], x[j])
            up_j = min(x[i], 1.0 - x[j])
            if rng.random() < up_j / (up_i + up_j):
                x[i] += up_i
                x[j] -= up_i
            else:
                x[i] -= up_j
                x[j] += up_j
            frac = [k for k in frac if POLYTOPE_TOL < x[k] < 1.0 - POLYTOPE_TOL]
        if frac:
            k = frac[0]
            x[k] = 1.0 if rng.random() < x[k] else 0.0
        for i in idx:
            if x[i] > 0.5:
                out_mask |= 1 << i
    if not m.indep_mask(out_mask):
        raise ValueError("pipage rounding produced a dependent set: "
                         "the matroid's groups() disagree with its indep_mask")
    return ElementSet(m.ground, out_mask)


def run_solver(cfg: SolverConfig, oracle: ValueOracle, m: Matroid,
               rng: np.random.Generator) -> ElementSet:
    """Run a solver config to a discrete solution."""
    oracle.ground.check_same(m.ground, "matroid", "oracle")
    return cfg.solve(oracle, m, rng)
