"""The noisy-oracle meta-algorithm: smooth with a random subset of a basis,
optimize the sampled surrogate over the contracted matroid with a wrapped
exact-oracle solver, then return the solution plus a random t-subset of
the smoothing set.  Also the leave-one-out comparison surrogate and the
best-of-T repetition built on it."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .matroids import Matroid, contract, rank, arbitrary_basis
from .noise import PersistentNoisyOracle
from .sets import ElementSet, random_k_subset
from .solvers import SolverConfig, run_solver
from .surrogate import SampledSurrogateOracle, SurrogateConfig


@dataclass(frozen=True)
class MetaConfig:
    h: int
    t: int
    m: int
    inner: SolverConfig
    matroid: Matroid

    def __post_init__(self):
        if not 0 <= self.t < max(self.h, 1):
            raise ValueError(f"need 0 <= t < h, or t=0 if h=0; got t={self.t}, h={self.h}")
        if self.h > rank(self.matroid):
            # silently shrinking h would corrupt experiment metadata
            raise ValueError(f"h={self.h} exceeds the matroid rank {rank(self.matroid)}")
        if self.m > comb(self.h, self.t):
            raise ValueError(f"m={self.m} exceeds C({self.h},{self.t})")
        if self.m < 1:
            raise ValueError("m must be >= 1")


def meta_solve(o: PersistentNoisyOracle, cfg: MetaConfig,
               rng: np.random.Generator) -> ElementSet:
    """One run of the meta-algorithm.  The returned set is independent in
    the original matroid (downward closure from S_H ∪ H independent)."""
    basis = arbitrary_basis(cfg.matroid)
    H = random_k_subset(basis, cfg.h, rng)
    surr_cfg = SurrogateConfig.draw(H, cfg.t, cfg.m, rng)
    surrogate = SampledSurrogateOracle(o, surr_cfg)
    s_h = run_solver(cfg.inner, surrogate, contract(cfg.matroid, H), rng)
    h_prime = random_k_subset(H, cfg.t, rng)
    return s_h.union(h_prime)


def comparison_surrogate_f0(o: PersistentNoisyOracle, s: ElementSet) -> float:
    """Average of the noisy oracle over all leave-one-out subsets of s."""
    if len(s) == 0:
        raise ValueError("comparison surrogate undefined for the empty set")
    total = 0.0
    for e in s:
        total += o.value_mask(s.mask & ~(1 << e))
    return total / len(s)


def best_of_T(o: PersistentNoisyOracle, cfg: MetaConfig, T: int,
              rng: np.random.Generator) -> ElementSet:
    """Repeat meta_solve T times with independent inner randomness (same
    noise world) and return the run maximizing the comparison surrogate.

    The selection guarantee holds for monotone f; for non-monotone f
    removing an element can improve the objective, so the comparison is
    exposed but not guaranteed.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    best_set, best_score = None, -np.inf
    for _ in range(T):
        s = meta_solve(o, cfg, rng)
        score = comparison_surrogate_f0(o, s) if len(s) > 0 else o.value(s)
        if score > best_score:
            best_set, best_score = s, score
    return best_set
