"""The noisy-oracle meta-algorithm: smooth with a random subset of a basis,
optimize the sampled surrogate over the contracted matroid with a wrapped
exact-oracle solver, then return the solution plus a random t-subset of
the smoothing set.  Also the leave-one-out comparison surrogate and the
best-of-T repetition built on it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matroids import Matroid, contract, arbitrary_basis
from .noise import PersistentNoisyOracle
from .sets import ElementSet, mask_rows, random_k_subset
from .setfn import _left_sum
from .solvers import SolverConfig, run_solver
from .surrogate import SampledSurrogateOracle, SurrogateConfig, check_surrogate_sizes


@dataclass(frozen=True)
class MetaConfig:
    h: int
    t: int
    m: int
    inner: SolverConfig
    matroid: Matroid

    def __post_init__(self):
        for name, size in zip(("h", "t", "m"), check_surrogate_sizes(self.h, self.t, self.m)):
            object.__setattr__(self, name, size)
        if self.h > self.matroid.rank():
            # silently shrinking h would corrupt experiment metadata
            raise ValueError(f"h={self.h} exceeds the matroid rank {self.matroid.rank()}")


def meta_solve(o: PersistentNoisyOracle, cfg: MetaConfig,
               rng: np.random.Generator) -> ElementSet:
    """One run of the meta-algorithm.  The returned set is independent in
    the original matroid (downward closure from S_H ∪ H independent)."""
    o.ground.check_same(cfg.matroid.ground, "matroid", "oracle")
    basis = arbitrary_basis(cfg.matroid)
    H = random_k_subset(basis, cfg.h, rng)
    surr_cfg = SurrogateConfig.draw(H, cfg.t, cfg.m, rng)
    surrogate = SampledSurrogateOracle(o, surr_cfg)
    s_h = run_solver(cfg.inner, surrogate, contract(cfg.matroid, H), rng)
    h_prime = random_k_subset(H, cfg.t, rng)
    return s_h.union(h_prime)


def comparison_surrogate_f0(o: PersistentNoisyOracle, s: ElementSet) -> float:
    """Average of the noisy oracle over all leave-one-out subsets of s."""
    o.ground.check_same(s.ground, "set", "oracle")
    if len(s) == 0:
        raise ValueError("comparison surrogate undefined for the empty set")
    # the |S| subsets S - e as one batch, in element order, summed left to
    # right as a loop over the elements would
    rows = mask_rows([s.mask & ~(1 << e) for e in s], s.ground.n)
    return float(_left_sum(o.value_masks(rows))) / len(s)


def best_of_T(o: PersistentNoisyOracle, cfg: MetaConfig, T: int,
              rng: np.random.Generator) -> ElementSet:
    """Repeat meta_solve T times with independent inner randomness (same
    noise world) and return the run maximizing the comparison surrogate.

    The selection guarantee holds for monotone f; for non-monotone f
    removing an element can improve the objective, so the comparison is
    exposed but not guaranteed.

    A non-empty run S scores the average of f-tilde over its subsets S - e,
    one element smaller; an empty run scores f-tilde(∅), the value of the
    only subset ∅ has.  Both scores are noisy values of subsets of the run
    on one scale: a singleton {e} scores f-tilde(∅) as well.  So an empty
    run wins only when every non-empty run scores below f-tilde(∅); ties go
    to the earlier run.
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
