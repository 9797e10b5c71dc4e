"""Smoothing-set surrogates.

The surrogate of f at S averages f over unions of S with size-t subsets
of a smoothing set H.  The sampled variant freezes m distinct t-subsets
once and averages the persistent noisy oracle over them, so persistence
lifts from the raw oracle to the surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .noise import NoiseSpec
from .oracles import ValueOracle
from .sets import (ElementSet, all_k_subset_masks, random_k_subset_mask,
                   unrank_k_subset_mask)
from .setfn import SetFunctionSpec, evaluate_mask

SURROGATE_ENUM_BUDGET = 26


def surrogate_exact(spec: SetFunctionSpec, H: ElementSet, t: int, s: ElementSet) -> float:
    """Average of f(S ∪ H') over all t-subsets H' of H."""
    h = len(H)
    if h > SURROGATE_ENUM_BUDGET:
        raise ValueError(f"|H|={h} over the enumeration budget {SURROGATE_ENUM_BUDGET}")
    if not 0 <= t <= h:
        raise ValueError(f"invalid subset size t={t} for |H|={h}")
    members = list(H)
    total = 0.0
    count = 0
    for hmask in all_k_subset_masks(members, t):
        total += evaluate_mask(spec, s.mask | hmask)
        count += 1
    return total / count


def sample_t_subsets_without_replacement(H: ElementSet, t: int, m: int,
                                         rng: np.random.Generator) -> list[ElementSet]:
    """m pairwise-distinct t-subsets of H, uniform over m-subsets of H[t].

    Dense regime (C(h,t) <= 4m): unrank a uniform m-subset of ranks.
    Sparse regime: rejection sampling with a seen-set; each accept takes
    under 2 draws in expectation since m <= C(h,t)/4 there.
    """
    members = list(H)
    total = comb(len(members), t)
    if m > total:
        raise ValueError(f"cannot draw {m} distinct {t}-subsets, only C({len(members)},{t})={total}")
    if total <= 4 * m:
        ranks = rng.choice(total, size=m, replace=False)
        masks = [unrank_k_subset_mask(int(r), members, t) for r in ranks]
    else:
        seen = set()
        masks = []
        while len(masks) < m:
            mask = random_k_subset_mask(members, t, rng)
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
    return [ElementSet(H.ground, mask) for mask in masks]


@dataclass(frozen=True)
class SurrogateConfig:
    """Smoothing set H with m frozen distinct t-subsets of it.

    The samples are drawn once and reused for every queried S; freezing
    them is what makes the sampled surrogate a persistent oracle.
    """

    smoothing_set: ElementSet
    t: int
    m: int
    fixed_samples: tuple[ElementSet, ...]

    def __post_init__(self):
        h = len(self.smoothing_set)
        if h == 0:
            if self.t != 0 or self.m != 1:
                raise ValueError("degenerate surrogate requires t=0, m=1")
        elif not 0 <= self.t < h:
            raise ValueError(f"need 0 <= t < h, got t={self.t}, h={h}")
        if len(self.fixed_samples) != self.m:
            raise ValueError("number of frozen samples differs from m")
        if self.m > comb(h, self.t):
            raise ValueError(f"m={self.m} exceeds C({h},{self.t})")
        if len({hs.mask for hs in self.fixed_samples}) != self.m:
            raise ValueError("frozen samples must be pairwise distinct")
        for hs in self.fixed_samples:
            if len(hs) != self.t or not hs.issubset(self.smoothing_set):
                raise ValueError("each frozen sample must be a t-subset of H")

    @property
    def h(self) -> int:
        return len(self.smoothing_set)

    @classmethod
    def draw(cls, H: ElementSet, t: int, m: int, rng: np.random.Generator) -> "SurrogateConfig":
        if len(H) == 0:
            return cls(H, 0, 1, (H,))
        samples = sample_t_subsets_without_replacement(H, t, m, rng)
        return cls(H, t, m, tuple(samples))


class SampledSurrogateOracle(ValueOracle):
    """Average of a value oracle over the frozen t-subset unions."""

    def __init__(self, inner: ValueOracle, cfg: SurrogateConfig):
        if inner.ground.n != cfg.smoothing_set.ground.n:
            raise ValueError("surrogate config over a different ground set")
        self.inner = inner
        self.cfg = cfg
        self.ground = inner.ground
        self._sample_masks = [hs.mask for hs in cfg.fixed_samples]

    def value_mask(self, mask: int) -> float:
        inner_value = self.inner.value_mask
        total = 0.0
        for hmask in self._sample_masks:
            total += inner_value(mask | hmask)
        return total / len(self._sample_masks)


def surrogate_sampled(o: ValueOracle, cfg: SurrogateConfig, s: ElementSet) -> float:
    return SampledSurrogateOracle(o, cfg).value(s)


@dataclass(frozen=True)
class ParamBudget:
    """Accuracy/confidence budget for sizing the sampled surrogate."""

    epsilon: float
    delta: float
    f_max: float
    noise: NoiseSpec

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        nu, alpha = self.noise.sub_exponential_params
        if alpha > 0 and self.epsilon > 2.0 * nu * nu * self.f_max / alpha:
            raise ValueError("epsilon outside the validity range of the concentration bound")


@dataclass(frozen=True)
class SurrogateParams:
    h: int
    t: int
    m: int

    def fits_within(self, n: int) -> bool:
        return self.h <= n


def compute_parameters(budget: ParamBudget, n: int) -> SurrogateParams:
    """Smallest (h, t, m) meeting the concentration prerequisites:
    m >= max{2, 8 nu^2} (f_max/eps)^2 (n + ln(4/delta)), t >= log2(4m), h = t^2.

    The log in the (n + log 4/delta) term is natural; the 2^n union bound's
    log 2 factor is already absorbed into the leading n.
    """
    nu, _ = budget.noise.sub_exponential_params
    lead = max(2.0, 8.0 * nu * nu)
    m = math.ceil(lead * (budget.f_max / budget.epsilon) ** 2
                  * (n + math.log(4.0 / budget.delta)))
    t = max(1, math.ceil(math.log2(4 * m)))
    return SurrogateParams(h=t * t, t=t, m=m)
