"""Smoothing-set surrogates.

The surrogate of f at S averages f over unions of S with size-t subsets
of a smoothing set H.  The sampled variant freezes m distinct t-subsets
once and averages the persistent noisy oracle over them, so persistence
lifts from the raw oracle to the surrogate.

A batch of k sets (`value_masks`, packed rows: see `sets`) ORs each
row with the m packed samples and sends the k*m unions to the inner
oracle's own batch and averages each set's m values left to right, so each
of its values equals `value_mask` of that set bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .noise import NoiseSpec
from .oracles import ValueOracle
from .sets import ElementSet, GroundSet, all_k_subset_masks, map_chunks, mask_rows, random_k_subset_mask
# `evaluate_mask` is not called here, but perfbench's tracer requires every
# module on its list (setfn, noise, oracles, surrogate) to hold the name.
from .setfn import _left_sum, evaluate_mask  # noqa: F401


def sample_t_subsets_without_replacement(H: ElementSet, t: int, m: int,
                                         rng: np.random.Generator) -> list[ElementSet]:
    """m pairwise-distinct t-subsets of H, uniform over m-subsets of H[t].

    Dense regime (C(h,t) <= 4m): a uniform m-subset of the ranks indexes
    the enumeration of all t-subsets.
    Sparse regime: rejection sampling with a seen-set; each accept takes
    under 2 draws in expectation since m <= C(h,t)/4 there.
    """
    members = list(H)
    total = comb(len(members), t)
    if m > total:
        raise ValueError(f"cannot draw {m} distinct {t}-subsets, only C({len(members)},{t})={total}")
    if total <= 4 * m:
        every = list(all_k_subset_masks(members, t))
        masks = [every[r] for r in rng.choice(total, size=m, replace=False)]
    else:
        seen = set()
        masks = []
        while len(masks) < m:
            mask = random_k_subset_mask(members, t, rng)
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
    return [ElementSet(H.ground, mask) for mask in masks]


def check_surrogate_sizes(h: int, t: int, m: int) -> None:
    """The sizes `SurrogateConfig` and `meta.MetaConfig` share:
    0 <= t < h (t = 0 and m = 1 when h = 0) and 1 <= m <= C(h, t)."""
    if m < 1:
        raise ValueError(f"need m >= 1 frozen samples, got m={m}")
    if h == 0:
        if t != 0 or m != 1:
            raise ValueError("degenerate surrogate requires t=0, m=1")
    elif not 0 <= t < h:
        raise ValueError(f"need 0 <= t < h, got t={t}, h={h}")
    if m > comb(h, t):
        raise ValueError(f"m={m} exceeds C({h},{t})")


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
        check_surrogate_sizes(len(self.smoothing_set), self.t, self.m)
        if len(self.fixed_samples) != self.m:
            raise ValueError("number of frozen samples differs from m")
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
            return cls(H, t, m, (H,))
        samples = sample_t_subsets_without_replacement(H, t, m, rng)
        return cls(H, t, m, tuple(samples))


class SampledSurrogateOracle(ValueOracle):
    """Average of a value oracle over the frozen t-subset unions."""

    def __init__(self, inner: ValueOracle, cfg: SurrogateConfig):
        inner.ground.check_same(cfg.smoothing_set.ground, "surrogate config", "oracle")
        self.inner = inner
        self.cfg = cfg
        self.ground = inner.ground
        self._sample_masks = [hs.mask for hs in cfg.fixed_samples]
        self._sample_rows = mask_rows(self._sample_masks, self.ground.n)

    def value_mask(self, mask: int) -> float:
        inner_value = self.inner.value_mask
        total = 0.0
        for hmask in self._sample_masks:
            total += inner_value(mask | hmask)
        return total / len(self._sample_masks)

    def _value_rows(self, rows: np.ndarray) -> np.ndarray:
        samples = self._sample_rows
        m, width = samples.shape

        def means(chunk):
            # row j of a set's m unions is the set | H'_j, in sample order
            unions = (chunk[:, None, :] | samples).reshape(-1, width)
            return _left_sum(self.inner.value_masks(unions).reshape(-1, m)) / m
        # a row keeps its m unions and their m values
        return map_chunks(means, rows, m * (width + 8))


@dataclass(frozen=True)
class ParamBudget:
    """Accuracy/confidence budget for sizing the sampled surrogate."""

    epsilon: float
    delta: float
    f_max: float
    noise: NoiseSpec

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 < self.f_max < math.inf:
            raise ValueError(f"f_max must be finite and > 0, got {self.f_max}")
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
    GroundSet(n)
    nu, _ = budget.noise.sub_exponential_params
    lead = max(2.0, 8.0 * nu * nu)
    m = math.ceil(lead * (budget.f_max / budget.epsilon) ** 2
                  * (n + math.log(4.0 / budget.delta)))
    t = max(1, math.ceil(math.log2(4 * m)))
    return SurrogateParams(h=t * t, t=t, m=m)
