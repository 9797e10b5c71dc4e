"""Persistent multiplicative noise: f-tilde(S) = xi_S * f(S).

Persistence comes from stateless keyed derivation, not memoization: the
multiplier for a set is a pure function of (master seed, canonical set
bits), derived by hashing the bits into uniform variates.  This keeps
memory flat across millions of distinct queries and is trivially
thread-safe.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .oracles import ValueOracle
from .setfn import SetFunctionSpec, evaluate_mask, ground_of

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class Gaussian:
    """Normal(mean 1, variance sigma2)."""

    sigma2: float

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        return (math.sqrt(self.sigma2), 0.0)

    def draw(self, u_open: float, u_half: float) -> float:
        z = math.sqrt(-2.0 * math.log(u_open)) * math.cos(_TWO_PI * u_half)
        return 1.0 + math.sqrt(self.sigma2) * z


@dataclass(frozen=True)
class BoundedUniform:
    """Uniform on [1 - halfwidth, 1 + halfwidth]."""

    halfwidth: float

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        # bounded in an interval of width 2a
        return (2.0 * self.halfwidth, 0.0)

    def draw(self, u_open: float, u_half: float) -> float:
        return 1.0 - self.halfwidth + 2.0 * self.halfwidth * u_half


@dataclass(frozen=True)
class ShiftedExponential:
    """Exponential(rate) shifted to mean 1; support [1 - 1/rate, inf)."""

    rate: float

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        return (2.0 / self.rate, 2.0 / self.rate)

    def draw(self, u_open: float, u_half: float) -> float:
        return 1.0 - 1.0 / self.rate - math.log(u_open) / self.rate


NoiseDistribution = Union[Gaussian, BoundedUniform, ShiftedExponential]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise multiplier distribution with E[xi] = 1.

    clamp_negative maps negative draws to 0 for strict conformance with a
    non-negative oracle; it defaults to off, matching the unclamped
    Normal(1, 0.1) used in the benchmark experiments.
    """

    distribution: NoiseDistribution
    clamp_negative: bool = False

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        return self.distribution.sub_exponential_params

    @property
    def sub_exponential_norm(self) -> float:
        nu, alpha = self.sub_exponential_params
        return max(nu, alpha)

    def multiplier(self, u_open: float, u_half: float) -> float:
        """Map uniforms (u_open in (0,1], u_half in [0,1)) to one multiplier draw."""
        xi = self.distribution.draw(u_open, u_half)
        if self.clamp_negative and xi < 0.0:
            return 0.0
        return xi


def sample_multiplier(spec: NoiseSpec, stream: np.random.Generator) -> float:
    """One multiplier draw from an ordinary RNG stream."""
    u1, u2 = stream.random(2)
    return spec.multiplier(1.0 - u1, u2)


class PersistentNoisyOracle(ValueOracle):
    """f-tilde(S) = xi_S * f(S) with unbiased, per-set-independent,
    query-persistent multipliers keyed by (master_seed, set bits).

    The master seed is the 8-byte hash key, so it must lie in [0, 2^64).
    """

    def __init__(self, base: SetFunctionSpec, noise: NoiseSpec, master_seed: int):
        self.base = base
        self.noise = noise
        self.master_seed = int(master_seed)
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master seed {self.master_seed} outside [0, 2^64)")
        self.ground = ground_of(base)
        self._key = self.master_seed.to_bytes(8, "little")
        self._width = (self.ground.n + 7) // 8

    def multiplier_mask(self, mask: int) -> float:
        digest = hashlib.blake2b(
            mask.to_bytes(self._width, "little"), digest_size=16, key=self._key
        ).digest()
        bits = int.from_bytes(digest, "little")
        u_open = ((bits & ((1 << 53) - 1)) + 1) * _INV_2_53
        u_half = ((bits >> 53) & ((1 << 53) - 1)) * _INV_2_53
        return self.noise.multiplier(u_open, u_half)

    def value_mask(self, mask: int) -> float:
        return self.multiplier_mask(mask) * evaluate_mask(self.base, mask)
