"""Persistent multiplicative noise: f-tilde(S) = xi_S * f(S).

Persistence comes from keyed derivation, not memoization: the multiplier
for a set is a pure function of (master seed, canonical set bits), derived
by hashing the bits into uniform variates.  Each oracle keys one BLAKE2b
hasher with its master seed once, and every query hashes its mask on a
copy of it, so the key block is not absorbed again per query.  There is no
memo table: memory stays flat across millions of distinct queries.

A batch of sets (`value_masks`) hashes the same bytes on the same keyed
hasher and maps the digests through `NoiseSpec.multipliers`, the array
form of `NoiseSpec.multiplier`, so each of its values equals `value_mask`
of that set bit for bit.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from math import cos, log, sqrt
from typing import Union

import numpy as np

from .oracles import ValueOracle, check_rows, mask_error
from .sets import GroundSet
from .setfn import SetFunctionSpec, evaluate_mask, evaluate_masks

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
_MASK_53 = (1 << 53) - 1


class _MappedInMath:
    """`draws` maps the scalar `draw` over arrays of uniforms in `math`:
    np.log can differ from math.log in the last bit."""

    def draws(self, u_open: np.ndarray, u_half: np.ndarray) -> np.ndarray:
        draw = self.draw
        return np.array([draw(a, b) for a, b in zip(u_open.tolist(), u_half.tolist())],
                        dtype=np.float64)


@dataclass(frozen=True)
class Gaussian(_MappedInMath):
    """Normal(mean 1, variance sigma2)."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        return (math.sqrt(self.sigma2), 0.0)

    @cached_property
    def _sd(self) -> float:
        return sqrt(self.sigma2)

    def draw(self, u_open: float, u_half: float) -> float:
        z = sqrt(-2.0 * log(u_open)) * cos(_TWO_PI * u_half)
        return 1.0 + self._sd * z


@dataclass(frozen=True)
class BoundedUniform:
    """Uniform on [1 - halfwidth, 1 + halfwidth]."""

    halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.halfwidth < math.inf:
            raise ValueError(f"halfwidth must be finite and >= 0, got {self.halfwidth}")

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        # bounded in an interval of width 2a
        return (2.0 * self.halfwidth, 0.0)

    @cached_property
    def _low(self) -> float:
        return 1.0 - self.halfwidth

    @cached_property
    def _width(self) -> float:
        return 2.0 * self.halfwidth

    def draw(self, u_open: float, u_half: float) -> float:
        return self._low + self._width * u_half

    def draws(self, u_open: np.ndarray, u_half: np.ndarray) -> np.ndarray:
        # a numpy multiply, then an add: each rounds as the scalar's does
        return self._low + self._width * u_half


@dataclass(frozen=True)
class ShiftedExponential(_MappedInMath):
    """Exponential(rate) shifted to mean 1; support [1 - 1/rate, inf)."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")

    @property
    def sub_exponential_params(self) -> tuple[float, float]:
        return (2.0 / self.rate, 2.0 / self.rate)

    @cached_property
    def _low(self) -> float:
        return 1.0 - 1.0 / self.rate

    def draw(self, u_open: float, u_half: float) -> float:
        # log(u)/rate stays a division: a cached 1/rate times log(u) can
        # differ from it in the last bit
        return self._low - log(u_open) / self.rate


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

    def multiplier(self, u_open: float, u_half: float) -> float:
        """Map uniforms (u_open in (0,1], u_half in [0,1)) to one multiplier draw."""
        xi = self.distribution.draw(u_open, u_half)
        if self.clamp_negative and xi < 0.0:
            return 0.0
        return xi

    def multipliers(self, u_open: np.ndarray, u_half: np.ndarray) -> np.ndarray:
        """`multiplier` over arrays of uniforms, each draw bit for bit equal."""
        xi = self.distribution.draws(u_open, u_half)
        if self.clamp_negative:
            return np.where(xi < 0.0, 0.0, xi)
        return xi


def sample_multipliers(spec: NoiseSpec, stream: np.random.Generator, size: int) -> np.ndarray:
    """`size` multiplier draws from an ordinary RNG stream, each from the
    stream's next two doubles, mapped as the noisy oracles map them."""
    u = stream.random((size, 2))
    return spec.multipliers(1.0 - u[:, 0], u[:, 1])


class PersistentNoisyOracle(ValueOracle):
    """f-tilde(S) = xi_S * f(S) with unbiased, per-set-independent,
    query-persistent multipliers keyed by (master_seed, set bits).

    The master seed is the 8-byte hash key, so it must be an integer in
    [0, 2^64); a float seed raises TypeError rather than being truncated.
    """

    def __init__(self, base: SetFunctionSpec, noise: NoiseSpec, master_seed: int):
        self.base = base
        self.noise = noise
        self.master_seed = operator.index(master_seed)
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master seed {self.master_seed} outside [0, 2^64)")
        self.ground = GroundSet(base.n)
        self._n = self.ground.n
        self._width = (self._n + 7) // 8
        # keyed once; each query hashes its mask on a copy
        self._hasher = hashlib.blake2b(
            digest_size=16, key=self.master_seed.to_bytes(8, "little"))
        self._multiplier = noise.multiplier

    def __reduce__(self):
        # a hasher cannot be pickled or deep-copied; rebuild the oracle
        return (type(self), (self.base, self.noise, self.master_seed))

    def multiplier_mask(self, mask: int) -> float:
        if mask >> self._n:
            raise mask_error(mask, self._n)
        hasher = self._hasher.copy()
        hasher.update(mask.to_bytes(self._width, "little"))
        bits = int.from_bytes(hasher.digest(), "little")
        u_open = ((bits & _MASK_53) + 1) * _INV_2_53
        u_half = ((bits >> 53) & _MASK_53) * _INV_2_53
        return self._multiplier(u_open, u_half)

    def value_mask(self, mask: int) -> float:
        # multiplier_mask rejects a mask outside the ground set before the
        # set function sees it
        return self.multiplier_mask(mask) * evaluate_mask(self.base, mask)

    def value_masks(self, rows) -> np.ndarray:
        rows = check_rows(rows, self._n)
        # each packed row is the bytes of mask.to_bytes(width, "little")
        packed = np.packbits(rows, axis=1, bitorder="little").tobytes()
        width, copy = self._width, self._hasher.copy

        def digest(data: bytes) -> bytes:
            hasher = copy()
            hasher.update(data)
            return hasher.digest()

        digests = b"".join([digest(packed[i: i + width])
                            for i in range(0, len(packed), width)])
        # the 128-bit little-endian digest as (low, high) 64-bit words; the
        # 53-bit fields and their conversion to float are exact
        words = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        low, high = words[:, 0], words[:, 1]
        u_open = ((low & np.uint64(_MASK_53)) + np.uint64(1)) * _INV_2_53
        u_half = ((low >> np.uint64(53))
                  | ((high & np.uint64((1 << 42) - 1)) << np.uint64(11))) * _INV_2_53
        return self.noise.multipliers(u_open, u_half) * evaluate_masks(self.base, rows)
