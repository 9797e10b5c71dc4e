"""Persistent multiplicative noise: f-tilde(S) = xi_S * f(S).

Persistence comes from keyed derivation, not memoization: the multiplier
for a set is a pure function of (master seed, set bits), derived by mixing
the bits into uniform variates.  There is no memo table: memory stays flat
across millions of distinct queries.

The mixer is a keyed counter-based generator in the manner of SplitMix
(Steele et al. 2014) and of Salmon et al. 2011.  `_mix` is a bijection of
128-bit integers: a xorshift by 64, a multiply mod 2^128 by an odd
constant, a xorshift, a multiply by a second constant, a xorshift.  Each
oracle derives its 128-bit key once, `_mix(_KEY_BASE ^ master_seed)`.  A
set's mask is read as 128-bit little-endian chunks, up to its highest
nonzero chunk (at least one): the key is XORed into the lowest chunk, each
higher chunk is XORed into the mix of the state below it, and the state is
mixed once more.  So a multiplier depends on the seed and the set alone,
not on the size of the ground set.  The low 53 bits of the result give
u_open in (0, 1], its top 53 bits u_half in [0, 1).

`multiplier_mask` runs the mixer in Python ints.  A batch of sets
(`value_masks`) runs it in numpy on its packed rows, the masks'
little-endian bytes (see `sets`), viewed as (low, high) uint64 halves,
with each 128-bit multiply done through 32-bit limbs, and maps the
uniforms through `NoiseSpec.multipliers`, the array form of
`NoiseSpec.multiplier`, so each of its values equals `value_mask` of that
set bit for bit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from math import cos, log, sqrt

import numpy as np

from .oracles import ValueOracle
from .sets import GroundSet, check_rows, map_chunks, mask_error
from .setfn import SetFunctionSpec, evaluate_mask

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
_MASK_53 = (1 << 53) - 1
_MASK_128 = (1 << 128) - 1
# the mixer's two odd multipliers, and the value XORed with a master seed to
# give the input of its key
_MUL_1 = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_2 = 0x5851F42D4C957F2D14057B7EF767814F
_KEY_BASE = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _mix(h: int) -> int:
    """The mixer on a 128-bit integer, a bijection that maps 0 to 0."""
    h ^= h >> 64
    h = h * _MUL_1 & _MASK_128
    h ^= h >> 64
    h = h * _MUL_2 & _MASK_128
    return h ^ h >> 64


_U64 = np.uint64
_LOW_32 = _U64(0xFFFFFFFF)
_SHIFT_32 = _U64(32)
# each multiplier as uint64 words: the low and high halves, and the two
# 32-bit limbs of the low half
_MUL_WORDS = tuple(tuple(_U64(word) for word in (mul & (1 << 64) - 1, mul >> 64,
                                                  mul & 0xFFFFFFFF, mul >> 32 & 0xFFFFFFFF))
                   for mul in (_MUL_1, _MUL_2))


def _mul_rows(low: np.ndarray, high: np.ndarray, words) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) times a multiplier's `words`, mod 2^128, on uint64
    halves.  uint64 products wrap mod 2^64, which gives the low half and
    the cross terms; the high 64 bits of low times the multiplier's low
    half come from their 32-bit limbs."""
    m_low, m_high, m0, m1 = words
    a0, a1 = low & _LOW_32, low >> _SHIFT_32
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    mid = (p00 >> _SHIFT_32) + (p01 & _LOW_32) + (p10 & _LOW_32)
    carry = a1 * m1 + (p01 >> _SHIFT_32) + (p10 >> _SHIFT_32) + (mid >> _SHIFT_32)
    return low * m_low, carry + low * m_high + high * m_low


def _mix_rows(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_mix` on arrays of (low, high) uint64 halves."""
    for words in _MUL_WORDS:
        low, high = _mul_rows(low ^ high, high, words)
    return low ^ high, high


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


NoiseDistribution = Gaussian | BoundedUniform | ShiftedExponential


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

    The master seed keys the mixer, so it must be an integer in [0, 2^64);
    a float seed raises TypeError rather than being truncated.
    """

    def __init__(self, base: SetFunctionSpec, noise: NoiseSpec, master_seed: int):
        self.base = base
        self.noise = noise
        self.master_seed = operator.index(master_seed)
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master seed {self.master_seed} outside [0, 2^64)")
        self.ground = GroundSet(base.n)
        self._n = self.ground.n
        # `mask >> self._low_bits` is nonzero for a mask outside the ground
        # set and for one past its first 128-bit chunk: one test on every
        # query finds both
        self._low_bits = min(self._n, 128)
        self._key = _mix(_KEY_BASE ^ self.master_seed)
        # without clamping, NoiseSpec.multiplier is the distribution's draw;
        # calling the draw directly saves a call on every query
        self._multiplier = noise.multiplier if noise.clamp_negative else noise.distribution.draw

    def multiplier_mask(self, mask: int) -> float:
        h = self._key ^ mask
        if mask >> self._low_bits:
            if mask >> self._n:
                raise mask_error(mask, self._n)
            while h >> 128:  # a higher chunk takes the mix of the state below it
                h = _mix(h & _MASK_128) ^ h >> 128
        h = _mix(h)
        return self._multiplier(((h & _MASK_53) + 1) * _INV_2_53, (h >> 75) * _INV_2_53)

    def value_mask(self, mask: int) -> float:
        # multiplier_mask rejects a mask outside the ground set first
        return self.multiplier_mask(mask) * evaluate_mask(self.base, mask)

    def uniforms(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The (u_open, u_half) arrays of the sets given by packed rows,
        each pair equal to the one `multiplier_mask` maps for that set."""
        return self._uniforms(check_rows(rows, self._n))

    def _uniforms(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`uniforms` of rows that `check_rows` has passed."""
        width = rows.shape[1]
        chunks = -(-width // 16)
        raw = np.zeros((len(rows), 16 * chunks), dtype=np.uint8)
        raw[:, :width] = rows
        # chunk c of a row as its (low, high) little-endian uint64 halves
        words = raw.view("<u8").reshape(len(rows), chunks, 2)
        low = words[:, 0, 0] ^ _U64(self._key & (1 << 64) - 1)
        high = words[:, 0, 1] ^ _U64(self._key >> 64)
        if chunks > 1:
            # more[:, c - 1]: the row has a nonzero chunk at c or above
            nonzero = np.any(words[:, :0:-1] != 0, axis=2)
            more = np.logical_or.accumulate(nonzero, axis=1)[:, ::-1]
            for c in range(1, chunks):
                mixed_low, mixed_high = _mix_rows(low, high)
                low = np.where(more[:, c - 1], mixed_low ^ words[:, c, 0], low)
                high = np.where(more[:, c - 1], mixed_high ^ words[:, c, 1], high)
        low, high = _mix_rows(low, high)
        # the 53-bit fields and their conversion to float are exact
        return ((low & _U64(_MASK_53)) + _U64(1)) * _INV_2_53, (high >> _U64(11)) * _INV_2_53

    def _value_rows(self, rows: np.ndarray) -> np.ndarray:
        def values(chunk):
            return self.noise.multipliers(*self._uniforms(chunk)) * self.base.value_masks(chunk)
        # the mixer keeps about 16 uint64 words per row and 128-bit chunk of
        # its mask (tracemalloc: 146 bytes per row at one chunk, 198 at three)
        return map_chunks(values, rows, 128 * -(-rows.shape[1] // 16))
