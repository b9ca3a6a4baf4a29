"""SplitMix64 generator with named substreams.

Every stochastic component of the pipeline draws from its own substream so
episodes replay bit-exactly and components can be added or reordered without
perturbing each other's draws.  The whole contract fits in three lines, which
is the point: a port in any language can reproduce the streams.

    substream state0 = mix64(seed XOR fnv1a64(tag))
    next_u64():  state += 0x9E3779B97F4A7C15; return mix64(state)
    random():    top 53 bits of next_u64() scaled by 2**-53

`normal()` is Box-Muller (cosine branch) and always consumes exactly two
64-bit draws.

The generator is counter-based: the k-th draw is mix64(state0 + k * golden
mod 2**64), so a stream can skip ahead or be drawn in bulk without walking
it.  `Rng.advance(n)` leaves the state exactly where n `next_u64()` calls
would, in O(1).  `normal_block(states, n)` gives, for each start state, the
n values that n `normal()` calls from that state return, bit for bit: the
SplitMix64 draws run in one numpy uint64 pass, while log and cos stay
libm's (`math.log`, `math.cos`) per element, because numpy's vectorised log
and cos may differ from libm in the last bit (sqrt is correctly rounded in
both).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi

# numpy constants for the uint64 pass, so no operand is ever a Python int
# (which numpy 1.x may promote to float64 against uint64)
_U = np.uint64
_GOLDEN_U = _U(_GOLDEN)
_MIX_M1, _MIX_M2 = _U(0xBF58476D1CE4E5B9), _U(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U(11), _U(27), _U(30), _U(31)


def mix64(z: int) -> int:
    """SplitMix64 output scrambler."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array; products wrap mod 2**64."""
    z = (z ^ (z >> _S30)) * _MIX_M1
    z = (z ^ (z >> _S27)) * _MIX_M2
    return z ^ (z >> _S31)


def normal_block(states, n: int) -> np.ndarray:
    """Row k holds the n values of n `normal()` calls from state states[k].

    Bit-equal to the scalar calls (same draws, same libm log and cos, same
    operation order `0.0 + 1.0 * r * cos`), including the signed zero that
    `0.0 +` makes of a -0.0 product.  The Rngs themselves do not move; the
    caller advances them by 2 * n draws.
    """
    start = np.asarray(states, dtype=np.uint64).reshape(-1, 1)
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GOLDEN_U
    top = _mix64_array(start + steps) >> _S11
    u1 = (top[:, 0::2] + _U(1)).astype(np.float64) * 2.0**-53
    u2 = top[:, 1::2].astype(np.float64) * 2.0**-53
    logs = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64,
                       u1.size).reshape(u1.shape)
    r = np.sqrt(-2.0 * logs)
    cos = np.fromiter(map(math.cos, (_TWO_PI * u2).ravel().tolist()),
                      np.float64, u2.size).reshape(u2.shape)
    return 0.0 + 1.0 * r * cos


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 encoding, used to salt substream tags."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """64-bit splittable generator.  State is a single uint64."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    @classmethod
    def substream(cls, seed: int, tag: str) -> "Rng":
        return cls(mix64((seed & _MASK64) ^ fnv1a64(tag)))

    def getstate(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def advance(self, n: int) -> None:
        """Skip n draws: the state n `next_u64()` calls would leave."""
        self._state = (self._state + n * _GOLDEN) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        span = _MASK64 + 1
        limit = span - (span % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # u1 in (0, 1] so the log is finite; exactly two draws per call.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)
