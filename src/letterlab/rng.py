"""Deterministic 64-bit pseudorandom generator (splitmix64).

All randomized operations in this package (text generation, solver
restart keys) draw from this generator rather than the platform RNG, so
that a given seed produces bit-identical output everywhere. The exact
sequence, for anyone reimplementing it:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output  <- z XOR (z >> 31)

Floats in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.
Bounded integers use rejection sampling (no modulo bias): draw 64-bit
values until one falls below the largest multiple of n, then reduce.
Substream i of seed s is seeded with (first output of splitmix64(s)) XOR i.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """Splitmix64 stream starting from an integer seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def floats(self, count: int) -> list[float]:
        """The next `count` values of :meth:`next_float`, in one uint64 array pass."""
        import numpy as np

        u64 = np.uint64
        z = u64(self._state) + np.arange(1, count + 1, dtype=u64) * u64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> u64(30))) * u64(_MIX1)
        z = (z ^ (z >> u64(27))) * u64(_MIX2)
        z ^= z >> u64(31)
        return ((z >> u64(11)) * 2.0**-53).tolist()

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the back."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream number `index` derived from `seed`."""
    return SplitMix64(SplitMix64(seed).next_u64() ^ (index & _MASK64))
