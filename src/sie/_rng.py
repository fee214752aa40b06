"""Counter-based 64-bit generator used for reproducible discrete inputs.

This is the splitmix64 mixer: output m is mix(seed + (m+1)*GOLDEN), so any
element of a stream can be computed in O(1) and the sequence is identical on
every platform.  Constants are the published ones.
"""

from __future__ import annotations

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def splitmix64(seed: int, index: int) -> int:
    """The index-th raw output of the splitmix64 stream with the given seed."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def uniform01(seed: int, index: int) -> float:
    """Uniform double in [0, 1) with 53 random bits."""
    return (splitmix64(seed, index) >> 11) * 2.0**-53


def derive_seed(*parts: int) -> int:
    """Deterministically combine integers (root seed, offset index, trial, ...)
    into a fresh 64-bit seed, independent of evaluation order."""
    acc = 0x243F6A8885A308D3  # pi fraction, arbitrary nonzero start
    for p in parts:
        acc = mix64(acc ^ ((p & _MASK) * _GOLDEN & _MASK))
    return acc
