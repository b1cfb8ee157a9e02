"""Deterministic random stream for scenario runs.

Scenario reproducibility is a file-format promise: the same config must
produce byte-identical outputs on any host or language. The stdlib Mersenne
Twister is deterministic but its float path and language-specific stream
layout make it a poor cross-implementation contract, so scenarios use
splitmix64 — a tiny, widely documented 64-bit generator that is trivial to
reimplement from its three constants.

Stream contract (documented for independent reimplementation):

* state starts at ``seed`` taken modulo 2**64;
* each step adds 0x9E3779B97F4A7C15 to the state and returns the state
  passed through two xor-shift-multiply rounds (0xBF58476D1CE4E5B9 with
  shift 30, 0x94D049BB133111EB with shift 27) and a final 31-bit xor-shift;
* the stream is therefore counter-based: the i-th output mixes the state
  ``seed + i*0x9E3779B97F4A7C15 mod 2**64``, so any contiguous run of draws
  can be computed at once (``SplitMix64.draws``) and equals the same run of
  single steps;
* bounded draws use plain modulo, ``raw % bound``, on one 64-bit output,
  accepted in exchange for exact reproducibility — rejection sampling would
  make the number of raw draws data-dependent. Up to a bound of 2**64 the
  modulo bias is at most ``bound/2**64``. Past it the draw is far from
  uniform: it is ``raw`` itself, below 2**64 however large the bound.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 array arithmetic wraps modulo 2**64, exactly like the masked ints above
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


class SplitMix64:
    """splitmix64 generator producing a reproducible uint64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        """Advance one step and return the next 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draws(self, count: int) -> np.ndarray:
        """Return the next ``count`` outputs as a uint64 array, as ``next_uint64`` would.

        ``count`` must be non-negative. The stream is counter-based: output i
        (from 1) of a generator in state s mixes ``s + i*GAMMA mod 2**64``,
        so the run of outputs is one vectorised pass over those states. The
        state then advances by ``count`` steps.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        state = self._state
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(state)
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        self._state = (state + count * _GAMMA) & _MASK64
        return z

    def below(self, bound: int) -> int:
        """Return an integer in [0, bound) via one modulo-reduced draw.

        ``bound`` must be positive. Consumes exactly one uint64 regardless
        of the bound, which keeps draw counts config-independent.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_uint64() % bound
