"""The random samples' generator: numpy's ``default_rng(seed)`` uniform stream, in Python.

``PCG64(seed).uniform(low, high, size)`` returns, bit for bit, the doubles
that numpy's ``default_rng(seed).uniform(low, high, size)`` returns, and
consecutive draws continue one stream as numpy's do.  The seed is mixed as
numpy's ``SeedSequence`` mixes it, into a pool of four 32-bit words, and
the pool's eight output words seed PCG64 (O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", 2014) as its ``srandom_r`` does.  Each double is the
top 53 bits of one XSL-RR 128/64 output, scaled to [0, 1).

Owning these lines keeps ``numpy.random``, and the ``secrets``,
``hashlib`` and OpenSSL it loads, out of every solve, and pins the stream
across numpy releases, which numpy's policy (NEP 19) does not promise for
``Generator`` methods.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: SeedSequence's mixing order over a pool of 4: every pool word into every other.
_CROSS = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit state and odd increment as ``default_rng(seed)`` sets them.

    ``seed`` is a nonnegative int, read as 32-bit words, least significant
    first.  ``SeedSequence`` hashes the first four words into its pool
    (zeros past a shorter seed), mixes each pool word into every other,
    then each later word into every pool word, and hashes the pool, read
    twice over, into eight words.  Read as two 128-bit numbers, high word
    first, these are the initial state and sequence that ``srandom_r`` takes.
    """
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    entropy += [0] * (4 - len(entropy))
    h, pool = _INIT_A, []  # h, the hash constant, steps at every hash
    for word in entropy[:4]:
        word = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
        pool.append(word ^ word >> 16)
    pool += entropy[4:]  # read as mixing sources only
    for src, dst in _CROSS + tuple((src, dst) for src in range(4, len(pool)) for dst in range(4)):
        word = (pool[src] ^ h) * (h := h * _MULT_A & _M32) & _M32
        mixed = (_MIX_L * pool[dst] - _MIX_R * (word ^ word >> 16)) & _M32
        pool[dst] = mixed ^ mixed >> 16
    h, words = _INIT_B, []
    for word in pool[:4] * 2:
        word = (word ^ h) * (h := h * _MULT_B & _M32) & _M32
        words.append(word ^ word >> 16)
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    initstate = (w1 << 32 | w0) << 64 | w3 << 32 | w2
    inc = ((w5 << 32 | w4) << 64 | w7 << 32 | w6) << 1 & _M128 | 1
    return ((inc + initstate) * _MULT + inc) & _M128, inc


class PCG64:
    """numpy's ``default_rng(seed)``, for ``uniform`` draws only."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        self.state, self.inc = _seed_state(seed)

    def uniform(self, low: float, high: float, size: tuple[int, int]) -> np.ndarray:
        """A ``size`` array of doubles ``low + (high - low) * U``, filled row by row.

        U is ``(next64 >> 11) * 2**-53`` for each next 64-bit output, as
        numpy computes it.  ``low`` and ``high`` are finite.
        """
        rows, cols = size
        low = float(low)
        span = float(high) - low
        state, inc, out = self.state, self.inc, []
        mult, m128, m64, m53, twice = _MULT, _M128, _M64, (1 << 53) - 1, (1 << 64) + 1
        for _ in range(rows * cols):
            state = (state * mult + inc) & m128
            # XSL-RR: x = high ^ low word, rotated right by the state's top 6 bits; x
            # written twice over lets one shift rotate it and drop its low 11 bits
            out.append(low + span * (((((state >> 64 ^ state) & m64) * twice
                                        >> (state >> 122) + 11) & m53) * 2.0 ** -53))
        self.state = state
        return np.array(out, dtype=np.float64).reshape(rows, cols)
