"""Keyed draws: ``np.random.default_rng(entropy)`` for many keys at once.

Closed-loop serving traffic draws each request's lengths from a generator
keyed by identity (``[seed, req_id]``), so a draw never depends on the
order in which callers ask.  Building one numpy ``Generator`` per key
costs tens of microseconds each; :class:`KeyedDraws` runs the same
arithmetic for every key in one pass over ``uint32`` / ``uint64`` arrays
and returns bit for bit what numpy returns:

* ``SeedSequence``: entropy coercion (:func:`entropy_words`), pool mixing
  (``mix_entropy``, including entropy longer than the 4-word pool) and
  ``generate_state(4, uint64)``;
* ``PCG64``: 128-bit seeding and LCG stepping, the XSL-RR output, and the
  buffered upper half that ``next_uint32`` keeps between calls;
* ``Generator.integers(lo, hi)`` (int64) for ``hi - lo < 2**32``: no draw
  for a width of 1, else 32-bit Lemire with rejection.  Wider ranges
  (numpy's full 32-bit and 64-bit branches) raise ``ValueError``: nothing
  draws them.

Draws follow one another per key as on a numpy ``Generator``; a key whose
Lemire draw is rejected redraws alone.  For one key, ``default_rng`` is
faster (a vectorized pass over size-1 arrays is hundreds of numpy calls).
``tests/test_keyed_rng.py`` pins every value to numpy's.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit words
_MUL_HI, _MUL_LO = _U64(2549297995355413924), _U64(4865540595714422341)


def entropy_words(entropy: Union[int, Iterable[int]]) -> np.ndarray:
    """``SeedSequence``'s coercion of an int, or a sequence of ints, to
    ``uint32`` words: each int little-endian in 32-bit words, 0 as one
    word; a negative int raises ``ValueError`` as numpy does."""
    values = ([entropy] if isinstance(entropy, (int, np.integer))
              else list(entropy))
    words = []
    for v in values:
        v = int(v)
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return np.array(words, dtype=_U32)


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (``uint64``)."""
    a0, a1 = a & _M32, a >> _U64(32)
    b0, b1 = b & _M32, b >> _U64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


class KeyedDraws:
    """One PCG64 stream per row of ``words`` (an ``(n_keys, n_words)``
    ``uint32`` array of :func:`entropy_words`), as seeded by
    ``np.random.default_rng(entropy)``.  Each call draws once per key and
    returns an array over the keys."""

    def __init__(self, words: np.ndarray) -> None:
        words = np.asarray(words, dtype=_U32)
        n, width = words.shape
        # mix_entropy: hash the entropy (0 past its end) into the pool,
        # let every pool word mix into every other, then fold in the
        # entropy past the pool.  The hash constant advances before each
        # use and never depends on the data: one sequence for every key.
        hc = _INIT_A
        pool = []
        zero = np.zeros(n, dtype=_U32)
        for i in range(_POOL):
            xor, hc = hc, (hc * _MULT_A) & 0xFFFFFFFF
            v = ((words[:, i] if i < width else zero) ^ _U32(xor)) * _U32(hc)
            pool.append(v ^ (v >> _U32(16)))
        for i_src in range(max(_POOL, width)):
            for i_dst in range(_POOL):
                if i_src == i_dst:
                    continue
                xor, hc = hc, (hc * _MULT_A) & 0xFFFFFFFF
                h = pool[i_src] if i_src < _POOL else words[:, i_src]
                h = (h ^ _U32(xor)) * _U32(hc)
                h ^= h >> _U32(16)
                r = _MIX_L * pool[i_dst] - _MIX_R * h
                pool[i_dst] = r ^ (r >> _U32(16))
        # generate_state(4, uint64): eight words cycled off the pool,
        # paired little-endian into (seed_hi, seed_lo, inc_hi, inc_lo)
        hc = _INIT_B
        s = []
        for i in range(8):
            xor, hc = hc, (hc * _MULT_B) & 0xFFFFFFFF
            v = (pool[i % _POOL] ^ _U32(xor)) * _U32(hc)
            v = (v ^ (v >> _U32(16))).astype(_U64)
            if i % 2:
                s.append(low | (v << _U64(32)))
            low = v
        # pcg64_set_seed: inc = (initseq << 1) | 1; step; state += seed; step
        self._inc_hi = (s[2] << _U64(1)) | (s[3] >> _U64(63))
        self._inc_lo = (s[3] << _U64(1)) | _U64(1)
        lo = self._inc_lo + s[1]
        hi = self._inc_hi + s[0] + (lo < s[1]).astype(_U64)
        self._hi, self._lo = hi, lo
        self._all = np.arange(n)
        self._next64(self._all)  # the seeding's second step
        #: next_uint32's buffered upper half, per key
        self._has32 = np.zeros(n, dtype=bool)
        self._buf32 = np.zeros(n, dtype=_U64)

    def _next64(self, idx: np.ndarray) -> np.ndarray:
        """``next_uint64`` for the keys ``idx``: step the state
        (state * MUL + inc, mod 2^128), then XSL-RR the new state."""
        hi, lo = self._hi[idx], self._lo[idx]
        inc_lo = self._inc_lo[idx]
        new_lo = lo * _MUL_LO + inc_lo
        hi = (_mulhi(lo, _MUL_LO) + lo * _MUL_HI + hi * _MUL_LO
              + self._inc_hi[idx] + (new_lo < inc_lo).astype(_U64))
        self._hi[idx], self._lo[idx] = hi, new_lo
        x = hi ^ new_lo
        rot = hi >> _U64(58)
        return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))

    def _next32(self, idx: np.ndarray) -> np.ndarray:
        """``next_uint32`` for the keys ``idx``: a buffered upper half if
        the key has one, else the low half of a fresh ``next_uint64``."""
        has = self._has32[idx]
        out = self._buf32[idx]
        fresh = idx[~has]
        v = self._next64(fresh)
        out[~has] = v & _M32
        self._buf32[fresh] = v >> _U64(32)
        self._has32[idx] = ~has
        return out

    def integers(self, lo: int, hi: int) -> np.ndarray:
        """``Generator.integers(lo, hi)`` (``int64``) for every key, for
        ``0 < hi - lo < 2**32``."""
        lo, hi = int(lo), int(hi)
        span = hi - 1 - lo
        if not (0 <= span < 0xFFFFFFFF and -2**63 <= lo and hi <= 2**63):
            raise ValueError(f"need 0 < hi - lo < 2**32 within int64, "
                             f"got [{lo}, {hi})")
        idx = self._all
        if span == 0:
            draw = np.zeros(len(idx), dtype=_U64)
        else:
            # buffered_bounded_lemire_uint32
            excl = _U64(span + 1)
            threshold = _U64((0xFFFFFFFF - span) % (span + 1))
            m = self._next32(idx) * excl
            bad = np.flatnonzero((m & _M32) < threshold)
            while len(bad):
                m[bad] = self._next32(bad) * excl
                bad = bad[(m[bad] & _M32) < threshold]
            draw = m >> _U64(32)
        return (draw + _U64(lo % 2**64)).view(np.int64)
