"""Vectorized unary bit codec for term frequencies.

Bit format matches the reference (reference src/codes/unary.hpp:190-326):
a value ``f >= 1`` is written as ``f-1`` one-bits followed by a zero-bit,
LSB-first within each byte. The final byte's padding zero-bits would
decode as phantom values (reference src/codes/unary.hpp:55) — consumers
must bound decoding by the *docid-stream* value count, never by freq
bytes (reference src/index/Index.hpp:193). :func:`decode` therefore takes
an explicit count.

Skip-pointer freq offsets are bit-granular: ``(byte_off << 3) | bit_off``
(reference src/codes/unary.hpp:18-44).
"""

from __future__ import annotations

import numpy as np


def encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``values`` (all >= 1) → (packed bytes, per-value bit lengths).

    ``bit_lengths.cumsum()`` gives each value's start bit position, used
    for skip-pointer freq offsets.
    """
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    assert (v >= 1).all()
    total_bits = int(v.sum())
    bits = np.ones(total_bits, dtype=np.uint8)
    bits[np.cumsum(v) - 1] = 0  # terminating zero-bit of each value
    return np.packbits(bits, bitorder="little"), v


def decode(buf: np.ndarray, count: int, start_bit: int = 0) -> np.ndarray:
    """Decode exactly ``count`` values starting at ``start_bit``."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.asarray(buf, dtype=np.uint8), bitorder="little")
    if start_bit:
        bits = bits[start_bit:]
    zeros = np.flatnonzero(bits == 0)[:count]
    vals = np.empty(count, dtype=np.int64)
    vals[0] = zeros[0] + 1
    np.subtract(zeros[1:], zeros[:-1], out=vals[1:])
    return vals.astype(np.uint64)
