"""Vectorized VarByte (7-bit variable-length) integer codec.

Byte format matches the reference (reference src/codes/variable_blocks.hpp:242-302):
little-endian 7-bit groups, MSB set = more bytes follow, value 0 encodes
as a single ``0x00`` byte. Golden-tested against the reference's unit
vectors (reference tests/test_codes_variable_blocks.cpp:7-57).

Everything is numpy array-at-a-time: encoding a whole posting column is
one pass; per-term byte ranges are recovered from the per-value length
prefix sums, so a segment's entire docid column is encoded in a single
call and then sliced per term.
"""

from __future__ import annotations

import numpy as np


def encoded_lengths(values: np.ndarray) -> np.ndarray:
    """Per-value encoded byte length (1..10)."""
    v = np.asarray(values, dtype=np.uint64)
    n = np.ones(len(v), dtype=np.int64)
    for k in range(1, 10):
        n += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    return n


def encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``values`` → (bytes array uint8, per-value byte lengths).

    ``lengths.cumsum()`` gives value→byte-offset mapping for slicing.
    """
    v = np.asarray(values, dtype=np.uint64)
    if len(v) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    lengths = encoded_lengths(v)
    total = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # position of each output byte within its value
    byte_slot = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    vals_rep = np.repeat(v, lengths)
    out = ((vals_rep >> (np.uint64(7) * byte_slot.astype(np.uint64))) & np.uint64(0x7F)).astype(np.uint8)
    is_last = byte_slot == np.repeat(lengths - 1, lengths)
    out[~is_last] |= 0x80
    return out, lengths


def decode(buf: np.ndarray) -> np.ndarray:
    """Decode a full VarByte byte stream into a uint64 array."""
    b = np.asarray(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.zeros(0, dtype=np.uint64)
    terminators = (b & 0x80) == 0
    starts = np.concatenate(([0], np.flatnonzero(terminators)[:-1] + 1))
    byte_slot = np.arange(len(b), dtype=np.int64) - np.repeat(
        starts, np.diff(np.concatenate((starts, [len(b)])))
    )
    parts = (b & np.uint8(0x7F)).astype(np.uint64) << (
        np.uint64(7) * byte_slot.astype(np.uint64)
    )
    return np.add.reduceat(parts, starts)
