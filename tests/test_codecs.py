"""Codec goldens ported verbatim from the reference unit tests
(reference tests/test_codes_variable_blocks.cpp, tests/test_codes_unary.cpp)
plus vectorized roundtrip/property tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from searchenginepp_ray.codecs import unary, varbyte


def test_varbyte_golden_decode():
    # reference tests/test_codes_variable_blocks.cpp:7-16
    buf = np.array([0x03, 0xEE, 0x91, 0x04], dtype=np.uint8)
    assert varbyte.decode(buf).tolist() == [3, 67822]
    assert len(varbyte.decode(buf)) == 2


def test_varbyte_golden_encode():
    out, lengths = varbyte.encode(np.array([3, 67822], dtype=np.uint64))
    assert out.tolist() == [0x03, 0xEE, 0x91, 0x04]
    assert lengths.tolist() == [1, 3]


def test_varbyte_sizes():
    # reference tests/test_codes_variable_blocks.cpp:44-57 + the
    # value-0 single-0x00-byte rule (src/codes/variable_blocks.hpp:261-271)
    assert varbyte.encoded_lengths(np.array([10])).tolist() == [1]
    assert varbyte.encoded_lengths(np.array([1000])).tolist() == [2]
    assert varbyte.encoded_lengths(np.array([1000000])).tolist() == [3]
    out, _ = varbyte.encode(np.array([0], dtype=np.uint64))
    assert out.tolist() == [0x00]
    assert varbyte.decode(out).tolist() == [0]


def test_varbyte_roundtrip_reference_vector():
    # reference tests/test_codes_variable_blocks.cpp:20
    vals = [10, 100, 1000, 10000, 0xCAFEBABE, 12345, 0xDEADBEEF, 0xDEADBEEF]
    out, lengths = varbyte.encode(np.array(vals, dtype=np.uint64))
    assert varbyte.decode(out).tolist() == vals
    assert int(lengths.sum()) == len(out)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varbyte_roundtrip_property(vals):
    out, lengths = varbyte.encode(np.array(vals, dtype=np.uint64))
    assert varbyte.decode(out).tolist() == vals
    # offsets from length prefix sums slice to per-value streams
    offs = np.concatenate(([0], np.cumsum(lengths)))
    for i, v in enumerate(vals):
        assert varbyte.decode(out[offs[i]:offs[i + 1]]).tolist() == [v]


UNARY_GOLDEN_BYTES = [0b00000011, 0b01101110, 0b10010001, 0b01110101]
UNARY_GOLDEN_VALUES = [3, 1, 1, 1, 1, 1, 1, 4, 3, 2, 1, 1, 2, 1, 3, 2, 4]


def test_unary_golden_decode():
    # reference tests/test_codes_unary.cpp:4-21
    got = unary.decode(np.array(UNARY_GOLDEN_BYTES, dtype=np.uint8), len(UNARY_GOLDEN_VALUES))
    assert got.tolist() == UNARY_GOLDEN_VALUES


def test_unary_golden_encode():
    # reference tests/test_codes_unary.cpp:37-57
    out, bit_lengths = unary.encode(np.array(UNARY_GOLDEN_VALUES))
    assert out.tolist() == UNARY_GOLDEN_BYTES
    assert bit_lengths.tolist() == UNARY_GOLDEN_VALUES


def test_unary_bit_offset_start():
    # reference tests/test_codes_unary.cpp:23-34 — start at bit 3 ⇒ first
    # value dropped
    got = unary.decode(
        np.array(UNARY_GOLDEN_BYTES, dtype=np.uint8),
        len(UNARY_GOLDEN_VALUES) - 1,
        start_bit=3,
    )
    assert got.tolist() == UNARY_GOLDEN_VALUES[1:]


def test_unary_phantom_padding():
    # padding zero-bits decode as phantom 1s — count bounds protect us
    # (reference src/codes/unary.hpp:55)
    out, _ = unary.encode(np.array([3, 2]))
    assert unary.decode(out, 2).tolist() == [3, 2]
    # decoding "one more" reads a phantom 1 from padding
    assert unary.decode(out, 3).tolist() == [3, 2, 1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=200))
def test_unary_roundtrip_property(vals):
    out, bit_lengths = unary.encode(np.array(vals))
    assert unary.decode(out, len(vals)).tolist() == vals
    # start-bit resume at every value boundary
    starts = np.concatenate(([0], np.cumsum(bit_lengths)))
    k = len(vals) // 2
    byte_off, bit_off = divmod(int(starts[k]), 8)
    got = unary.decode(out[byte_off:], len(vals) - k, start_bit=bit_off)
    assert got.tolist() == vals[k:]


# ---------- delta-gap segment encoding ----------

from hypothesis import given as _given


@_given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=400,
             unique=True),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_dgap_blockrestart_roundtrip(docids, block):
    """Delta-gap with absolute restarts every `block` postings (the
    segment docid encoding) reconstructs exactly via grouped cumsum."""
    import numpy as np

    d = np.array(sorted(docids), dtype=np.uint64)
    n = len(d)
    gaps = np.empty_like(d)
    gaps[1:] = d[1:] - d[:-1]
    gaps[0] = d[0]
    restart = np.arange(n) % block == 0
    gaps[restart] = d[restart]
    enc, _ = varbyte.encode(gaps)
    dec = varbyte.decode(enc)
    c = np.cumsum(dec)
    starts = np.arange(0, n, block)
    base = c[starts] - dec[starts]
    counts = np.diff(np.concatenate((starts, [n])))
    rec = c - np.repeat(base, counts)
    assert rec.tolist() == d.tolist()
