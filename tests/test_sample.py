"""The salted hash threshold behind deterministic split assignment."""

from searchenginepp_ray.pipelines.filters import _threshold_hex


def test_threshold_hex():
    assert _threshold_hex(0.1) == "1999"
    assert _threshold_hex(0.5) == "8000"
    assert _threshold_hex(0.0) == "0000"
