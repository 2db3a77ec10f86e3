"""Checkpoint / lineage state: see :mod:`.lineage` (stage markers +
per-segment manifests + global metadata, and the index_report /
verify_lineage inspectors)."""

from .lineage import index_report, read_manifests, verify_lineage

__all__ = ["index_report", "read_manifests", "verify_lineage"]
