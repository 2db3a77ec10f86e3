"""searchenginepp_ray — a Ray-Data-native inverted-index build + BM25/TF-IDF
top-k query engine, built from scratch with the query/data-processing
capabilities of the C++ reference engine (scarburato/searchenginepp), plus
large-scale training-data pipeline operators over the documents table
(dedup, text analysis, filters and connected components)."""

__version__ = "0.1.0"

# ---------------------------------------------------------------------------
# Allocator tuning, applied once per process (driver AND every Ray worker
# that imports this package): glibc munmaps every free() larger than the
# mmap threshold (128 KiB default), so each large numpy/Arrow temporary
# re-faults fresh pages.  Under virtualized hosts concurrent page faults
# serialize badly; raising the thresholds keeps big allocations on the
# reusable heap.  Measured here: 20x8MB alloc/touch loops across 8 procs
# drop from 2.1 s to 0.01 s.  No-op on non-glibc platforms.
# ---------------------------------------------------------------------------
def _tune_allocator() -> None:
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except Exception:
        pass
    try:
        import os as _os

        import pyarrow as _pa

        # Arrow's default (jemalloc) pool purges dirty pages after ~1 s;
        # keep them much longer so parquet/compute buffers also reuse pages
        _pa.jemalloc_set_decay_ms(600_000)
        # Ray sizes OMP_NUM_THREADS to the task's num_cpus, which makes
        # Arrow kernels spawn per-task thread pools; across many workers
        # that multiplies concurrently-allocating threads. Pin compute to
        # one thread per process and I/O to two.
        _pa.set_cpu_count(1)
        _pa.set_io_thread_count(2)
        # polars (used for vectorized string hashing) defaults to one
        # thread per core — same oversubscription problem as Arrow above.
        # Must be set before polars is first imported.
        _os.environ.setdefault("POLARS_MAX_THREADS", "1")
    except Exception:
        pass


_tune_allocator()
