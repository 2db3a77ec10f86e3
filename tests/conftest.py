import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture
def chunk_budget(monkeypatch):
    """``chunk_budget(n)`` gives the segment writers built after it a
    decoded-posting budget of ``n``. The budget is an attribute of the
    writer instance, which the driver builds and ships to the Ray tasks,
    so the wrapped ``__init__`` reaches them."""
    from searchenginepp_ray.index.build import AssembleSegment

    init = AssembleSegment.__init__

    def set_budget(n):
        def patched(self, *a, **k):
            init(self, *a, **k)
            self.chunk_budget = n

        monkeypatch.setattr(AssembleSegment, "__init__", patched)

    return set_budget
