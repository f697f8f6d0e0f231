"""Fixtures shared by the test modules."""

import pytest

from latentfuse import hostinfo
from latentfuse import nnkernel as nn


def _stop_pool():
    """Join the module's pool threads; the next parallel map makes a new pool.

    Queued tasks are cancelled, which also frees a runner stuck waiting on
    one, so a test that fails by deadlock still ends.
    """
    if nn._pool is not None:
        nn._pool.shutdown(cancel_futures=True)
    nn._pool, nn._pool_workers = None, 0


@pytest.fixture
def runners(monkeypatch):
    """force(n) sizes every later map at n runners (n CPUs, one BLAS thread),
    on a pool of this test's own."""
    _stop_pool()

    def force(n):
        monkeypatch.setattr(hostinfo, "cpu_count", lambda: n)
        monkeypatch.setattr(hostinfo, "blas_threads", lambda: 1)
        assert nn.window_runners() == n

    yield force
    _stop_pool()
