import numpy as np
import pytest

from evtrack.autodiff import ops


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if any worker thread pool starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(ops, "ThreadPoolExecutor", refuse)
