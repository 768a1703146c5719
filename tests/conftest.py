import numpy as np
import pytest

from evtrack.autodiff import ops

pytest_plugins = ["pytester"]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if any worker thread pool starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(ops, "ThreadPoolExecutor", refuse)


def pytest_report_header(config):
    """numpy, its BLAS and conv2d's worker count: the bit-identity tests
    hold for the BLAS they were written on (OpenBLAS 0.3.31), so a failure
    log should say which one ran them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return (f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
            f"{blas.get('version', '')}".rstrip() + f", ops._WORKERS {ops._WORKERS}")
