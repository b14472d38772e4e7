import numpy as np
import pytest

from jitstream.nn import layers


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def split_width(monkeypatch):
    """``split_width(n)`` puts ``n``-wide workers in place of the process's
    for the rest of the test, whatever BLAS thread count is in effect, and
    gives the test a gradient thread of its own, which a network's backward
    uses from width 2 on.  At teardown the threads stop, and have exited
    before the next test starts."""
    pools = []
    process_gradient_thread = layers._gradient_thread
    monkeypatch.setattr(layers, "_gradient_thread", None)

    def force(width):
        pool = layers._Workers(width)
        pools.append(pool)
        monkeypatch.setattr(layers, "_workers", pool)
        return pool
    yield force
    for pool in pools:
        pool.close()
    # the process's own gradient thread serves the tests that come after
    if layers._gradient_thread not in (None, process_gradient_thread):
        layers._stop_thread(layers._gradient_thread)
