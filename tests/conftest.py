import numpy as np
import pytest

from jitstream.nn import layers


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def split_width(monkeypatch):
    """``split_width(n)`` puts ``n``-wide workers in place of the process's
    for the rest of the test, whatever BLAS thread count is in effect; a
    network's backward runs its weight gradients on the first of them from
    width 2 on.  At teardown the threads stop, and have exited before the
    next test starts."""
    pools = []

    def force(width):
        pool = layers._Workers(width)
        pools.append(pool)
        monkeypatch.setattr(layers, "_workers", pool)
        return pool
    yield force
    for pool in pools:
        pool.close()
