"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core machine the same work runs at speeds that differ by up
to 50% from one half-minute to the next (a 96x96 forward pass took 10-15 ms
in consecutive 10 s windows, and whole runs ranged from 12.6 to 20.8 ms per
frame).  That drift is the machine's, not the program's.  So between frames,
at most every ``INTERVAL_S``, the benchmark times a fixed numpy kernel that
shares no code with the program.  It divides each frame's wall time by the
kernel's rolling median around that frame, as a multiple of
``REFERENCE_S``.  The reported times are therefore wall times at the speed
where the kernel takes ``REFERENCE_S``.  The unscaled times are printed
beside them.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0008          # the kernel's typical time on the reference machine
INTERVAL_S = 0.1              # least time between two kernel runs inside a round
WINDOW = 15                   # kernel runs in the rolling median
SETUP_SAMPLES = 9             # kernel runs before each timed set-up


class Calibrator:
    """A fixed kernel: one pass over a 4 MiB buffer, which is larger than the
    L2 cache, so it reads from the shared L3 that other tenants also load,
    then one small GEMM and a few elementwise passes over a small feature
    map.  An untimed pass first brings everything into L3, so the timed pass
    does not depend on what the program left in the caches."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.stream = rng.random(1 << 20, dtype=np.float32)
        self.a = rng.random((64, 288), dtype=np.float32)
        self.b = rng.random((288, 128), dtype=np.float32)
        self.c = rng.random((16, 24, 24), dtype=np.float32)

    def _kernel(self) -> None:
        self.stream.sum()
        self.a @ self.b
        for _ in range(6):
            z = (self.c - self.c.mean(axis=(1, 2), keepdims=True)) * 0.5
            np.maximum(z, 0, out=z)

    def __call__(self) -> float:
        """Seconds one L3-warm pass of the kernel took just now."""
        self._kernel()
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def slowness_now(self) -> float:
        return statistics.median(self() for _ in range(SETUP_SAMPLES)) / REFERENCE_S


def frame_slowness(samples: list[tuple[int, float]], frames: int) -> list[float]:
    """Per-frame slowness from ``(frame, kernel seconds)`` samples: the
    centred rolling median over ``WINDOW`` samples of the latest sample at or
    before each frame (the first sample for frames before it), divided by
    ``REFERENCE_S``."""
    half = WINDOW // 2
    times = [t for _, t in samples]
    rolled = [statistics.median(times[max(0, i - half):i + half + 1]) / REFERENCE_S
              for i in range(len(times))]
    out, k = [], 0
    for frame in range(frames):
        while k + 1 < len(samples) and samples[k + 1][0] <= frame:
            k += 1
        out.append(rolled[k])
    return out
