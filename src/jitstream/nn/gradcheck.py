"""Central finite-difference validation of analytic backward passes.

The check scalarizes a layer's output through a fixed random projection
``L = sum(R * f(x))``, runs the analytic backward with ``R`` as upstream
gradient, and compares every input and parameter gradient element against
``(L(v + eps) - L(v - eps)) / (2 eps)``.  Run it in float64; float32 drowns
the comparison in rounding noise.
"""
from __future__ import annotations

import numpy as np

from .layers import (
    BatchNorm,
    BilinearResize,
    Conv2d,
    ReLU,
    SeparableConv,
)


def relative_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def _max_rel_error(analytic: np.ndarray, value: np.ndarray, loss_fn,
                   eps: float, sample: np.ndarray | None = None) -> float:
    # through ``flat``, which writes into ``value`` whatever its layout
    # (``reshape(-1)`` copies a non-contiguous one)
    flat = value.flat
    idx = range(value.size) if sample is None else sample
    worst = 0.0
    for i in idx:
        keep = flat[i]
        flat[i] = keep + eps
        up = loss_fn()
        flat[i] = keep - eps
        down = loss_fn()
        flat[i] = keep
        numeric = (up - down) / (2 * eps)
        worst = max(worst, relative_error(analytic.flat[i], numeric))
    return worst


def gradient_check(layer, x: np.ndarray, eps: float = 1e-5,
                   rng: np.random.Generator | None = None,
                   sample_per_tensor: int | None = None) -> float:
    """Max relative error across the input and every parameter of ``layer``.

    ``sample_per_tensor`` limits the finite differences to a random subset of
    elements per tensor (used for whole-network checks); by default every
    element is probed.
    """
    rng = rng or np.random.default_rng(0)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y0 = layer.forward(x.copy())
    projection = rng.standard_normal(y0.shape)

    def loss() -> float:
        return float((layer.forward(x.copy()) * projection).sum())

    layer.forward(x.copy())
    dx = layer.backward(projection.copy())

    def pick(size: int) -> np.ndarray | None:
        if sample_per_tensor is None or size <= sample_per_tensor:
            return None
        return rng.choice(size, size=sample_per_tensor, replace=False)

    worst = _max_rel_error(dx, x, loss, eps, pick(x.size))
    for _, p in layer.params():
        analytic = p.gradient.copy()
        worst = max(worst, _max_rel_error(analytic, p.value, loss, eps, pick(p.value.size)))
        p.clear_gradient()
    return worst


LAYER_KINDS = ("Conv2d", "Conv2d_s2", "Conv2d_1x1", "SeparableConv", "BatchNorm", "ReLU",
               "BilinearResize", "BandedResize_2x", "BandedResize_4x", "BandedResize_1/2")

# input and target extents of resizes whose forward runs its widest axis in
# three or more band blocks (layers.BAND_INPUTS)
BANDED_RESIZES = {"BandedResize_2x": ((1, 2, 130), (4, 260)),
                  "BandedResize_4x": ((1, 2, 130), (8, 520)),
                  "BandedResize_1/2": ((1, 2, 520), (1, 260))}


class _ResizeTo(BilinearResize):
    """A resize to a fixed target extent, as the network's stages call one."""

    def __init__(self, out_hw: tuple[int, int]):
        super().__init__()
        self.out_hw = out_hw

    def forward(self, x, out_hw=None):
        return super().forward(x, out_hw or self.out_hw)


def _suite_case(kind: str, rng: np.random.Generator):
    x = rng.standard_normal((2, 4, 4))
    if kind == "Conv2d":
        return Conv2d(2, 3, 3, rng=rng, dtype=np.float64), x
    if kind == "Conv2d_s2":
        return Conv2d(2, 3, 3, stride=2, rng=rng, dtype=np.float64), x
    if kind == "Conv2d_1x1":
        return Conv2d(3, 4, 1, rng=rng, dtype=np.float64), rng.standard_normal((3, 4, 4))
    if kind == "SeparableConv":
        return SeparableConv(2, 3, rng=rng, dtype=np.float64), x
    if kind == "BatchNorm":
        layer = BatchNorm(2, dtype=np.float64)
        layer.gamma.value[:] = rng.uniform(0.5, 1.5, size=2)
        layer.beta.value[:] = rng.standard_normal(2)
        return layer, x
    if kind == "ReLU":
        return ReLU(), np.where(np.abs(x) < 0.2, x + 0.5, x)
    if kind == "BilinearResize":
        return BilinearResize(2), x
    if kind in BANDED_RESIZES:
        x_shape, out_hw = BANDED_RESIZES[kind]
        return _ResizeTo(out_hw), rng.standard_normal(x_shape)
    raise KeyError(kind)


def run_layer_suite(seeds: int = 20, eps: float = 1e-5) -> dict:
    """Gradient-check every layer kind over several seeds; returns
    ``{kind: (worst relative error, seed it occurred at)}``."""
    results = {}
    for kind in LAYER_KINDS:
        worst, worst_seed = 0.0, 0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            layer, x = _suite_case(kind, rng)
            err = gradient_check(layer, x, eps=eps, rng=rng)
            if err > worst:
                worst, worst_seed = err, seed
        results[kind] = (worst, worst_seed)
    return results


def loss_gradient_check(loss_fn, logits: np.ndarray, eps: float = 1e-5) -> float:
    """Finite-difference check for a scalar loss ``loss_fn(logits) -> (loss, grad)``."""
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    _, grad = loss_fn(logits)
    return _max_rel_error(grad, logits, lambda: loss_fn(logits)[0], eps)
