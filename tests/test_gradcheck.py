"""Finite-difference validation of every layer kind's backward pass."""
import numpy as np
import pytest

from jitstream.nn import (
    BatchNorm,
    BilinearResize,
    Conv2d,
    ReLU,
    SeparableConv,
    gradcheck,
    gradient_check,
    layers,
)

SEEDS = range(20)


def make_layer(kind: str, rng: np.random.Generator):
    if kind == "conv3x3":
        return Conv2d(2, 3, 3, stride=1, rng=rng, dtype=np.float64)
    if kind == "conv3x3_s2":
        return Conv2d(2, 3, 3, stride=2, rng=rng, dtype=np.float64)
    if kind == "conv1x1":
        return Conv2d(3, 4, 1, stride=1, rng=rng, dtype=np.float64)
    if kind == "separable":
        return SeparableConv(2, 3, rng=rng, dtype=np.float64)
    if kind == "batchnorm":
        layer = BatchNorm(2, eps=1e-5, dtype=np.float64)
        layer.gamma.value[:] = rng.uniform(0.5, 1.5, size=2)
        layer.beta.value[:] = rng.standard_normal(2)
        return layer
    if kind == "relu":
        return ReLU()
    if kind == "resize2":
        return BilinearResize(2)
    raise KeyError(kind)


LAYER_KINDS = ["conv3x3", "conv3x3_s2", "conv1x1", "separable",
               "batchnorm", "relu", "resize2"]


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_gradients_match_finite_differences(kind):
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        layer = make_layer(kind, rng)
        x = rng.standard_normal((2 if kind != "conv1x1" else 3, 4, 4))
        if kind == "relu":
            # keep inputs away from the kink
            x = np.where(np.abs(x) < 0.2, x + 0.5, x)
        worst = max(worst, gradient_check(layer, x, eps=1e-5, rng=rng))
    assert worst < 1e-4, f"{kind}: worst relative error {worst}"


def test_conv_example_tolerance():
    rng = np.random.default_rng(0)
    layer = Conv2d(2, 3, 3, rng=rng, dtype=np.float64)
    err = gradient_check(layer, rng.standard_normal((2, 4, 4)), eps=1e-5, rng=rng)
    assert err < 1e-4


def test_relu_away_from_kink_tight():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 4))
    x = np.where(np.abs(x) < 0.25, x + 0.7, x)
    err = gradient_check(ReLU(), x, eps=1e-5, rng=rng)
    assert err < 1e-6


def test_bilinear_resize_linear_map_tight():
    rng = np.random.default_rng(5)
    err = gradient_check(BilinearResize(2), rng.standard_normal((2, 4, 4)),
                         eps=1e-5, rng=rng)
    assert err < 1e-6


@pytest.mark.parametrize("kind", sorted(gradcheck.BANDED_RESIZES))
def test_banded_resize_linear_map_tight(kind):
    """2x and 4x upsamples and a downsample whose widest axis runs in three
    or more band blocks, so the check covers the band arithmetic."""
    x_shape, out_hw = gradcheck.BANDED_RESIZES[kind]
    assert max(len(layers._bands(layers.resize_weights(n, m, np.float64)))
               for n, m in zip(x_shape[1:], out_hw)) >= 3
    rng = np.random.default_rng(5)
    layer, x = gradcheck._suite_case(kind, rng)
    assert gradient_check(layer, x, eps=1e-5, rng=rng) < 1e-5
