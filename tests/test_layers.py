import contextlib
import functools
import os
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jitstream import arch as arch_module
from jitstream.arch import ArchConfig, JITNet
from jitstream.nn import (
    BatchNorm,
    BilinearResize,
    Concat,
    Conv2d,
    ReLU,
    SeparableConv,
    ShapeError,
    batchnorm_forward,
    bilinear_resize_backward,
    bilinear_resize_forward,
    conv2d_backward,
    conv2d_forward,
    gradcheck,
    label_map,
    layers,
)
from jitstream.nn.layers import (
    batchnorm_backward,
    col2im,
    im2col,
    resize_weights,
    shifted_conv3x3_backward,
    shifted_conv3x3_forward,
)


def conv2d_reference(x, w, b, stride, pad):
    """Independent quadruple-nested-loop convolution oracle."""
    cout, cin, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (x.shape[1] + 2 * pad - kh) // stride + 1
    wo = (x.shape[2] + 2 * pad - kw) // stride + 1
    y = np.zeros((cout, ho, wo), dtype=np.float64)
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[c, i * stride + u, j * stride + v] * w[o, c, u, v]
                y[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return y


def bilinear_reference(x, out_h, out_w):
    """Independent scalar half-pixel-center bilinear oracle with edge clamp."""
    c, h, w = x.shape
    y = np.zeros((c, out_h, out_w), dtype=np.float64)
    for ch in range(c):
        for i in range(out_h):
            sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, h - 1)
            fy = sy - y0
            for j in range(out_w):
                sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, w - 1)
                fx = sx - x0
                top = x[ch, y0, x0] * (1 - fx) + x[ch, y0, x1] * fx
                bot = x[ch, y1, x0] * (1 - fx) + x[ch, y1, x1] * fx
                y[ch, i, j] = top * (1 - fy) + bot * fy
    return y


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y, _ = conv2d_forward(x, w, None, stride=1, pad=1)
        np.testing.assert_array_equal(y, x)

    def test_zero_weights_zero_output(self, rng):
        x = rng.standard_normal((3, 6, 6))
        w = np.zeros((5, 3, 3, 3))
        b = np.zeros(5)
        y, _ = conv2d_forward(x, w, b, stride=1, pad=1)
        assert not y.any()

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        y, _ = conv2d_forward(x, w, b, stride=2, pad=1)
        ref = conv2d_reference(x, w, b, stride=2, pad=1)
        np.testing.assert_allclose(y, ref, rtol=1e-6)

    def test_integer_inputs_exact(self, rng):
        x = rng.integers(-4, 5, size=(3, 7, 6)).astype(np.float64)
        w = rng.integers(-3, 4, size=(2, 3, 3, 3)).astype(np.float64)
        y, _ = conv2d_forward(x, w, None, stride=1, pad=1)
        ref = conv2d_reference(x, w, None, stride=1, pad=1)
        np.testing.assert_array_equal(y, ref)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_output_extent(self, rng, stride, pad):
        x = rng.standard_normal((2, 11, 9))
        w = rng.standard_normal((3, 2, 3, 3))
        y, _ = conv2d_forward(x, w, None, stride=stride, pad=pad)
        assert y.shape[1] == (11 + 2 * pad - 3) // stride + 1
        assert y.shape[2] == (9 + 2 * pad - 3) // stride + 1

    def test_channel_mismatch_diagnostic(self, rng):
        x = rng.standard_normal((3, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        with pytest.raises(ShapeError, match="channels"):
            conv2d_forward(x, w, None, 1, 1)

    def test_separable_is_1x3_then_3x1(self, rng):
        sep = SeparableConv(3, 4, dtype=np.float64, rng=rng)
        assert sep.conv_1x3.w.value.shape == (4, 3, 1, 3)
        assert sep.conv_3x1.w.value.shape == (4, 4, 3, 1)
        x = rng.standard_normal((3, 6, 6))
        mid, _ = conv2d_forward(x, sep.conv_1x3.w.value, sep.conv_1x3.b.value, 1, (0, 1))
        ref, _ = conv2d_forward(mid, sep.conv_3x1.w.value, sep.conv_3x1.b.value, 1, (1, 0))
        np.testing.assert_allclose(sep.forward(x), ref, rtol=1e-12)


class TestBatchNorm:
    def test_constant_channel_zero_output(self):
        x = np.full((1, 4, 4), 3.7)
        y, _ = batchnorm_forward(x, np.ones(1), np.zeros(1), eps=1e-5)
        assert np.abs(y).max() < 1e-3

    def test_zero_gamma_gives_beta(self, rng):
        x = rng.standard_normal((3, 5, 5))
        beta = np.array([1.0, -2.0, 0.5])
        y, _ = batchnorm_forward(x, np.zeros(3), beta, eps=1e-5)
        np.testing.assert_allclose(y, np.broadcast_to(beta[:, None, None], y.shape))

    def test_direct_formula(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2)
        y, _ = batchnorm_forward(x, np.ones(1), np.zeros(1), eps=1e-5)
        expected = (x - 2.5) / np.sqrt(1.25 + 1e-5)
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_zero_spatial_extent_rejected(self):
        x = np.zeros((2, 0, 4))
        with pytest.raises(ShapeError, match="spatial"):
            batchnorm_forward(x, np.ones(2), np.zeros(2), eps=1e-5)


class TestBilinearResize:
    def test_factor_one_identity(self, rng):
        x = rng.standard_normal((2, 5, 7))
        y, _ = bilinear_resize_forward(x, (5, 7))
        np.testing.assert_array_equal(y, x)

    def test_constant_preserved(self):
        x = np.full((1, 3, 3), 2.5)
        y, _ = bilinear_resize_forward(x, (9, 6))
        np.testing.assert_allclose(y, 2.5, rtol=1e-12)

    def test_2x2_factor_two_matches_formula(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 2, 2)
        y, _ = bilinear_resize_forward(x, (4, 4))
        ref = bilinear_reference(x, 4, 4)
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    @pytest.mark.parametrize("out_hw", [(4, 4), (6, 3), (5, 9), (2, 2)])
    def test_matches_reference_random(self, rng, out_hw):
        x = rng.standard_normal((3, 4, 5))
        y, _ = bilinear_resize_forward(x, out_hw)
        ref = bilinear_reference(x, *out_hw)
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-12)

    def test_linearity(self, rng):
        x = rng.standard_normal((2, 4, 4))
        z = rng.standard_normal((2, 4, 4))
        a, b = 1.7, -0.3
        lhs, _ = bilinear_resize_forward(a * x + b * z, (8, 8))
        rx, _ = bilinear_resize_forward(x, (8, 8))
        rz, _ = bilinear_resize_forward(z, (8, 8))
        np.testing.assert_allclose(lhs, a * rx + b * rz, rtol=1e-6, atol=1e-9)


class TestConcat:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((2, 4, 4))
        b = rng.standard_normal((3, 4, 4))
        cat = Concat()
        y = cat.forward(a, b)
        assert y.shape == (5, 4, 4)
        da, db = cat.backward(np.ones_like(y))
        assert da.shape == a.shape and db.shape == b.shape

    def test_extent_mismatch(self, rng):
        with pytest.raises(ShapeError, match="extents"):
            Concat().forward(rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 5, 4)))


class TestDeterminism:
    def test_conv_layer_bitwise_repeatable(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        a = Conv2d(3, 6, 3, stride=2, rng=np.random.default_rng(7))
        b = Conv2d(3, 6, 3, stride=2, rng=np.random.default_rng(7))
        ya, yb = a.forward(x), b.forward(x)
        assert ya.tobytes() == yb.tobytes()

    def test_finite_outputs(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        layer = Conv2d(3, 4, 3, rng=rng)
        y = layer.forward(x)
        dx = layer.backward(np.ones_like(y))
        assert np.isfinite(y).all() and np.isfinite(dx).all()


def conv_via_im2col(x, w, b, stride, pad, dy):
    """The im2col lowering of a convolution, forward and backward."""
    cout, cin, kh, kw = w.shape
    cols, (ho, wo) = im2col(x, kh, kw, stride, pad, pad)
    y = (w.reshape(cout, -1) @ cols).reshape(cout, ho, wo)
    if b is not None:
        y += b[:, None, None]
    dy_mat = dy.reshape(cout, -1)
    dw = (dy_mat @ cols.T).reshape(w.shape)
    dx = col2im(w.reshape(cout, -1).T @ dy_mat, x.shape, kh, kw, stride, pad, pad, (ho, wo))
    return y, dx, dw, dy.sum(axis=(1, 2))


def im2col_padded(x, kh, kw, stride, pad_h, pad_w):
    """im2col over a zero-padded copy of the input."""
    c, h, w = x.shape
    ho = (h + 2 * pad_h - kh) // stride + 1
    wo = (w + 2 * pad_w - kw) // stride + 1
    xp = np.zeros((c, h + 2 * pad_h, w + 2 * pad_w), dtype=x.dtype)
    xp[:, pad_h:pad_h + h, pad_w:pad_w + w] = x
    cols = np.empty((c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(c * kh * kw, ho * wo), (ho, wo)


def col2im_padded(dcols, x_shape, kh, kw, stride, pad_h, pad_w, out_hw):
    """col2im into a zero-padded gradient, cropped at the end."""
    c, h, w = x_shape
    ho, wo = out_hw
    dxp = np.zeros((c, h + 2 * pad_h, w + 2 * pad_w), dtype=dcols.dtype)
    dcols = dcols.reshape(c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
    return dxp[:, pad_h:pad_h + h, pad_w:pad_w + w]


def batchnorm_mean_var(x, gamma, beta, eps):
    """BatchNorm with numpy's own mean and variance."""
    mean = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma[:, None, None] * xhat + beta[:, None, None]
    return y, (xhat, inv_std, gamma)


def assert_conv_equals_fresh_twins(rng, kernel, stride, extents, cin=8):
    """One ``Conv2d`` fed ``extents`` in turn gives, forward and backward,
    the bits of a fresh twin fed each one alone."""
    layer = Conv2d(cin, 12, kernel, stride, rng=np.random.default_rng(3))
    for hw in extents:
        twin = Conv2d(cin, 12, kernel, stride, rng=np.random.default_rng(3))
        x = rng.standard_normal((cin, *hw)).astype(np.float32)
        y, y_twin = layer.forward(x), twin.forward(x)
        assert y.tobytes() == y_twin.tobytes()
        dy = rng.standard_normal(y.shape).astype(np.float32)
        assert layer.backward(dy).tobytes() == twin.backward(dy).tobytes()
        assert layer.w.gradient.tobytes() == twin.w.gradient.tobytes()
        assert layer.b.gradient.tobytes() == twin.b.gradient.tobytes()
        layer.w.clear_gradient()
        layer.b.clear_gradient()


def forward_calls_of(name, config, hw, monkeypatch):
    """The positional arguments of every call a network of ``config`` makes
    to ``layers.<name>`` in one forward at ``hw``, each array in the memory
    layout the forward hands over."""
    seen = []
    real = getattr(layers, name)

    def record(*args):
        seen.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(layers, name, record)
        JITNet(config, seed=1).forward(np.random.default_rng(2).random((3, *hw),
                                                                      dtype=np.float32))
    return seen


def resize_shapes_of(config, hw, monkeypatch):
    """Every ``(input, target extent)`` the network resizes in one forward,
    with each input in the memory layout the forward hands over."""
    return [(x, tuple(out_hw))
            for x, out_hw in forward_calls_of("bilinear_resize_forward", config, hw, monkeypatch)]


def gemm_convs_of(config, hw, monkeypatch):
    """The ``(x, w, b, stride, pad)`` of every convolution the network runs
    as one GEMM (im2col or 1x1) in one forward, each ``x`` in the memory
    layout the forward hands over."""
    return [args[:5] for args in forward_calls_of("conv2d_forward", config, hw, monkeypatch)
            if not layers._runs_shifted(args[1].shape, args[3], *layers._pair(args[4]))]


class TestBitExactKernels:
    """Rewritten kernels must give the bits of the formulation they replace."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("layout", ["C", "transposed"])
    def test_1x1_direct_equals_im2col(self, rng, stride, bias, layout):
        x = rng.standard_normal((24, 37, 41)).astype(np.float32)
        if layout == "transposed":         # channels-last memory, as resizes can hand over
            x = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
        w = rng.standard_normal((16, 24, 1, 1)).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32) if bias else None
        y, cache = conv2d_forward(x, w, b, stride, 0)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, dw, db = conv2d_backward(dy, w, cache)
        ref = conv_via_im2col(x, w, b, stride, 0, dy)
        for got, want in zip((y, dx, dw, db), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride", [(3, 2), ((1, 3), 1), ((3, 1), 1), (1, 2)])
    def test_reused_buffer_equals_fresh_layer(self, rng, kernel, stride):
        assert_conv_equals_fresh_twins(rng, kernel, stride, ((96, 96), (50, 70), (96, 96)))

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("skips", [True, False])
    @pytest.mark.parametrize("hw", [(96, 96), (50, 70)])
    def test_cached_resize_equals_fresh_einsum(self, monkeypatch, scale, skips, hw):
        config = ArchConfig(num_classes=4, input_scale=scale, skip_connections=skips)
        seen = resize_shapes_of(config, hw, monkeypatch)
        assert len(seen) >= 6
        for x, out_hw in seen:
            y, cache = bilinear_resize_forward(x, out_hw)
            if out_hw == x.shape[1:]:
                assert y is x
                continue
            mh = resize_weights(x.shape[1], out_hw[0], x.dtype)
            mw = resize_weights(x.shape[2], out_hw[1], x.dtype)
            want = np.einsum("oh,chw,pw->cop", mh, x, mw, optimize=True)
            assert y.strides == want.strides and y.tobytes() == want.tobytes()
            dy = np.random.default_rng(4).standard_normal(y.shape).astype(x.dtype)
            dx = bilinear_resize_backward(dy, cache)
            want = np.einsum("oh,cop,pw->chw", mh, dy, mw, optimize=True)
            assert dx.strides == want.strides and dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [3, (1, 3), (3, 1)])
    def test_same_column_count_new_extent_equals_fresh_layer(self, rng, kernel, stride):
        """96x96 and 48x192 give equal column counts but put the padding
        zeros in different places, so the buffer must follow the extent."""
        assert_conv_equals_fresh_twins(rng, kernel, stride, ((96, 96), (48, 192), (96, 96)))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel,pad", [((3, 3), (0, 0)), ((3, 3), (1, 1)),
                                            ((1, 3), (0, 1)), ((3, 1), (1, 0)),
                                            ((1, 1), (0, 0))])
    def test_im2col_col2im_equal_padded_formulation(self, rng, kernel, pad, stride):
        kh, kw = kernel
        ph, pw = pad
        for h, w in ((1, 1), (2, 3), (3, 2), (5, 4), (9, 7), (13, 16)):
            if (h + 2 * ph - kh) // stride < 0 or (w + 2 * pw - kw) // stride < 0:
                continue
            x = rng.standard_normal((3, h, w)).astype(np.float32)
            x[0, 0, 0] = -0.0
            want_cols, out_hw = im2col_padded(x, kh, kw, stride, ph, pw)
            cols, hw = im2col(x, kh, kw, stride, ph, pw)
            assert hw == out_hw and cols.tobytes() == want_cols.tobytes()
            refilled, _ = im2col(x + 1, kh, kw, stride, ph, pw, cols)
            assert refilled is cols
            assert cols.tobytes() == im2col_padded(x + 1, kh, kw, stride, ph, pw)[0].tobytes()
            dcols = rng.standard_normal(cols.shape).astype(np.float32)
            dcols[:, ::2] = -0.0                 # a sum of -0.0 alone is -0.0
            want = col2im_padded(dcols, x.shape, kh, kw, stride, ph, pw, out_hw)
            got = col2im(dcols, x.shape, kh, kw, stride, ph, pw, out_hw)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "transposed"])
    def test_one_pass_batchnorm_equals_mean_var(self, rng, dtype, layout):
        x = (rng.standard_normal((16, 24, 37)) * 3 + 1.5).astype(dtype)
        if layout == "transposed":         # as a resize hands over at input_scale 0.5
            x = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
        gamma = rng.standard_normal(16).astype(dtype)
        beta = rng.standard_normal(16).astype(dtype)
        y, cache = batchnorm_forward(x, gamma, beta, 1e-5)
        want_y, want_cache = batchnorm_mean_var(x, gamma, beta, 1e-5)
        for got, want in zip((y, *cache), (want_y, *want_cache)):
            assert got.dtype == want.dtype and got.strides == want.strides
            assert got.tobytes() == want.tobytes()


def max_relative_diff(got, want):
    """Largest absolute difference over the largest reference magnitude."""
    scale = np.abs(want).max()
    diff = np.abs(got.astype(np.float64) - want).max()
    return diff / scale if scale else diff


def shifted_forward_unblocked(x, w, b):
    """The shifted forward without row blocks: each tap's GEMM over all rows,
    added into one full-size accumulator in tap order, then cropped."""
    c, h, wd = x.shape
    cout = w.shape[0]
    wp = wd + 2
    n = h * wp
    xp = np.zeros((c, (h + 2) * wp + 2), dtype=x.dtype)
    xp[:, :(h + 2) * wp].reshape(c, h + 2, wp)[:, 1:h + 1, 1:wd + 1] = x
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(9, cout, c)
    offsets = [i * wp + j for i in range(3) for j in range(3)]
    y = taps[0] @ xp[:, :n]
    for tap, off in zip(taps[1:], offsets[1:]):
        y += tap @ xp[:, off:off + n]
    y = np.ascontiguousarray(y.reshape(cout, h, wp)[:, :, :wd])
    if b is not None:
        y += b[:, None, None]
    return y, xp


def shifted_backward_scatter(dy, w, xp):
    """The shifted backward as a scatter: ``dy`` padded with zero junk
    columns, one GEMM per tap for ``dW`` and nine products added at the
    taps' offsets into a padded input gradient."""
    cout, h, wd = dy.shape
    cin = w.shape[1]
    wp = wd + 2
    n = h * wp
    dyp = np.zeros((cout, h, wp), dtype=dy.dtype)
    dyp[:, :, :wd] = dy
    dyp = dyp.reshape(cout, n)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(9, cout, cin)
    dtaps = np.empty_like(taps)
    dxp = np.zeros_like(xp)
    for tap, dtap, off in zip(taps, dtaps, [i * wp + j for i in range(3) for j in range(3)]):
        dtap[...] = dyp @ xp[:, off:off + n].T
        dxp[:, off:off + n] += tap.T @ dyp
    dx = np.ascontiguousarray(dxp[:, :(h + 2) * wp].reshape(cin, h + 2, wp)[:, 1:h + 1, 1:wd + 1])
    dw = np.ascontiguousarray(dtaps.reshape(3, 3, cout, cin).transpose(2, 3, 0, 1))
    return dx, dw, dy.sum(axis=(1, 2))


def shifted_weights_of(config, hw, monkeypatch):
    """The names of the weights a network's forward at extent ``hw`` runs
    through the shifted lowering, in execution order."""
    seen = []
    real = layers.shifted_conv3x3_forward

    def record(x, w, b, xp=None):
        seen.append(w)
        return real(x, w, b, xp)

    monkeypatch.setattr(layers, "shifted_conv3x3_forward", record)
    net = JITNet(config, seed=1)
    net.forward(np.zeros((3, *hw), dtype=np.float32))
    monkeypatch.undo()
    names = {id(p.value): name for name, p in net.params()}
    return [names[id(w)] for w in seen]


# the stride-1 3x3 layers of a default network, in execution order
STRIDE1_3X3 = ["dec3.res3x3.weight", "dec2.res3x3.weight", "dec1.res3x3.weight",
               "head1.conv.weight", "head2.conv.weight"]


def suite_lowerings(kind, monkeypatch):
    """The lowering of each convolution the gradcheck suite's ``kind`` case
    runs in one forward: ``im2col``, ``shifted`` or ``direct`` (the 1x1
    GEMM on the input)."""
    seen = []

    def spy(module, name, label):
        real = getattr(module, name)

        def record(*args, **kwargs):
            seen.append(label)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, record)

    spy(layers, "im2col", "im2col")
    spy(layers, "shifted_conv3x3_forward", "shifted")
    real_conv = layers.conv2d_forward

    def conv(*args, **kwargs):
        before = len(seen)
        out = real_conv(*args, **kwargs)
        if len(seen) == before:
            seen.append("direct")
        return out
    monkeypatch.setattr(layers, "conv2d_forward", conv)
    layer, x = gradcheck._suite_case(kind, np.random.default_rng(0))
    layer.forward(x)
    monkeypatch.undo()
    return seen


class TestShiftedConv:
    """The shifted-GEMM lowering of stride-1 3x3 convolutions against the
    im2col oracle: same results to a tolerance set by the dtype, the only
    path such a kernel takes at any extent, and a ninth of the memory."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("cin,cout,hw", [(3, 4, (1, 1)), (3, 4, (1, 5)), (1, 4, (2, 3)),
                                             (4, 1, (2, 3)), (5, 4, (13, 16)),
                                             (1, 1, (13, 16)), (1, 3, (180, 320)),
                                             # dec3, dec2, dec1, head1, head2 at 96x96
                                             (256, 64, (3, 3)), (256, 32, (6, 6)),
                                             (192, 32, (12, 12)), (64, 32, (48, 48)),
                                             (32, 32, (48, 48)),
                                             # dec3, dec2, dec1 at 360x640
                                             (256, 64, (12, 20)), (256, 32, (23, 40)),
                                             (192, 32, (45, 80))])
    def test_equals_im2col_oracle(self, rng, dtype, tol, bias, cin, cout, hw):
        x = rng.standard_normal((cin, *hw)).astype(dtype)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype) if bias else None
        y, xp = shifted_conv3x3_forward(x, w, b)
        dy = rng.standard_normal(y.shape).astype(dtype)
        got = (y, *shifted_conv3x3_backward(dy, w, xp))
        for g, want in zip(got, conv_via_im2col(x, w, b, 1, 1, dy)):
            assert g.shape == want.shape and g.dtype == want.dtype and g.flags.c_contiguous
            assert max_relative_diff(g, want) <= tol

    @pytest.mark.parametrize("cin,hw", [(256, (23, 40)), (192, (45, 80)), (64, (180, 320)),
                                        (32, (180, 320))])
    def test_blocked_equals_unblocked_oracle(self, rng, cin, hw):
        """dec2, dec1, head1 and head2 of a 360x640 frame in float32 at the
        shipped block size: the forward and dW keep the unblocked bits, and
        dx agrees with the scatter to 1e-6."""
        x = rng.standard_normal((cin, *hw)).astype(np.float32)
        w = rng.standard_normal((32, cin, 3, 3)).astype(np.float32)
        b = rng.standard_normal(32).astype(np.float32)
        y, xp = shifted_conv3x3_forward(x, w, b)
        want_y, want_xp = shifted_forward_unblocked(x, w, b)
        assert np.array_equal(y, want_y) and np.array_equal(xp, want_xp)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, dw, db = shifted_conv3x3_backward(dy, w, xp)
        want_dx, want_dw, want_db = shifted_backward_scatter(dy, w, xp)
        assert np.array_equal(dw, want_dw) and np.array_equal(db, want_db)
        assert dx.flags.c_contiguous and max_relative_diff(dx, want_dx) <= 1e-6

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("rows", [1, 4, 20])     # 13 rows: one per block, 4+4+4+1, one block
    @pytest.mark.parametrize("cin,cout", [(4, 4), (5, 3)])
    def test_block_edges(self, monkeypatch, rng, dtype, tol, rows, cin, cout):
        """Blocks of ``rows`` rows of the forward's accumulator.  Small
        integers sum exactly in any order, so on them every result equals
        the oracles bit for bit whatever BLAS does per block; on normal
        samples the forward and dx agree to the dtype's tolerance."""
        hw = (13, 16)
        monkeypatch.setattr(layers, "BLOCK_BYTES",
                            rows * cout * (hw[1] + 2) * np.dtype(dtype).itemsize)
        for exact in (True, False):
            draw = (lambda s: rng.integers(-4, 5, s)) if exact else rng.standard_normal
            x, w, b = (draw(s).astype(dtype) for s in ((cin, *hw), (cout, cin, 3, 3), cout))
            dy = draw((cout, *hw)).astype(dtype)
            y, xp = shifted_conv3x3_forward(x, w, b)
            want_y, _ = shifted_forward_unblocked(x, w, b)
            got = (y, *shifted_conv3x3_backward(dy, w, xp))
            want = (want_y, *shifted_backward_scatter(dy, w, xp))
            for g, wnt in zip(got, want):
                assert g.shape == wnt.shape and g.dtype == wnt.dtype and g.flags.c_contiguous
                assert np.array_equal(g, wnt) if exact else max_relative_diff(g, wnt) <= tol

    def test_gradcheck_one_row_per_block(self, monkeypatch):
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1)     # floors to one row
        for seed in range(5):
            rng = np.random.default_rng(seed)
            layer, x = gradcheck._suite_case("Conv2d", rng)
            assert gradcheck.gradient_check(layer, x, rng=rng) < 1e-4

    @pytest.mark.parametrize("kind,lowerings", [
        ("Conv2d", ["shifted"]), ("SeparableConv", ["im2col", "im2col"]),
        ("Conv2d_s2", ["im2col"]), ("Conv2d_1x1", ["direct"]),
    ])
    def test_gradcheck_suite_covers_every_lowering(self, monkeypatch, kind, lowerings):
        assert suite_lowerings(kind, monkeypatch) == lowerings

    @pytest.mark.parametrize("hw,shifted", [((96, 96), STRIDE1_3X3), ((360, 640), STRIDE1_3X3)])
    def test_default_net_routes(self, monkeypatch, hw, shifted):
        """The same five layers run shifted at the shipped 96x96 and at
        360x640: the extent does not pick the lowering."""
        assert shifted_weights_of(ArchConfig(num_classes=4), hw, monkeypatch) == shifted

    def test_rule_fires_at_360p_head(self, rng):
        """head1 of a 360x640 frame: 64 -> 32 channels at 180x320."""
        x = rng.standard_normal((64, 180, 320)).astype(np.float32)
        w = rng.standard_normal((32, 64, 3, 3)).astype(np.float32)
        b = rng.standard_normal(32).astype(np.float32)
        y, cache = conv2d_forward(x, w, b, 1, 1)
        assert cache[1].shape == (64, 182 * 322 + 2)        # the padded input
        dy = rng.standard_normal(y.shape).astype(np.float32)
        got = (y, *conv2d_backward(dy, w, cache))
        for g, want in zip(got, conv_via_im2col(x, w, b, 1, 1, dy)):
            assert g.shape == want.shape and max_relative_diff(g, want) <= 1e-5

    @pytest.mark.parametrize("kernel,stride,pad,hw,dtype,shifted", [
        ((3, 3), 1, 1, (48, 48), np.float32, True),      # head1 at 96x96
        ((3, 3), 1, 1, (48, 64), np.float32, True),
        ((3, 3), 1, 1, (48, 64), np.float64, True),
        ((3, 3), 1, 1, (180, 320), np.float32, True),
        ((3, 3), 2, 1, (180, 320), np.float32, False),
        ((3, 3), 1, 0, (180, 320), np.float32, False),
        ((1, 3), 1, (0, 1), (180, 320), np.float32, False),
        ((3, 1), 1, (1, 0), (180, 320), np.float32, False),
        ((1, 1), 1, 0, (180, 320), np.float32, False),
    ])
    def test_rule_picks_only_large_stride1_3x3(self, kernel, stride, pad, hw, dtype, shifted):
        """Only the kernel's shape, stride and padding pick the lowering: a
        stride-1 3x3 kernel with padding 1 runs shifted at every extent and
        dtype, and no other kernel does."""
        x = np.zeros((64, *hw), dtype=dtype)
        w = np.zeros((4, 64, *kernel), dtype=dtype)
        _, cache = conv2d_forward(x, w, None, stride, pad)
        padded = (64, (hw[0] + 2) * (hw[1] + 2) + 2)
        assert (cache[1].shape == padded) == shifted

    def test_buffers_never_mix_between_lowerings(self, rng):
        """A 3x3 layer fed three extents runs shifted at each and matches a
        fresh twin, so its padded buffer follows the extent."""
        assert_conv_equals_fresh_twins(rng, 3, 1, ((180, 320), (48, 48), (180, 320)), cin=64)

    def test_large_conv_memory_bound(self, rng):
        """One forward plus backward of a 64 -> 32 layer at 180x320 peaks
        below 5x its input and holds one padded input between frames; the
        im2col lowering peaks at 19x and holds 9x."""
        assert_large_conv_memory_bound(rng)


def assert_large_conv_memory_bound(rng, deferred=False):
    """With ``deferred`` the backward hands its weight gradient to the
    pool's first worker, whose finished job must hold none of its arrays."""
    conv = Conv2d(64, 32, 3, rng=rng)
    x = rng.standard_normal((64, 180, 320)).astype(np.float32)
    dy = rng.standard_normal((32, 180, 320)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conv.forward(x)
        with layers.deferred_weight_gradients() if deferred else contextlib.nullcontext():
            conv.backward(dy)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 5 * x.nbytes
    assert held - base <= 1.5 * x.nbytes


def child_exit_code(pid, timeout=60.0):
    """The exit code of forked child ``pid``; kills it and fails the test
    if it has not exited within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "forked child hung"
    return os.waitstatus_to_exitcode(done[1])


def run_in_thread(fn, timeout=60.0):
    """``fn()`` on a helper thread; fails instead of hanging on a deadlock."""
    outcome = []

    def target():
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:        # handed back to the test
            outcome.append(("raised", exc))
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "split call deadlocked"
    return outcome[0]


def dealt_calls(pool):
    """Spies on ``pool.run``: returns the list it appends the width of each
    call that deals its shares to the workers.  A call of width 1, or one
    made while the pool is held (inside a backward), runs every share on
    its caller and is not recorded."""
    calls = []
    real = pool.run

    def run(share, width):
        if width > 1 and not pool._busy.locked():
            calls.append(width)
        return real(share, width)
    pool.run = run
    return calls


class TestSplit:
    """The shifted lowering's row blocks dealt across threads: the same
    GEMMs, block edges and add order on any thread, so every output keeps
    its bits."""

    def shifted_pass(self, cin, cout, hw, dtype):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((cin, *hw)).astype(dtype)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        dy = rng.standard_normal((cout, *hw)).astype(dtype)
        y, xp = shifted_conv3x3_forward(x, w, b)
        return (y, *shifted_conv3x3_backward(dy, w, xp))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout,hw,splits", [
        (64, 32, (180, 320), True),     # head1 at 360x640: dx's blocks have half the rows
        (48, 32, (47, 100), True),      # blocks of 20 (float32) or 10 rows, dx's of 13 or 6
        (32, 32, (24, 24), False),      # one block: runs whole at width 2 too
    ])
    def test_split_equals_serial_bits(self, split_width, dtype, cin, cout, hw, splits):
        """y, dx, dW and db equal the serial pass bit for bit; at width 2 the
        forward and, outside a network's backward, dx each deal their own
        blocks where there are two."""
        split_width(1)
        serial = self.shifted_pass(cin, cout, hw, dtype)
        calls = dealt_calls(split_width(2))
        split = self.shifted_pass(cin, cout, hw, dtype)
        assert calls == ([2, 2] if splits else [])
        for s, p in zip(serial, split):
            assert p.dtype == s.dtype and p.flags.c_contiguous and np.array_equal(p, s)

    def test_jitnet_split_equals_serial_bits(self, split_width):
        """A default network's forward and backward at 64x640, where head1,
        head2 and stem1's GEMM split by the size rules: logits, input
        gradient and every parameter gradient keep their bits at width 2."""
        x = np.random.default_rng(3).standard_normal((3, 64, 640)).astype(np.float32)
        results = []
        for width in (1, 2):
            pool = split_width(width)
            calls = dealt_calls(pool)
            net = JITNet(ArchConfig(num_classes=4), seed=1)
            logits = net.forward(x)
            dx = net.backward(np.random.default_rng(4).standard_normal(logits.shape)
                              .astype(np.float32))
            results.append([logits, dx] + [p.gradient.copy() for _, p in net.params()])
            # head1 and head2 deal the forward of their convolution,
            # BatchNorm and ReLU; stem1's GEMM runs in two blocks; the
            # backward deals nothing and its weight gradients go to the
            # worker; width 1 runs every block on the calling thread
            assert len(calls) == (0 if width == 1 else 6 + 1)
            assert len(pool._threads) == (width == 2)
        for s, p in zip(*results):
            assert np.array_equal(p, s)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("kind,shape,dtype,blocks", [
        # shifted layers: (output channels, H, W), whole row blocks of the output
        ("shifted", (32, 48, 48), np.float32, 1),       # head1, head2 at 96x96
        ("shifted", (64, 6, 6), np.float32, 1),         # dec3 at 96x96
        ("shifted", (32, 45, 80), np.float32, 1),       # dec1 at 360x640: one whole block
        ("shifted", (32, 180, 320), np.float32, 30),    # head1, head2 at 360x640
        ("shifted", (32, 48, 48), np.float64, 2),       # 96x96 heads under gradcheck
        # BatchNorm and ReLU: two channels and BLOCK_BYTES per block
        ("channels", (32, 48, 48), np.float32, 1),      # head1, head2 at 96x96: 288 KiB
        ("channels", (8, 48, 48), np.float32, 1),       # stem1 at 96x96
        ("channels", (128, 12, 12), np.float32, 1),     # enc2's input at 96x96
        ("channels", (32, 48, 48), np.float64, 2),      # 96x96 heads under gradcheck
        ("channels", (8, 180, 320), np.float32, 4),     # stem1 at 360p
        ("channels", (8, 90, 160), np.float32, 1),      # stem2 at 360p: 450 KiB
        ("channels", (128, 45, 80), np.float32, 7),     # enc2's input at 360p
        ("channels", (128, 23, 40), np.float32, 1),     # enc3's input at 360p: 460 KiB
        ("channels", (256, 12, 20), np.float32, 1),     # dec3 at 360p
        ("channels", (256, 23, 40), np.float32, 3),     # dec2 at 360p
        ("channels", (192, 45, 80), np.float32, 10),    # dec1 at 360p
        ("channels", (64, 45, 80), np.float32, 3),      # enc1's ReLUs at 360p: 900 KiB
        ("channels", (32, 180, 320), np.float32, 16),   # head1, head2 at 360p
        ("channels", (3, 360, 640), np.float32, 1),     # one block of fewer than four channels
        # a default network's forward and label map: (classes, H, W), and
        # which of its GEMMs, resizes and label map block, into how many
        ("network", (4, 96, 96), np.float32, []),       # the bundled streams' class count
        ("network", (11, 96, 96), np.float32, []),      # a 99 KiB classifier result
        ("network", (4, 360, 640), np.float32, [
            ("_columns", 8), ("_columns", 2),                     # stem1, stem2
            ("_columns", 4), ("_columns", 4), ("_columns", 4),    # enc1's 3x3/2, 1x3, 3x1
            ("_columns", 2), ("_columns", 2), ("_columns", 2),    # dec1's 1x1 and 1x3, 3x1
            ("_channels", 4),                                     # dec1's 4x resize
            ("_columns", 4),                                      # the classifier
            ("_channels", 4),                                     # the head resize
            ("_rows", 4)]),                                       # the label map
    ])
    def test_rule_table(self, split_width, monkeypatch, width, kind, shape, dtype, blocks):
        """The blocks a shifted layer's forward, a ReLU or a network's
        forward passes cut themselves into at the default network's shapes,
        the same at every width.  At width 2 a pass of two or more deals
        them to a worker; at width 1, and where every pass is one block (a
        whole network at 96x96 included), no thread starts."""
        pool = split_width(width)
        if kind == "network":
            seen = recorded_blocks(monkeypatch, FORWARD_BLOCKS)
            net = JITNet(ArchConfig(num_classes=shape[0]), seed=1)
            label_map(net.forward(np.ones((3, *shape[1:]), dtype)))
            assert [s for s in seen if s[1] > 1] == blocks
            split = blocks != []
        else:
            seen = recorded_blocks(monkeypatch)
            x = np.zeros(shape, dtype)
            if kind == "shifted":
                shifted_conv3x3_forward(x, np.zeros((shape[0],) * 2 + (3, 3), dtype), None)
            else:
                ReLU().forward(x)
            assert [count for _, count in seen] == [blocks]
            split = blocks > 1
        assert len(pool._threads) == (width == 2 and split)

    def test_counting_blocks_reads_no_width(self, monkeypatch):
        """Block counts follow from extents alone: counting them creates no
        workers, so it reads neither the CPUs nor the BLAS threads."""
        monkeypatch.setattr(layers, "_workers", None)
        x = np.zeros((32, 180, 320), np.float32)
        assert layers.block_count(180, x.nbytes) == 29
        assert layers._channel_blocks(x) == 16
        assert layers._workers is None

    def test_unsplit_network_starts_no_thread(self, split_width):
        """At 96x96 no layer splits, so a forward starts no thread even where
        the process may use two; at width 1 the backward's gradient jobs run
        inline, so forward and backward start none either."""
        split_width(2)
        threads = threading.active_count()
        net = JITNet(ArchConfig(num_classes=4), seed=1)
        logits = net.forward(np.ones((3, 96, 96), dtype=np.float32))
        assert threading.active_count() == threads
        split_width(1)
        logits = net.forward(np.ones((3, 96, 96), dtype=np.float32))
        net.backward(np.ones_like(logits))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("blas,cpus,cap,width", [
        (1, 2, None, 2), (2, 2, None, 1), (1, 4, None, 4), (2, 4, None, 2),
        (3, 2, None, 1),            # more BLAS threads than CPUs
        (None, 4, None, 1),         # BLAS thread count unreadable
        (1, 4, "2", 2), (1, 2, "8", 2), (1, 2, "1", 1),
        (1, 2, "0", 2), (1, 2, "two", 2),      # ignored, with a warning from the CLI
    ])
    def test_process_width(self, monkeypatch, blas, cpus, cap, width):
        """Usable CPUs over BLAS threads, capped by JITSTREAM_THREADS."""
        monkeypatch.setattr(layers, "_blas_threads", lambda: blas)
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if cap is None:
            monkeypatch.delenv("JITSTREAM_THREADS", raising=False)
        else:
            monkeypatch.setenv("JITSTREAM_THREADS", cap)
        assert layers._process_width() == width

    def test_process_width_without_affinity(self, monkeypatch):
        """Where the OS has no affinity call, every CPU counts."""
        monkeypatch.setattr(layers, "_blas_threads", lambda: 1)
        monkeypatch.delattr(layers.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(layers.os, "cpu_count", lambda: 3)
        monkeypatch.delenv("JITSTREAM_THREADS", raising=False)
        assert layers._process_width() == 3

    def test_blas_threads_read_from_library(self):
        blas = layers._blas_threads()
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert blas == 1
        else:
            assert blas is None or blas >= 1

    @pytest.mark.parametrize("failing", [0, 1])
    def test_share_exception_reaches_caller(self, split_width, failing):
        """An exception in the caller's share or a worker's is raised by the
        call once every share has finished, and the next call works."""
        pool = split_width(2)
        done = []

        def share(k):
            if k == failing:
                raise ZeroDivisionError(f"share {k}")
            done.append(k)

        status, exc = run_in_thread(lambda: pool.run(share, 2))
        assert status == "raised" and isinstance(exc, ZeroDivisionError)
        assert str(exc) == f"share {failing}" and done == [1 - failing]
        done.clear()
        assert run_in_thread(lambda: pool.run(done.append, 2)) == ("ok", None)
        assert sorted(done) == [0, 1]

    def test_interrupted_call_leaves_the_next_one_whole(self, split_width):
        """A call interrupted while it waits for a worker returns at once;
        the worker's late result does not end the next call early."""
        pool = split_width(2)
        release = threading.Event()

        def interrupt(signum, frame):
            raise TimeoutError
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(TimeoutError):
                pool.run(lambda k: k == 1 and release.wait(30), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        release.set()
        hits = []

        def share(k):
            if k == 1:
                time.sleep(0.05)
            hits.append(k)
        assert run_in_thread(lambda: pool.run(share, 2)) == ("ok", None)
        assert sorted(hits) == [0, 1]

    def test_busy_workers_leave_a_second_caller_serial(self, split_width):
        """A split called while another thread's split runs does every share
        on its own thread instead of waiting for the workers."""
        pool = split_width(2)
        inner = []

        def share(k):
            if k == 0:
                pool.run(lambda j: inner.append((j, threading.current_thread())), 2)
        assert run_in_thread(lambda: pool.run(share, 2))[0] == "ok"
        assert [j for j, _ in inner] == [0, 1]
        assert len({t for _, t in inner}) == 1

    def test_stress_callers_and_workers(self, split_width):
        """Four callers at once on a four-wide split, with the interpreter
        switching threads every microsecond: every call sees each of its
        shares run exactly once, and none hangs."""
        pool = split_width(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller():
                for _ in range(200):
                    hits = np.zeros(4, dtype=np.int64)

                    def share(k):
                        hits[k] += 1
                    pool.run(share, 4)
                    assert hits.tolist() == [1, 1, 1, 1]
            outcomes = []
            threads = [threading.Thread(target=lambda: outcomes.append(run_in_thread(caller)))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [("ok", None)] * 4

    def test_close_returns_once_the_threads_have_exited(self):
        """So a test may count threads right after one that started workers."""
        pool = layers._Workers(3)
        pool.run(lambda k: time.sleep(0.01), 3)
        threads = list(pool._threads)
        assert run_in_thread(pool.close) == ("ok", None)
        assert len(threads) == 2 and not any(thread.is_alive() for thread in threads)

    def test_forked_child_splits_on_its_own_workers(self, split_width):
        """A child forked after a split has none of the parent's threads; its
        first shifted layer makes workers of its own instead of waiting on
        the parent's."""
        split_width(2)
        x = np.ones((32, 180, 320), dtype=np.float32)
        w = np.ones((32, 32, 3, 3), dtype=np.float32)
        want, _ = shifted_conv3x3_forward(x, w, None)
        pid = os.fork()
        if pid == 0:                                        # the child
            y, _ = shifted_conv3x3_forward(x, w, None)
            os._exit(0 if np.array_equal(y, want) else 1)
        assert child_exit_code(pid) == 0

    def test_split_memory_bound(self, split_width, rng):
        """The 180x320 layer of TestShiftedConv's memory bound, split: the
        workers hold nothing of a call once it has returned."""
        split_width(2)
        assert_large_conv_memory_bound(rng)

    def test_workers_run_no_public_function(self, split_width):
        """Worker threads, the first with a backward's weight gradients, run
        only private code and numpy: perfbench wraps the public functions
        and methods of jitstream in spans, and its tracer keeps one stack of
        open spans for the whole process.  The separable pair's jobs are
        im2col's."""
        package = str(Path(layers.__file__).resolve().parents[1])
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                seen.add(frame.f_code.co_name)
        split_width(2)
        rng = np.random.default_rng(0)
        conv = Conv2d(64, 32, 3, rng=rng)
        norm = BatchNorm(32)
        relu = ReLU()
        sep = SeparableConv(32, 8, rng=rng)
        threading.setprofile(profile)       # for the threads the split starts
        try:
            y = sep.forward(relu.forward(norm.forward(conv.forward(
                rng.standard_normal((64, 180, 320)).astype(np.float32)))))
            with layers.deferred_weight_gradients():
                conv.backward(norm.backward(relu.backward(sep.backward(
                    rng.standard_normal(y.shape).astype(np.float32)))))
        finally:
            threading.setprofile(None)
        assert {"_serve", "_attempt", "_share", "_accumulate", "_weight_gradient"} <= seen
        assert [name for name in seen if not name.startswith("_")] == []


def network_pass(x, steps=2):
    """A fresh default network's logits, input gradient and parameter
    gradients after ``steps`` forward and backward passes on ``x``, so the
    gradients accumulate."""
    net = JITNet(ArchConfig(num_classes=4), seed=1)
    for step in range(steps):
        logits = net.forward(x)
        dx = net.backward(np.random.default_rng(4 + step).standard_normal(logits.shape)
                          .astype(np.float32))
    return [logits, dx] + [p.gradient.copy() for _, p in net.params()]


def watched_weight_gradients(monkeypatch, fail_at=None):
    """Wraps every convolution's weight gradient: each job sleeps a little,
    so that it is still running when the backward's caller goes on, and
    replaces its entry ``"submitted"`` with the thread it ran on once done;
    job ``fail_at`` raises ZeroDivisionError instead.  Returns the list of
    entries, one per job handed out."""
    original = layers._conv2d_gradients
    jobs = []

    def wrapped(dy, w, cache):
        input_gradient, weight_gradient = original(dy, w, cache)
        index = len(jobs)
        jobs.append("submitted")

        def _weight_gradient():
            time.sleep(0.01)
            if index == fail_at:
                raise ZeroDivisionError(f"job {index}")
            dw = weight_gradient()
            jobs[index] = threading.current_thread()
            return dw
        return input_gradient, _weight_gradient
    monkeypatch.setattr(layers, "_conv2d_gradients", wrapped)
    return jobs


class TestGradientThread:
    """A network's backward hands each convolution's weight and bias
    gradients to the pool's first worker while it goes on with the input
    gradients; every job runs the same operations on the same operands, so
    every bit is kept, and the backward returns once all have finished."""

    X64 = np.random.default_rng(3).standard_normal((3, 64, 64)).astype(np.float32)

    @pytest.mark.parametrize("hw", [(96, 96), (64, 640)])
    def test_deferred_equals_synchronous_bits(self, split_width, monkeypatch, hw):
        """At 96x96 nothing splits; at 64x640 head1 and head2 split too.
        Widths 1 and 2 with the jobs deferred equal width 2 with the jobs
        inline, bit for bit."""
        x = np.random.default_rng(3).standard_normal((3, *hw)).astype(np.float32)
        split_width(2)
        with monkeypatch.context() as inline:
            inline.setattr(arch_module, "deferred_weight_gradients", contextlib.nullcontext)
            jobs = watched_weight_gradients(inline)
            synchronous = network_pass(x)
        assert set(jobs) == {threading.current_thread()}
        for width in (1, 2):
            pool = split_width(width)
            got = network_pass(x)
            assert len(pool._threads) == (width == 2)
            for s, g in zip(synchronous, got):
                assert g.dtype == s.dtype and g.tobytes() == s.tobytes()

    def test_backward_deals_nothing(self, split_width, monkeypatch):
        """A training step's passes at 64x640 and width 2: the forward deals
        head1's and head2's blocks and stem1's GEMM, the backward runs every
        block on the calling thread and every weight gradient on the pool's
        first worker, and one helper thread is left."""
        pool = split_width(2)
        threads = threading.active_count()
        x = np.random.default_rng(3).standard_normal((3, 64, 640)).astype(np.float32)
        net = JITNet(ArchConfig(num_classes=4), seed=1)
        real = layers.run_blocks
        runners = []            # per blocked pass: the threads its blocks ran on

        def record(n, count, block):
            ran = set()

            def _block(lo, hi):
                ran.add(threading.current_thread())
                block(lo, hi)
            real(n, count, _block)
            if count > 1:
                runners.append(ran)
        monkeypatch.setattr(layers, "run_blocks", record)
        logits = net.forward(x)
        assert sum(len(ran) == 2 for ran in runners) == 6 + 1
        runners.clear()
        jobs = watched_weight_gradients(monkeypatch)
        net.backward(np.ones_like(logits))
        assert len(runners) == 5                # head2's and head1's BatchNorm and dx, a 3x3 dx
        assert all(ran == {threading.current_thread()} for ran in runners)
        assert jobs == [pool._threads[0]] * 29
        assert len(pool._threads) == 1 and threading.active_count() == threads + 1

    def test_stress_concurrent_training_steps(self, split_width, monkeypatch):
        """Three threads train their own network at once on a two-wide pool
        with blocks of a few rows, the interpreter switching threads every
        microsecond: whichever holds the pool, each keeps the bits of a
        training step run alone, and none hangs."""
        monkeypatch.setattr(layers, "BLOCK_BYTES", 4096)
        split_width(2)
        want = network_pass(self.X64, steps=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = []
            threads = [threading.Thread(target=lambda: outcomes.append(
                run_in_thread(lambda: network_pass(self.X64, steps=1), timeout=120)))
                for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(180)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [status for status, _ in outcomes] == ["ok"] * 3
        for _, got in outcomes:
            for w, g in zip(want, got):
                assert g.tobytes() == w.tobytes()
        assert not layers._workers._busy.locked()

    def test_failing_job_raises_in_caller(self, split_width, monkeypatch):
        """A job's exception reaches the backward's caller once every job
        has finished, and the next backward is whole."""
        split_width(2)
        want = network_pass(self.X64, steps=1)
        net = JITNet(ArchConfig(num_classes=4), seed=1)
        logits = net.forward(self.X64)
        dlogits = np.random.default_rng(4).standard_normal(logits.shape).astype(np.float32)
        with monkeypatch.context() as faulty:
            jobs = watched_weight_gradients(faulty, fail_at=2)
            with pytest.raises(ZeroDivisionError, match="job 2"):
                net.backward(dlogits)
            assert len(jobs) == 29 and jobs.count("submitted") == 1
        for p in net.param_states():
            p.clear_gradient()
        net.forward(self.X64)
        got = [logits, net.backward(dlogits)] + [p.gradient for p in net.param_states()]
        for w, g in zip(want, got):
            assert g.tobytes() == w.tobytes()

    def test_caller_exception_leaves_no_job_running(self, split_width, monkeypatch):
        """An exception on the calling thread mid-backward is raised once
        the jobs handed out so far have finished and lets go of the pool,
        and the next backward works as usual."""
        pool = split_width(2)
        net = JITNet(ArchConfig(num_classes=4), seed=1)
        logits = net.forward(self.X64)

        def broken(dy):
            raise KeyError("dec1")
        with monkeypatch.context() as faulty:
            jobs = watched_weight_gradients(faulty)
            faulty.setattr(net.dec1, "backward", broken)
            with pytest.raises(KeyError, match="dec1"):
                net.backward(np.ones_like(logits))
            # the classifier, head2 and head1 came before dec1
            assert jobs == [pool._threads[0]] * 3
        assert not pool._busy.locked()
        net.forward(self.X64)
        net.backward(np.ones_like(logits))

    def test_standalone_conv_completes_its_gradients(self, split_width, monkeypatch, rng):
        """Outside a network's backward a convolution returns with its
        weight and bias gradients complete, as gradient_check needs,
        computed on the calling thread."""
        split_width(2)
        jobs = watched_weight_gradients(monkeypatch)
        conv = Conv2d(64, 32, 3, rng=rng)
        x = rng.standard_normal((64, 180, 320)).astype(np.float32)
        dy = rng.standard_normal((32, 180, 320)).astype(np.float32)
        conv.forward(x)
        dx = conv.backward(dy)
        assert jobs == [threading.current_thread()]
        want = conv2d_backward(dy, conv.w.value, conv._cache)
        for got, w in zip((dx, conv.w.gradient, conv.b.gradient), want):
            assert got.tobytes() == w.tobytes()

    def test_forked_child_uses_its_own_gradient_thread(self, split_width):
        """A child forked after a deferred backward has none of its
        parent's threads; its own backward starts its pool's first worker
        and keeps the bits."""
        pool = split_width(2)
        want = network_pass(self.X64, steps=1)
        assert len(pool._threads) == 1
        pid = os.fork()
        if pid == 0:                                        # the child
            fresh = layers._workers is None
            layers._workers = layers._Workers(2)
            got = network_pass(self.X64, steps=1)
            same = all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            own = [t.is_alive() for t in layers._workers._threads] == [True]
            os._exit(0 if fresh and same and own else 1)
        assert child_exit_code(pid) == 0

    def test_deferred_memory_bound(self, split_width, rng):
        """The 180x320 layer of TestShiftedConv's memory bound with its
        weight gradient on the pool's first worker: the finished job holds
        nothing once the block has returned."""
        split_width(2)
        assert_large_conv_memory_bound(rng, deferred=True)


def channel_layout(x, layout):
    """``x`` with the same values in another memory layout: channels last, as
    a resize hands over at input_scale 0.5, or rows innermost, as the head
    resize's backward gives."""
    if layout == "channels-last":
        return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
    if layout == "rows-inner":
        return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    return x


def batchnorm_whole(x, gamma, beta, eps):
    """BatchNorm's forward over the whole array at once, as it ran before
    it ran in blocks of channels: the oracle of values, dtypes and layouts."""
    n = np.intp(x.shape[1] * x.shape[2])
    mean = np.add.reduce(x, axis=(1, 2), keepdims=True)
    mean /= n
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=(1, 2), keepdims=True)
    var /= n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    y = xhat * gamma[:, None, None]
    y += beta[:, None, None]
    return y, (xhat, inv_std, gamma)


def batchnorm_whole_backward(dy, cache):
    """The whole-array backward of :func:`batchnorm_whole`."""
    xhat, inv_std, gamma = cache
    n = xhat.shape[1] * xhat.shape[2]
    dgamma = (dy * xhat).sum(axis=(1, 2))
    dbeta = dy.sum(axis=(1, 2))
    dxhat = dy * gamma[:, None, None]
    s1 = dxhat.sum(axis=(1, 2), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    dx = inv_std * (dxhat - s1 / n - xhat * s2 / n)
    return dx, dgamma, dbeta


def relu_whole(x, dy):
    """ReLU's forward in place on the whole array, as it ran before it ran
    in blocks of channels, its mask and its backward."""
    mask = x > 0
    return np.multiply(x, mask, out=x), mask, dy * mask


class TestChannelBlocks:
    """BatchNorm's passes and ReLU's forward run in blocks of at least two
    channels: at any width and block count they equal the whole-array code
    they replaced, kept above as the oracle, in values, dtypes and memory
    layouts."""

    def passes(self, norm, relu, x, dy, gamma, beta, eps):
        """Forward and backward of BatchNorm, then of ReLU on a copy of
        ``x`` with a NaN and signed zeros, by the functions given."""
        y, cache = norm[0](x, gamma, beta, eps)
        xr = x.copy(order="K")
        xr[0, 0, :4] = [np.nan, -0.0, 0.0, -1.0]
        return (y, *cache, *norm[1](dy, cache), *relu(xr, dy))

    def blocked_relu(self, x, dy):
        relu = ReLU()
        y = relu.forward(x)
        return y, relu._mask, relu.backward(dy)

    def assert_equal_oracle(self, monkeypatch, x, dy, gamma, beta, eps=1e-5):
        seen = recorded_blocks(monkeypatch)
        got = self.passes((batchnorm_forward, batchnorm_backward), self.blocked_relu,
                          x, dy, gamma, beta, eps)
        want = self.passes((batchnorm_whole, batchnorm_whole_backward), relu_whole,
                           x, dy, gamma, beta, eps)
        assert_same_arrays(got, want)
        return [count for _, count in seen]

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_layout", ["C", "channels-last", "rows-inner"])
    @pytest.mark.parametrize("dy_layout", ["C", "channels-last", "rows-inner"])
    @pytest.mark.parametrize("channels,blocks", [
        (1, 1),             # one channel: the whole array
        (3, 1),             # a second block would hold one channel
        (5, 2),             # ragged: 2 and 3 channels
        (16, 8),
    ])
    def test_equals_whole_array_oracle(self, split_width, monkeypatch, width, dtype, x_layout,
                                       dy_layout, channels, blocks):
        """Blocks forced as small as the two-channel floor allows, the same
        at both widths."""
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1)
        split_width(width)
        rng = np.random.default_rng(channels)
        x = (rng.standard_normal((channels, 24, 37)) * 3 + 1.5).astype(dtype)
        x[0, 0, :3] = [-0.0, 0.0, -1.0]
        x = channel_layout(x, x_layout)
        dy = channel_layout(rng.standard_normal(x.shape).astype(dtype), dy_layout)
        gamma = rng.standard_normal(channels).astype(dtype)
        beta = rng.standard_normal(channels).astype(dtype)
        counts = self.assert_equal_oracle(monkeypatch, x, dy, gamma, beta)
        assert counts == [blocks] * 3

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("x_dtype,gamma_dtype,beta_dtype,eps,dy_dtype", [
        (np.float32, np.float64, np.float64, 1e-5, np.float32),     # y promotes
        (np.float32, np.float32, np.float64, 1e-5, np.float32),     # only y += beta does
        (np.float32, np.float32, np.float32, np.float64(1e-5), np.float32),    # inv_std does
        (np.float64, np.float32, np.float32, 1e-5, np.float32),     # float32 gradients
        (np.float32, np.float32, np.float32, 1e-5, np.float64),     # a float64 gradient
    ])
    def test_mixed_dtypes_equal_whole_array_oracle(self, split_width, monkeypatch, width,
                                                   x_dtype, gamma_dtype, beta_dtype, eps,
                                                   dy_dtype):
        """Operands of two dtypes promote every result as numpy's whole-array
        expressions do, in blocks of 2 channels."""
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1)
        split_width(width)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 6, 7)).astype(x_dtype)
        dy = rng.standard_normal(x.shape).astype(dy_dtype)
        gamma = rng.standard_normal(8).astype(gamma_dtype)
        beta = rng.standard_normal(8).astype(beta_dtype)
        counts = self.assert_equal_oracle(monkeypatch, x, dy, gamma, beta, eps)
        assert counts == [4] * 3


def recorded_blocks(monkeypatch, names=None):
    """Spies on :func:`layers.run_blocks`: returns the list it appends
    ``(pass, count)`` to for each pass, the pass named by its block function
    (``_columns``, ``_channels`` or ``_rows`` for the forward's GEMMs,
    resizes and label map); ``names`` keeps only those passes."""
    seen = []
    real = layers.run_blocks

    def record(n, count, block):
        if names is None or block.__name__ in names:
            seen.append((block.__name__, count))
        return real(n, count, block)
    monkeypatch.setattr(layers, "run_blocks", record)
    return seen


FORWARD_BLOCKS = {"_columns", "_channels", "_rows"}


def assert_same_arrays(got, want):
    """Equal dtypes, strides and bits, array by array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.strides == w.strides
        assert g.tobytes() == w.tobytes()


def widths_agree(split_width, run, widths=(1, 2, 3)):
    """``run()`` at each width: equal dtypes, strides and bits of every
    array it returns.  Returns the number of splits each width made."""
    results, splits = [], []
    for width in widths:
        calls = dealt_calls(split_width(width))
        results.append(run())
        splits.append(len(calls))
    for later in results[1:]:
        assert_same_arrays(later, results[0])
    return splits


def conv_case(rng, cin, cout, kernel, stride, hw, dtype=np.float32, layout="C"):
    """Input, weights and bias of a "same"-padded convolution, then its
    stride and padding: the arguments of ``conv2d_forward``."""
    kh, kw = layers._pair(kernel)
    x = channel_layout(rng.standard_normal((cin, *hw)).astype(dtype), layout)
    w = rng.standard_normal((cout, cin, kh, kw)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return x, w, b, stride, (kh // 2, kw // 2)


class TestForwardBlocks:
    """The forward's GEMM convolutions by blocks of output columns, its
    resizes by chunks of channels and the label map by blocks of rows: the
    blocks follow from the extents alone and deal round-robin to the
    threads, so every width gives the same bits.  At the default network's
    shapes the blocks give the bits of the pass run as one block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "channels-last"])
    @pytest.mark.parametrize("kernel,stride", [(3, 2), ((1, 3), 1), ((3, 1), 1), (1, 1), (1, 2)])
    def test_blocked_conv_equals_across_widths(self, split_width, monkeypatch, dtype, layout,
                                               kernel, stride):
        """Forced to many ragged blocks (at 1000 bytes, 3 to 21 of them),
        at widths 1, 2 and 3."""
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1000)
        x, w, b, stride, pad = conv_case(np.random.default_rng(6), 5, 6, kernel, stride,
                                         (19, 23), dtype, layout)

        def run():
            return [conv2d_forward(x, w, b, stride, pad)[0]]
        assert widths_agree(split_width, run) == [0, 1, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "channels-last", "rows-inner"])
    @pytest.mark.parametrize("hw,out_hw", [((12, 20), (23, 40)), ((9, 7), (36, 28)),
                                           ((23, 40), (12, 20)), ((36, 28), (9, 7))])
    @pytest.mark.parametrize("chunks", [3, 7])         # 2+2+3 channels, or 1 each
    def test_chunked_resize_equals_across_widths(self, split_width, monkeypatch, dtype,
                                                 layout, hw, out_hw, chunks):
        """Up and down, at widths 1, 2 and 3, laid out as the unchunked
        einsum's result."""
        x = channel_layout(np.random.default_rng(8).standard_normal((7, *hw)).astype(dtype),
                           layout)
        single, _ = bilinear_resize_forward(x, out_hw)
        monkeypatch.setattr(layers, "BLOCK_BYTES", x.nbytes // chunks + 1)
        assert layers.block_count(7, x.nbytes) == chunks

        def run():
            y, _ = bilinear_resize_forward(x, out_hw)
            assert y.strides == single.strides
            return [y]
        assert widths_agree(split_width, run) == [0, 1, 1]

    @pytest.mark.parametrize("layout", ["C", "rows-inner"])   # rows-inner: the head resize's
    def test_row_split_label_map_equals_across_widths(self, split_width, monkeypatch, layout):
        """23 rows in 4 ragged blocks at widths 1, 2 and 3; ties and signed
        zeros as in TestLabelMap, and the result is still argmax's."""
        rng = np.random.default_rng(9)
        logits = rng.integers(-2, 3, size=(5, 23, 37)).astype(np.float32)
        logits[:, 0, :5] = [[-0.0], [0.0], [-0.0], [0.0], [0.0]]
        logits = channel_layout(logits, layout)
        monkeypatch.setattr(layers, "BLOCK_BYTES", 23 * 37 * 4 // 4 + 1)
        seen = recorded_blocks(monkeypatch)

        def run():
            return [label_map(logits)]
        assert widths_agree(split_width, run) == [0, 1, 1]
        assert seen == [("_rows", 4)] * 3
        got = label_map(logits)
        want = logits.argmax(axis=0).astype(np.uint8)
        assert got.strides == want.strides and np.array_equal(got, want)

    @pytest.mark.parametrize("classes", [4, 9])     # the bundled streams', the paper's
    @pytest.mark.parametrize("hw", [(360, 640), (720, 1280)])
    def test_blocks_equal_single_call_at_network_shapes(self, split_width, monkeypatch,
                                                        classes, hw):
        """Every GEMM convolution and resize of a default network's forward,
        in float32 and in the memory layout the forward hands over: blocked,
        the bits and strides of the same pass run as one block."""
        config = ArchConfig(num_classes=classes)
        passes = ([functools.partial(conv2d_forward, *args)
                   for args in gemm_convs_of(config, hw, monkeypatch)]
                  + [functools.partial(bilinear_resize_forward, *args)
                     for args in resize_shapes_of(config, hw, monkeypatch)])
        split_width(2)
        seen = recorded_blocks(monkeypatch)
        blocked = [run_pass()[0] for run_pass in passes]
        assert len(seen) >= 11                  # the 11 the rule table has at 360p
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1 << 62)
        blocks = len(seen)
        single = [run_pass()[0] for run_pass in passes]
        assert len(seen) == blocks              # a pass of one block is the single call
        assert_same_arrays(blocked, single)

    def test_jitnet_widths_agree_with_tiny_blocks(self, split_width, monkeypatch):
        """Every blocked pass of a default network's forward, with blocks of
        a few columns, channels or rows, and the backward after it (which
        deals no block): logits, label map, input gradient and every
        parameter gradient equal at widths 1, 2 and 3."""
        monkeypatch.setattr(layers, "BLOCK_BYTES", 2048)
        seen = recorded_blocks(monkeypatch, FORWARD_BLOCKS)
        x = np.random.default_rng(12).standard_normal((3, 64, 96)).astype(np.float32)

        def run():
            net = JITNet(ArchConfig(num_classes=4), seed=1)
            logits = net.forward(x)
            dx = net.backward(np.random.default_rng(4).standard_normal(logits.shape)
                              .astype(np.float32))
            return ([logits, label_map(logits), dx]
                    + [p.gradient for _, p in net.params()])
        splits = widths_agree(split_width, run)
        assert splits[0] == 0 and splits[1] > 0
        assert {name for name, count in seen if count > 1} == {"_columns", "_channels", "_rows"}
