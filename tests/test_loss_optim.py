import math

import numpy as np
import pytest

from jitstream.nn import (
    ParamState,
    SGDMomentum,
    weighted_softmax_cross_entropy,
)
from jitstream.nn.gradcheck import loss_gradient_check


class TestWeightedCrossEntropy:
    def test_uniform_logits_log_c(self):
        logits = np.zeros((4, 3, 3))
        labels = np.zeros((3, 3), dtype=np.int64)
        weights = np.ones((3, 3))
        res = weighted_softmax_cross_entropy(logits, labels, weights)
        assert res.loss == pytest.approx(math.log(4), rel=1e-12)

    def test_zero_weight_pixel_contributes_nothing(self, rng):
        logits = rng.standard_normal((3, 2, 2))
        labels = rng.integers(0, 3, size=(2, 2))
        weights = np.ones((2, 2))
        base = weighted_softmax_cross_entropy(logits, labels, weights)

        # Perturbing a zero-weight pixel's logits must not move loss or grad.
        weights2 = weights.copy()
        weights2[0, 0] = 0.0
        res = weighted_softmax_cross_entropy(logits, labels, weights2)
        assert not res.grad[:, 0, 0].any()
        logits2 = logits.copy()
        logits2[:, 0, 0] += 5.0
        res2 = weighted_softmax_cross_entropy(logits2, labels, weights2)
        assert res2.loss == pytest.approx(res.loss, rel=1e-12)
        assert base.loss != pytest.approx(res.loss, rel=1e-6)

    def test_two_pixel_hand_example(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]]).reshape(2, 1, 2)
        labels = np.array([[0, 1]])
        weights = np.array([[1.0, 5.0]])
        nll = math.log(1 + math.exp(-2.0))
        expected = (1.0 * nll + 5.0 * nll) / 6.0
        res = weighted_softmax_cross_entropy(logits, labels, weights)
        assert res.loss == pytest.approx(expected, rel=1e-12)

    def test_weight_scale_invariance(self, rng):
        logits = rng.standard_normal((5, 4, 4))
        labels = rng.integers(0, 5, size=(4, 4))
        weights = rng.uniform(0.1, 3.0, size=(4, 4))
        a = weighted_softmax_cross_entropy(logits, labels, weights)
        b = weighted_softmax_cross_entropy(logits, labels, 17.5 * weights)
        assert b.loss == pytest.approx(a.loss, rel=1e-9)
        np.testing.assert_allclose(b.grad, a.grad, rtol=1e-9, atol=1e-12)

    def test_ignore_label(self, rng):
        logits = rng.standard_normal((3, 2, 2))
        labels = np.array([[0, 255], [1, 255]], dtype=np.int64)
        weights = np.ones((2, 2))
        res = weighted_softmax_cross_entropy(logits, labels, weights)
        assert not res.grad[:, 0, 1].any() and not res.grad[:, 1, 1].any()
        only = weighted_softmax_cross_entropy(logits, np.array([[0, 0], [1, 0]]),
                                              np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert res.loss == pytest.approx(only.loss, rel=1e-12)

    def test_all_ignored_flagged(self):
        logits = np.zeros((2, 2, 2))
        labels = np.full((2, 2), 255, dtype=np.int64)
        res = weighted_softmax_cross_entropy(logits, labels, np.ones((2, 2)))
        assert res.degenerate and res.loss == 0.0 and not res.grad.any()

    def test_all_zero_weights_flagged(self):
        logits = np.zeros((2, 2, 2))
        labels = np.zeros((2, 2), dtype=np.int64)
        res = weighted_softmax_cross_entropy(logits, labels, np.zeros((2, 2)))
        assert res.degenerate and res.loss == 0.0 and not res.grad.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_bits_match_meshgrid_formula(self, rng, dtype):
        logits = rng.standard_normal((4, 9, 13)).astype(dtype)
        labels = rng.integers(0, 4, size=(9, 13))
        labels[2, :5] = 255
        weights = rng.uniform(0.0, 2.0, size=(9, 13))
        weights[5, 3:7] = 0.0
        res = weighted_softmax_cross_entropy(logits, labels, weights)

        valid = labels != 255
        lab = np.where(valid, labels, 0)
        w_eff = np.where(valid, weights, 0).astype(dtype)
        scale = w_eff / float(w_eff.sum())
        exp = np.exp(logits - logits.max(axis=0, keepdims=True))
        denom = exp.sum(axis=0, keepdims=True)
        want = (exp / denom) * scale[None]
        rows, cols = np.meshgrid(np.arange(9), np.arange(13), indexing="ij")
        want[lab, rows, cols] -= scale
        assert res.grad.dtype == want.dtype and res.grad.tobytes() == want.tobytes()

    def test_softmax_normalization(self, rng):
        logits = rng.standard_normal((6, 3, 3)) * 10
        shifted = logits - logits.max(axis=0, keepdims=True)
        soft = np.exp(shifted) / np.exp(shifted).sum(axis=0, keepdims=True)
        np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-5)

    def test_gradient_matches_finite_differences(self, rng):
        labels = rng.integers(0, 4, size=(3, 3))
        weights = rng.uniform(0.0, 2.0, size=(3, 3))

        def fn(logits):
            res = weighted_softmax_cross_entropy(logits, labels, weights)
            return res.loss, res.grad

        worst = loss_gradient_check(fn, rng.standard_normal((4, 3, 3)))
        assert worst < 1e-6


class TestSGDMomentum:
    def test_zero_gradient_no_change(self, rng):
        p = ParamState.of(rng.standard_normal((3, 3)))
        before = p.value.copy()
        SGDMomentum([p], lr=0.5, momentum=0.9).step()
        np.testing.assert_array_equal(p.value, before)

    def test_momentum_zero_plain_step(self, rng):
        p = ParamState.of(rng.standard_normal(4))
        g = rng.standard_normal(4)
        p.gradient += g
        before = p.value.copy()
        SGDMomentum([p], lr=0.1, momentum=0.0).step()
        np.testing.assert_allclose(p.value, before - 0.1 * g, rtol=1e-7)

    def test_two_step_recurrence(self):
        p = ParamState.of(np.array([1.0]))
        g = np.array([0.4])
        opt = SGDMomentum([p], lr=0.01, momentum=0.9)
        for _ in range(2):
            p.gradient += g
            opt.step()
        # step 1 buffer g, step 2 buffer 1.9 g
        assert p.value[0] == pytest.approx(1.0 - 0.01 * (0.4 + 1.9 * 0.4), rel=1e-12)

    def test_gradients_cleared(self, rng):
        p = ParamState.of(rng.standard_normal(3))
        p.gradient += 1.0
        SGDMomentum([p], lr=0.01, momentum=0.9).step()
        assert not p.gradient.any()

    def test_non_finite_gradient_rejected_and_counted(self, rng):
        good = ParamState.of(rng.standard_normal(3))
        bad = ParamState.of(rng.standard_normal(3))
        good.gradient += 1.0
        bad.gradient += np.array([1.0, np.nan, 0.0])
        bad_before = bad.value.copy()
        opt = SGDMomentum([good, bad], lr=0.1, momentum=0.0)
        rejected = opt.step()
        assert rejected == 1 and opt.rejected_total == 1
        np.testing.assert_array_equal(bad.value, bad_before)
        assert not bad.gradient.any()
        assert not np.array_equal(good.value, good.value * 0)
