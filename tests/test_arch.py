import numpy as np
import pytest

from jitstream.arch import (
    ArchConfig,
    ArchError,
    JITNet,
    count_params_from_config,
    estimate_flops,
    round_channels,
    scaled_extent,
)
from jitstream.arch import _conv_flops
from jitstream.nn import (
    BilinearResize,
    Concat,
    Conv2d,
    ShapeError,
    gradient_check,
    load_weights,
    save_weights,
)
from jitstream.nn.loss import weighted_softmax_cross_entropy
from test_layers import max_relative_diff


def built_params(net: JITNet) -> int:
    return sum(p.value.size for _, p in net.params())


def built_params_by_stage(net: JITNet) -> dict[str, int]:
    totals: dict[str, int] = {}
    for name, p in net.params():
        stage = name.split(".", 1)[0]
        totals[stage] = totals.get(stage, 0) + p.value.size
    return totals


def tiny_config(**kw):
    defaults = dict(num_classes=2, width_multiplier=0.25)
    defaults.update(kw)
    return ArchConfig(**defaults)


class TestConfig:
    def test_channel_rounding(self):
        assert round_channels(8, 0.5) == 4
        assert round_channels(8, 0.25) == 4      # floor rule
        assert round_channels(64, 0.5) == 32
        assert round_channels(64, 1.0) == 64
        assert round_channels(12, 0.5) == 8      # 6 rounds up to the next multiple
        assert round_channels(128, 2.0) == 256

    def test_resolution_ledger_enforced(self):
        with pytest.raises(ArchError, match="resolution ledger"):
            ArchConfig(num_classes=4, encoder_channels=(64, 64))

    @pytest.mark.parametrize("num_classes,valid", [(2, True), (255, True), (1, False),
                                                   (256, False), (300, False)])
    def test_class_count_fits_uint8_labels(self, num_classes, valid):
        """Label maps are uint8 and class 255 is the ignore label, so the
        network may have at most 255 classes."""
        if valid:
            assert ArchConfig(num_classes=num_classes).num_classes == num_classes
        else:
            with pytest.raises(ArchError, match="num_classes must be"):
                ArchConfig(num_classes=num_classes)

    def test_width_scales_every_stage(self):
        full = {row.name: row.channels for row in ArchConfig(num_classes=8).stage_plan()}
        half = {row.name: row.channels for row in
                ArchConfig(num_classes=8, width_multiplier=0.5).stage_plan()}
        for name, c in full.items():
            if name == "head3":
                continue
            assert half[name] == round_channels(c, 0.5) == c // 2

    def test_stage_plan_shape(self):
        plan = ArchConfig(num_classes=8).stage_plan()
        assert [row[0] for row in plan] == [
            "stem1", "stem2", "enc1", "enc2", "enc3",
            "dec3", "dec2", "dec1", "head1", "head2", "head3"]
        assert [row[2] for row in plan] == [2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1]
        assert [row[3] for row in plan] == [1, 1, 1, 1, 1, 2, 2, 4, 1, 1, 2]
        assert {row.name: row.skip for row in plan if row.skip} == {
            "dec2": "enc2", "dec1": "enc1"}
        skipless = ArchConfig(num_classes=8, skip_connections=False).stage_plan()
        assert not any(row.skip for row in skipless)

    def test_stage_inputs_chain_and_carry_skips(self):
        cfg = ArchConfig(num_classes=8, encoder_channels=(32, 64, 128))
        plan = {row.name: row for row in cfg.stage_plan()}
        assert plan["stem1"].in_channels == 3
        assert plan["enc2"].in_channels == plan["enc1"].out_channels == 64
        assert plan["dec2"].in_channels == 2 * 64 + plan["enc2"].out_channels
        assert plan["dec1"].in_channels == 2 * 32 + plan["enc1"].out_channels
        assert plan["head3"].in_channels == plan["head2"].out_channels
        skipless = {row.name: row for row in
                    ArchConfig(num_classes=8, encoder_channels=(32, 64, 128),
                               skip_connections=False).stage_plan()}
        assert skipless["dec2"].in_channels == 2 * 64
        assert skipless["dec1"].in_channels == 2 * 32

    def test_network_follows_the_plan(self):
        cfg = tiny_config(encoder_channels=(32, 64, 128))
        net = JITNet(cfg, seed=0)
        names = [row.name for row in cfg.stage_plan()]
        assert [getattr(net, name).name for name in names[:-1]] == names[:-1]
        assert net.classifier.w.value.shape[:2] == (cfg.num_classes,
                                                    cfg.stage_plan()[-1].in_channels)
        prefixes = list(dict.fromkeys(name.split(".", 1)[0] for name, _ in net.params()))
        assert prefixes == names


class TestForward:
    def test_full_resolution_logits(self):
        net = JITNet(ArchConfig(num_classes=8, width_multiplier=0.25), seed=0)
        x = np.random.default_rng(0).random((3, 64, 64), dtype=np.float32)
        y = net.forward(x)
        assert y.shape == (8, 64, 64)
        assert np.isfinite(y).all()

    @pytest.mark.parametrize("hw", [(32, 32), (64, 96), (96, 96)])
    def test_shapes_divisible_by_32(self, hw):
        net = JITNet(tiny_config(num_classes=3), seed=1)
        x = np.random.default_rng(1).random((3, *hw), dtype=np.float32)
        assert net.forward(x).shape == (3, *hw)

    def test_odd_extent_still_full_resolution(self):
        net = JITNet(tiny_config(), seed=2)
        x = np.random.default_rng(2).random((3, 72, 40), dtype=np.float32)
        assert net.forward(x).shape == (2, 72, 40)

    def test_skipless_variant_runs(self):
        net = JITNet(tiny_config(skip_connections=False), seed=3)
        x = np.random.default_rng(3).random((3, 64, 64), dtype=np.float32)
        assert net.forward(x).shape == (2, 64, 64)

    def test_input_scale_runs_at_reduced_extent(self):
        cfg = tiny_config(input_scale=0.5)
        net = JITNet(cfg, seed=4)
        x = np.random.default_rng(4).random((3, 64, 64), dtype=np.float32)
        y = net.forward(x)
        assert y.shape == (2, 64, 64)
        assert net._in_resize._cache[0] == (3, 64, 64)

    def test_deterministic_forward(self):
        x = np.random.default_rng(5).random((3, 64, 64), dtype=np.float32)
        a = JITNet(tiny_config(), seed=9).forward(x)
        b = JITNet(tiny_config(), seed=9).forward(x)
        assert a.tobytes() == b.tobytes()


class HandWired:
    """Reference for the table walk: the forward and backward wired stage by
    stage by hand, run over a network's own stages with resizes and skip
    concats of its own."""

    def __init__(self, net: JITNet):
        self.net = net
        self.skip_connections = net.config.skip_connections
        self._skip2 = Concat()
        self._skip1 = Concat()
        self._in_resize = BilinearResize()
        self._dec3_resize = BilinearResize()
        self._dec2_resize = BilinearResize()
        self._dec1_resize = BilinearResize()
        self._head_resize = BilinearResize()
        self._out_resize = BilinearResize()

    def forward(self, x):
        net = self.net
        h, w = x.shape[1:]
        x0 = self._in_resize.forward(x, scaled_extent((h, w), net.config.input_scale))

        s1 = net.stem1.forward(x0)
        s2 = net.stem2.forward(s1)
        e1 = net.enc1.forward(s2)
        e2 = net.enc2.forward(e1)
        e3 = net.enc3.forward(e2)

        d3 = self._dec3_resize.forward(net.dec3.forward(e3), e2.shape[1:])
        d2_in = self._skip2.forward(d3, e2) if self.skip_connections else d3
        d2 = self._dec2_resize.forward(net.dec2.forward(d2_in), e1.shape[1:])
        d1_in = self._skip1.forward(d2, e1) if self.skip_connections else d2
        d1 = self._dec1_resize.forward(net.dec1.forward(d1_in), s1.shape[1:])

        y = net.head1.forward(d1)
        y = net.head2.forward(y)
        logits = self.head_forward(y, x0.shape[1:])
        return self._out_resize.forward(logits, (h, w))

    def head_forward(self, y, hw):
        return self._head_resize.forward(self.net.classifier.forward(y), hw)

    def head_backward(self, dy):
        return self.net.classifier.backward(self._head_resize.backward(dy))

    def backward(self, dlogits):
        net = self.net
        dy = self._out_resize.backward(dlogits)
        dy = self.head_backward(dy)
        dy = net.head2.backward(dy)
        dd1 = net.head1.backward(dy)

        dd1_in = net.dec1.backward(self._dec1_resize.backward(dd1))
        if self.skip_connections:
            dd2, de1_skip = self._skip1.backward(dd1_in)
        else:
            dd2, de1_skip = dd1_in, 0
        dd2_in = net.dec2.backward(self._dec2_resize.backward(dd2))
        if self.skip_connections:
            dd3, de2_skip = self._skip2.backward(dd2_in)
        else:
            dd3, de2_skip = dd2_in, 0
        de3 = net.dec3.backward(self._dec3_resize.backward(dd3))

        de2 = net.enc3.backward(de3) + de2_skip
        de1 = net.enc2.backward(de2) + de1_skip
        ds2 = net.enc1.backward(de1)
        ds1 = net.stem2.backward(ds2)
        return net.stem1.backward(ds1)


class ResizeThenClassify(HandWired):
    """The head wired the other way round: ``head2``'s output is resized to
    the network input's extent and then classified.  The classifier is affine
    per pixel and the resize row-stochastic, so this equals the table's
    order in real arithmetic; it is the oracle that order's rounding is
    held to."""

    def head_forward(self, y, hw):
        return self.net.classifier.forward(self._head_resize.forward(y, hw))

    def head_backward(self, dy):
        return self._head_resize.backward(self.net.classifier.backward(dy))


def forward_backward(model, net: JITNet, x, dlogits) -> list[np.ndarray]:
    """Logits, input gradient and every parameter gradient."""
    for _, p in net.params():
        p.clear_gradient()
    out = [model.forward(x).copy(), model.backward(dlogits).copy()]
    return out + [p.gradient.copy() for _, p in net.params()]


def fixed_inputs(cfg: ArchConfig, hw, dtype=np.float32):
    rng = np.random.default_rng(hw)
    return (rng.random((3, *hw), dtype=dtype),
            rng.standard_normal((cfg.num_classes, *hw), dtype=dtype))


def assert_matches_hand_wired(cfg: ArchConfig, hw) -> None:
    x, dlogits = fixed_inputs(cfg, hw)
    walked, wired = JITNet(cfg, seed=3), JITNet(cfg, seed=3)
    assert ([a.tobytes() for a in forward_backward(walked, walked, x, dlogits)]
            == [a.tobytes() for a in forward_backward(HandWired(wired), wired, x, dlogits)])


class TestTableWalk:
    @pytest.mark.parametrize("hw", [(96, 96), (50, 70), (72, 40)])
    @pytest.mark.parametrize("skips", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_bit_equal_to_hand_wired(self, width, scale, skips, hw):
        assert_matches_hand_wired(
            ArchConfig(num_classes=5, width_multiplier=width, input_scale=scale,
                       skip_connections=skips), hw)

    # dec2's skip reads enc2: 128 channels at the extent of dec3's output.
    # enc1 has the channels but twice the extent; dec3 has both, so the
    # walk runs, on the wrong operand.
    @pytest.mark.parametrize("source, failure", [("enc1", ShapeError),
                                                 ("dec3", AssertionError)])
    def test_misrouted_skip_is_caught(self, monkeypatch, source, failure):
        cfg = ArchConfig(num_classes=5)
        miswired = [row._replace(skip=source) if row.name == "dec2" else row
                    for row in cfg.stage_plan()]
        monkeypatch.setattr(ArchConfig, "stage_plan", lambda self: miswired)
        with pytest.raises(failure):
            assert_matches_hand_wired(cfg, (96, 96))


class TestHeadOrderOracle:
    """The table classifies before the head resize; :class:`ResizeThenClassify`
    resizes first.  Both orders agree to rounding in the logits, the input
    gradient and every parameter gradient."""

    @staticmethod
    def errors(cfg: ArchConfig, hw, dtype) -> list[float]:
        x, dlogits = fixed_inputs(cfg, hw, dtype)
        walked, oracle = JITNet(cfg, seed=3, dtype=dtype), JITNet(cfg, seed=3, dtype=dtype)
        got = forward_backward(walked, walked, x, dlogits)
        want = forward_backward(ResizeThenClassify(oracle), oracle, x, dlogits)
        # a parameter gradient is measured against the largest one: some
        # vanish in real arithmetic (a BatchNorm gamma whose output the next
        # normalization makes scale-invariant) and have no scale of their own
        largest = max(np.abs(w).max() for w in want[2:])
        return ([max_relative_diff(got[0], want[0]), max_relative_diff(got[1], want[1])]
                + [np.abs(g - w).max() / largest for g, w in zip(got[2:], want[2:])])

    @pytest.mark.parametrize("hw", [(96, 96), (50, 70)])
    @pytest.mark.parametrize("skips", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_matches_resize_then_classify(self, dtype, tol, scale, skips, hw):
        cfg = ArchConfig(num_classes=5, input_scale=scale, skip_connections=skips)
        assert max(self.errors(cfg, hw, dtype)) < tol

    def test_forward_matches_at_360p(self):
        cfg = ArchConfig(num_classes=4)
        x, _ = fixed_inputs(cfg, (360, 640))
        walked, oracle = JITNet(cfg, seed=3), JITNet(cfg, seed=3)
        assert max_relative_diff(walked.forward(x),
                                 ResizeThenClassify(oracle).forward(x)) < 1e-5


class TestCounts:
    def test_single_conv_param_formula(self):
        conv = Conv2d(2, 4, 3, bias=True)
        assert sum(p.value.size for _, p in conv.params()) == 3 * 3 * 2 * 4 + 4

    def test_net_count_matches_analytic(self):
        for cfg in (ArchConfig(num_classes=9), tiny_config(),
                    ArchConfig(num_classes=5, width_multiplier=0.5, skip_connections=False)):
            assert built_params(JITNet(cfg, seed=0)) == count_params_from_config(cfg)

    def test_width_half_strictly_smaller(self):
        full = count_params_from_config(ArchConfig(num_classes=32))
        half = count_params_from_config(ArchConfig(num_classes=32, width_multiplier=0.5))
        assert half < full

    def test_skip_removal_changes_only_decoder_consumers(self):
        with_skip = built_params_by_stage(JITNet(ArchConfig(num_classes=8), seed=0))
        without = built_params_by_stage(
            JITNet(ArchConfig(num_classes=8, skip_connections=False), seed=0))
        changed = {s for s in with_skip if with_skip[s] != without[s]}
        assert changed == {"dec1", "dec2"}

    def test_ledger_pinned(self):
        assert count_params_from_config(ArchConfig(num_classes=32)) == 775528
        cfg = ArchConfig(num_classes=9)
        assert estimate_flops(cfg, (720, 1280)) == 18080015360
        assert estimate_flops(cfg, (720, 1280), "train_step") == 54241595618

    @pytest.mark.parametrize("skip, params, infer, train", [
        (True, 173933, 1055865600, 3167944666),
        (False, 158381, 1000160000, 3000796762),
    ])
    def test_ledger_pinned_with_distinct_skip_widths(self, skip, params, infer, train):
        # enc1 and enc2 output different widths, so a skip routed from the
        # wrong encoder changes every figure
        cfg = ArchConfig(num_classes=9, width_multiplier=0.5, input_scale=0.5,
                         skip_connections=skip, encoder_channels=(32, 64, 128))
        assert count_params_from_config(cfg) == params
        assert built_params(JITNet(cfg, seed=0)) == params
        assert estimate_flops(cfg, (720, 1280)) == infer
        assert estimate_flops(cfg, (720, 1280), "train_step") == train

    def test_counters_are_pure(self):
        cfg = ArchConfig(num_classes=9)
        assert count_params_from_config(cfg) == count_params_from_config(cfg)
        assert (estimate_flops(cfg, (720, 1280))
                == estimate_flops(ArchConfig(num_classes=9), (720, 1280)))

    def test_pointwise_conv_flop_formula(self):
        assert _conv_flops(8, 8, (1, 1), (4, 4), bias=False) == 2048

    def test_train_step_includes_update_cost(self):
        cfg = tiny_config()
        infer = estimate_flops(cfg, (64, 64))
        train = estimate_flops(cfg, (64, 64), "train_step")
        assert train == 3 * infer + 2 * count_params_from_config(cfg)

    def test_width_half_fewer_flops(self):
        full = estimate_flops(ArchConfig(num_classes=8), (96, 96))
        half = estimate_flops(ArchConfig(num_classes=8, width_multiplier=0.5), (96, 96))
        assert half < full


class TestEndToEndGradients:
    def test_tiny_network_gradcheck(self):
        cfg = tiny_config()
        net = JITNet(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.random((3, 16, 16))
        labels = rng.integers(0, 2, size=(16, 16))
        weights = rng.uniform(0.5, 2.0, size=(16, 16))

        class _Head:
            """Adapter: network + loss as one differentiable unit."""

            def params(self):
                return net.params()

            def forward(self, frame):
                res = weighted_softmax_cross_entropy(net.forward(frame), labels, weights)
                return np.array([res.loss])

            def backward(self, proj):
                res = weighted_softmax_cross_entropy(net.forward(x.copy()), labels, weights)
                return net.backward(res.grad * proj[0])

        worst = gradient_check(_Head(), x, eps=1e-5, rng=rng, sample_per_tensor=4)
        assert worst < 1e-3


class TestSnapshotRoundTrip:
    def test_save_load_preserves_forward(self, tmp_path):
        cfg = tiny_config(num_classes=3)
        net = JITNet(cfg, seed=11)
        x = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
        y = net.forward(x)
        path = tmp_path / "weights.jitw"
        save_weights(path, net.state_arrays())
        twin = JITNet(cfg, seed=99)
        twin.load_state(load_weights(path))
        np.testing.assert_array_equal(twin.forward(x), y)

    def test_clone_is_independent(self):
        net = JITNet(tiny_config(), seed=1)
        twin = JITNet(tiny_config(), seed=0)
        twin.load_state(net.state_arrays())
        x = np.random.default_rng(1).random((3, 32, 32), dtype=np.float32)
        np.testing.assert_array_equal(net.forward(x), twin.forward(x))
        twin.params()[0][1].value += 1.0
        assert not np.array_equal(net.params()[0][1].value, twin.params()[0][1].value)
