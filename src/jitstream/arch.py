"""Compact encoder-decoder segmentation network.

Topology (default plan): two stride-2 3x3 stem convolutions, three encoder
blocks (stride 2), three decoder blocks (resize 2, 2, 4), two 3x3 head
convolutions (the second followed by a 2x resize back to frame resolution)
and a final 1x1 classifier.

Each block normalizes its input, then runs two parallel paths - a 1x1
shortcut convolution and a residual path (3x3 convolution followed by a
separable 1x3 + 3x1 pair) - concatenates both, applies the activation and
resizes.  A block configured with ``channels c`` gives each path ``c``
channels, so its output carries ``2c``.  Skip connections concatenate each
encoder block's output into the input of the matching decoder block.

Decoder resizes target the recorded extent of the mirrored encoder stage,
which keeps skip junctions aligned for any input size (for extents
divisible by 32 this coincides with the nominal integer factors).

:meth:`ArchConfig.stage_plan` is the one architecture table: the network is
built by walking its rows, and the parameter count and FLOP model are folds
over the same rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    BatchNorm,
    BilinearResize,
    Concat,
    Conv2d,
    ParamState,
    ReLU,
    SeparableConv,
    SnapshotError,
)
from .nn.layers import strip_batch


class ArchError(ValueError):
    """Raised for configurations that violate the resolution ledger."""


def round_channels(base: int, multiplier: float) -> int:
    """Scale a channel count, rounding to the nearest multiple of 4 (floor 4)."""
    scaled = base * multiplier
    return max(4, int(np.floor(scaled / 4.0 + 0.5)) * 4)


class Stage(NamedTuple):
    """One row of the architecture table."""

    name: str
    kind: str               # "conv3x3" (conv + norm + ReLU), "block" or "conv1x1"
    stride: int
    resize: int             # nominal output upsampling factor
    channels: int           # per path for blocks, which output twice this
    in_channels: int        # including any skip concatenated into the input

    @property
    def out_channels(self) -> int:
        return 2 * self.channels if self.kind == "block" else self.channels

    def convs(self) -> list[tuple[int, int, int, int, bool]]:
        """``(kh, kw, cin, cout, bias)`` of every convolution in the stage."""
        cin, c = self.in_channels, self.channels
        if self.kind == "block":            # shortcut, residual 3x3, 1x3, 3x1
            return [(1, 1, cin, c, True), (3, 3, cin, c, True),
                    (1, 3, c, c, True), (3, 1, c, c, True)]
        k = 3 if self.kind == "conv3x3" else 1
        return [(k, k, cin, c, self.kind == "conv1x1")]

    def norm_channels(self) -> int:
        """Channels of the stage's normalization: a block normalizes its
        input, a 3x3 stage its output, the classifier nothing."""
        if self.kind == "block":
            return self.in_channels
        return self.channels if self.kind == "conv3x3" else 0


# JITNet.forward resizes dec3, dec2 and dec1 to the extents of enc2, enc1
# and stem1, and head2 to the network input: these nominal factors
_FORWARD_RESIZES = ((2, 2, 4), 2)


@dataclass(frozen=True)
class ArchConfig:
    num_classes: int
    width_multiplier: float = 1.0
    input_scale: float = 1.0
    skip_connections: bool = True
    stem_channels: tuple[int, int] = (8, 8)
    encoder_channels: tuple[int, int, int] = (64, 64, 128)
    decoder_channels: tuple[int, int, int] = (64, 32, 32)
    decoder_resizes: tuple[int, int, int] = (2, 2, 4)
    head_channels: tuple[int, int] = (32, 32)
    head_resize: int = 2
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.num_classes < 2:
            raise ArchError("num_classes must be >= 2")
        if self.width_multiplier <= 0:
            raise ArchError("width_multiplier must be > 0")
        if not 0 < self.input_scale <= 1:
            raise ArchError("input_scale must lie in (0, 1]")
        strides = 2 ** (2 + len(self.encoder_channels))
        resizes = int(np.prod(self.decoder_resizes)) * self.head_resize
        if strides != resizes:
            raise ArchError(f"resolution ledger violated: stride product {strides} "
                            f"!= resize product {resizes}")
        if (self.decoder_resizes, self.head_resize) != _FORWARD_RESIZES:
            raise ArchError(f"decoder_resizes {self.decoder_resizes} / head_resize "
                            f"{self.head_resize} differ from the plan JITNet.forward "
                            f"runs, {_FORWARD_RESIZES[0]} / {_FORWARD_RESIZES[1]}")

    def scaled(self, base: int) -> int:
        return round_channels(base, self.width_multiplier)

    def stage_plan(self) -> list[Stage]:
        """The stages in execution (and parameter initialization) order.
        Each takes the previous stage's output; decoder ``dec{i}`` below the
        deepest also takes ``enc{i}``'s output when skips are on."""
        plan: list[Stage] = []
        skips: dict[str, int] = {}

        def add(name, kind, stride, resize, channels, skip=0):
            in_ch = (plan[-1].out_channels if plan else 3) + skip
            plan.append(Stage(name, kind, stride, resize, channels, in_ch))

        add("stem1", "conv3x3", 2, 1, self.scaled(self.stem_channels[0]))
        add("stem2", "conv3x3", 2, 1, self.scaled(self.stem_channels[1]))
        for i, c in enumerate(self.encoder_channels, start=1):
            add(f"enc{i}", "block", 2, 1, self.scaled(c))
            skips[f"dec{i}"] = plan[-1].out_channels if self.skip_connections else 0
        n = len(self.decoder_channels)
        for i, (c, r) in enumerate(zip(self.decoder_channels, self.decoder_resizes)):
            name = f"dec{n - i}"
            add(name, "block", 1, r, self.scaled(c), skips[name] if i else 0)
        add("head1", "conv3x3", 1, 1, self.scaled(self.head_channels[0]))
        add("head2", "conv3x3", 1, self.head_resize, self.scaled(self.head_channels[1]))
        add("head3", "conv1x1", 1, 1, self.num_classes)
        return plan


def scaled_extent(hw: tuple[int, int], scale: float) -> tuple[int, int]:
    """The extent the network computes at for a frame of extent ``hw``."""
    if scale == 1.0:
        return hw
    return (max(1, round(hw[0] * scale)), max(1, round(hw[1] * scale)))


class ConvStage:
    """Convolution + per-frame norm + activation (stems and head convs)."""

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int, stride: int,
                 eps: float, rng: np.random.Generator, dtype):
        self.name = name
        self.conv = Conv2d(in_ch, out_ch, kernel, stride, bias=False, rng=rng, dtype=dtype)
        self.bn = BatchNorm(out_ch, eps, dtype)
        self.relu = ReLU()

    def params(self):
        return ([(f"{self.name}.conv.{n}", p) for n, p in self.conv.params()]
                + [(f"{self.name}.bn.{n}", p) for n, p in self.bn.params()])

    def forward(self, x):
        return self.relu.forward(self.bn.forward(self.conv.forward(x)))

    def backward(self, dy):
        return self.conv.backward(self.bn.backward(self.relu.backward(dy)))


class EncDecBlock:
    """Shortcut / residual twin-path block with optional output resize."""

    def __init__(self, name: str, in_ch: int, path_ch: int, stride: int,
                 eps: float, rng: np.random.Generator, dtype):
        self.name = name
        self.bn_in = BatchNorm(in_ch, eps, dtype)
        self.shortcut = Conv2d(in_ch, path_ch, 1, stride, bias=True, rng=rng, dtype=dtype)
        self.res_conv = Conv2d(in_ch, path_ch, 3, stride, bias=True, rng=rng, dtype=dtype)
        self.res_sep = SeparableConv(path_ch, path_ch, bias=True, rng=rng, dtype=dtype)
        self.relu_mid = ReLU()
        self.concat = Concat()
        self.relu_out = ReLU()
        self.resize = BilinearResize()

    def params(self):
        groups = [("bn_in", self.bn_in), ("shortcut", self.shortcut),
                  ("res3x3", self.res_conv), ("sep", self.res_sep)]
        return [(f"{self.name}.{g}.{n}", p) for g, layer in groups
                for n, p in layer.params()]

    def forward(self, x, out_hw=None):
        h = self.bn_in.forward(x)
        a = self.shortcut.forward(h)
        r = self.relu_mid.forward(self.res_conv.forward(h))
        r = self.res_sep.forward(r)
        y = self.relu_out.forward(self.concat.forward(a, r))
        if out_hw is not None:
            y = self.resize.forward(y, out_hw)
        else:
            self.resize._cache = None
        return y

    def backward(self, dy):
        if self.resize._cache is not None:
            dy = self.resize.backward(dy)
        da, dr = self.concat.backward(self.relu_out.backward(dy))
        dh = self.shortcut.backward(da)
        dh += self.res_conv.backward(self.relu_mid.backward(self.res_sep.backward(dr)))
        return self.bn_in.backward(dh)


class JITNet:
    """The full network graph: owns parameters, momentum state and the
    forward/backward execution order including skip routing."""

    def __init__(self, config: ArchConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4a49544e]))
        eps = config.bn_eps
        *stages, head3 = config.stage_plan()
        # built in table order, which is also the order of the weight draws
        self._stages = []
        for row in stages:
            if row.kind == "block":
                stage = EncDecBlock(row.name, row.in_channels, row.channels, row.stride,
                                    eps, rng, dtype)
            else:
                stage = ConvStage(row.name, row.in_channels, row.channels, 3, row.stride,
                                  eps, rng, dtype)
            setattr(self, row.name, stage)
            self._stages.append(stage)
        self.classifier = Conv2d(head3.in_channels, head3.channels, 1, 1, bias=True,
                                 rng=rng, dtype=dtype)

        self._skip2 = Concat()
        self._skip1 = Concat()
        self._in_resize = BilinearResize()
        self._head_resize = BilinearResize()
        self._out_resize = BilinearResize()

    # -- parameter bookkeeping -------------------------------------------

    def params(self) -> list[tuple[str, ParamState]]:
        out = []
        for stage in self._stages:
            out.extend(stage.params())
        out.extend((f"head3.{n}", p) for n, p in self.classifier.params())
        return out

    def param_states(self) -> list[ParamState]:
        return [p for _, p in self.params()]

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.value) for name, p in self.params()]

    def load_state(self, named_values: list[tuple[str, np.ndarray]]) -> None:
        """Set every parameter from ``(name, value)`` pairs, which must name
        exactly this network's parameters with their extents; raises
        :class:`SnapshotError` otherwise."""
        table = dict(named_values)
        for name, p in self.params():
            if name not in table:
                raise SnapshotError(f"snapshot is missing parameter {name}")
            value = table.pop(name)
            if tuple(value.shape) != tuple(p.value.shape):
                raise SnapshotError(f"snapshot extent mismatch for {name}: "
                                    f"{value.shape} vs {p.value.shape}")
            p.value[...] = value.astype(self.dtype)
            p.momentum_buffer[...] = 0
            p.clear_gradient()
        if table:
            raise SnapshotError(f"snapshot has unknown parameters: {sorted(table)}")

    # -- execution --------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map a ``(3, H, W)`` frame to ``(num_classes, H, W)`` logits.

        A leading batch extent of 1 is accepted and mirrored on the output.
        """
        had_batch = x.ndim == 4
        if had_batch:
            x = strip_batch(x)
        if x.ndim != 3 or x.shape[0] != 3:
            raise ValueError(f"expected a (3, H, W) frame, got {x.shape}")
        x = x.astype(self.dtype, copy=False)
        h, w = x.shape[1:]
        x0 = self._in_resize.forward(x, scaled_extent((h, w), self.config.input_scale))

        s1 = self.stem1.forward(x0)
        s2 = self.stem2.forward(s1)
        e1 = self.enc1.forward(s2)
        e2 = self.enc2.forward(e1)
        e3 = self.enc3.forward(e2)

        d3 = self.dec3.forward(e3, e2.shape[1:])
        d2_in = self._skip2.forward(d3, e2) if self.config.skip_connections else d3
        d2 = self.dec2.forward(d2_in, e1.shape[1:])
        d1_in = self._skip1.forward(d2, e1) if self.config.skip_connections else d2
        d1 = self.dec1.forward(d1_in, s1.shape[1:])

        y = self.head1.forward(d1)
        y = self.head2.forward(y)
        y = self._head_resize.forward(y, x0.shape[1:])
        logits = self.classifier.forward(y)
        logits = self._out_resize.forward(logits, (h, w))
        return logits[None] if had_batch else logits

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns the input gradient at the
        scaled frame extent (the pre-stem frame resize is not differentiated)."""
        dy = self._out_resize.backward(dlogits)
        dy = self.classifier.backward(dy)
        dy = self._head_resize.backward(dy)
        dy = self.head2.backward(dy)
        dd1 = self.head1.backward(dy)

        dd1_in = self.dec1.backward(dd1)
        if self.config.skip_connections:
            dd2, de1_skip = self._skip1.backward(dd1_in)
        else:
            dd2, de1_skip = dd1_in, 0
        dd2_in = self.dec2.backward(dd2)
        if self.config.skip_connections:
            dd3, de2_skip = self._skip2.backward(dd2_in)
        else:
            dd3, de2_skip = dd2_in, 0
        de3 = self.dec3.backward(dd3)

        de2 = self.enc3.backward(de3) + de2_skip
        de1 = self.enc2.backward(de2) + de1_skip
        ds2 = self.enc1.backward(de1)
        ds1 = self.stem2.backward(ds2)
        return self.stem1.backward(ds1)


def count_params_from_config(config: ArchConfig) -> int:
    """Parameter count derived from the configuration alone (no allocation):
    kernels and biases of every convolution plus scale and shift of every
    normalized channel."""
    return sum(2 * row.norm_channels()
               + sum(kh * kw * cin * cout + (cout if bias else 0)
                     for kh, kw, cin, cout, bias in row.convs())
               for row in config.stage_plan())


# -- analytic cost model ----------------------------------------------------
#
# FLOP conventions: one multiply-add counts as 2 FLOPs.  Totals cover the
# convolution kernels (2*kh*kw*Cin*Cout per output element) plus one FLOP
# per biased output element.  Normalization, activation, interpolation and
# concatenation are excluded, as is conventional for conv-net cost ledgers
# (they are O(channels * pixels) and contribute under 3% here).  A training
# step is forward + backward (2x forward per layer) + 2 FLOPs per parameter
# for the momentum update.


def _conv_flops(cin: int, cout: int, k: tuple[int, int], hw: tuple[int, int],
                bias: bool) -> int:
    kh, kw = k
    out_elems = cout * hw[0] * hw[1]
    return 2 * kh * kw * cin * out_elems + (out_elems if bias else 0)


def _conv_out_hw(hw: tuple[int, int], k: int, stride: int) -> tuple[int, int]:
    pad = k // 2
    return ((hw[0] + 2 * pad - k) // stride + 1,
            (hw[1] + 2 * pad - k) // stride + 1)


def estimate_flops(config: ArchConfig, input_hw: tuple[int, int],
                   mode: str = "inference") -> int:
    """Analytic FLOP total of one forward pass (or one training step) at the
    given frame extent.  A strided stage runs at the extent its stride
    gives; a stage resizing by ``2**k`` then undoes the ``k`` most recent
    strides not yet undone, returning to the extent before them, as
    :meth:`JITNet.forward` does (:class:`ArchConfig` admits no other
    resizes)."""
    if mode not in ("inference", "train_step"):
        raise ValueError(f"unknown mode {mode!r}")
    hw = scaled_extent(input_hw, config.input_scale)
    mirror = []                      # input extents of the strided stages
    total = 0
    for row in config.stage_plan():
        if row.stride > 1:
            mirror.append(hw)
            hw = _conv_out_hw(hw, 3, row.stride)
        total += sum(_conv_flops(cin, cout, (kh, kw), hw, bias)
                     for kh, kw, cin, cout, bias in row.convs())
        for _ in range(row.resize.bit_length() - 1):
            hw = mirror.pop()
    if mode == "train_step":
        total = 3 * total + 2 * count_params_from_config(config)
    return total


def end_to_end_gradient_check(seed: int = 0, eps: float = 1e-5,
                              sample_per_tensor: int = 4) -> float:
    """Finite-difference check of the whole network through the training
    loss, on a narrow 16x16 configuration in float64.  Probes a random
    subset of elements per parameter tensor."""
    from .nn.gradcheck import gradient_check
    from .nn.loss import weighted_softmax_cross_entropy

    config = ArchConfig(num_classes=2, width_multiplier=0.25)
    net = JITNet(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = rng.random((3, 16, 16))
    labels = rng.integers(0, 2, size=(16, 16))
    weights = rng.uniform(0.5, 2.0, size=(16, 16))

    class _TrainingHead:
        def params(self):
            return net.params()

        def forward(self, frame):
            res = weighted_softmax_cross_entropy(net.forward(frame), labels, weights)
            return np.array([res.loss])

        def backward(self, proj):
            res = weighted_softmax_cross_entropy(net.forward(x.copy()), labels, weights)
            return net.backward(res.grad * proj[0])

    return gradient_check(_TrainingHead(), x, eps=eps, rng=rng,
                          sample_per_tensor=sample_per_tensor)
