"""Compact encoder-decoder segmentation network.

Topology: two stride-2 3x3 stem convolutions, three encoder blocks (stride
2), three decoder blocks (resize 2, 2, 4), two 3x3 head convolutions and a
final 1x1 classifier, followed by a 2x resize back to the network input's
extent.

Each block normalizes its input, then runs two parallel paths - a 1x1
shortcut convolution and a residual path (3x3 convolution followed by a
separable 1x3 + 3x1 pair) - concatenates both and applies the activation.
A block configured with ``channels c`` gives each path ``c`` channels, so
its output carries ``2c``.  Skip connections concatenate each encoder
block's output into the input of the matching decoder block.

A stage resizing by ``2**k`` returns to the input extent of the ``k`` most
recent strided stages not yet undone, which keeps skip junctions aligned for
any input size (for extents divisible by 32 this coincides with the nominal
integer factors).

:meth:`ArchConfig.stage_plan` is the one architecture table: the network's
layers, its forward and backward, the parameter count and the FLOP model
all walk its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    BatchNorm,
    BilinearResize,
    Concat,
    Conv2d,
    IGNORE_LABEL,
    ParamState,
    ReLU,
    SeparableConv,
    SnapshotError,
    conv_out_size,
)
from .nn.layers import deferred_weight_gradients


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
    skip: str | None        # the stage whose output is concatenated to the input

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


# the fixed part of the plan; widths are scaled by ``width_multiplier``
_STEM_CHANNELS = (8, 8)
_DECODER_CHANNELS = (64, 32, 32)        # dec3, dec2, dec1
_DECODER_RESIZES = (2, 2, 4)
_HEAD_CHANNELS = (32, 32)
_HEAD_RESIZE = 2
_BN_EPS = 1e-5


@dataclass(frozen=True)
class ArchConfig:
    num_classes: int
    width_multiplier: float = 1.0
    input_scale: float = 1.0
    skip_connections: bool = True
    encoder_channels: tuple[int, int, int] = (64, 64, 128)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ArchError("num_classes must be >= 2")
        if self.num_classes > IGNORE_LABEL:
            raise ArchError(f"num_classes must be <= {IGNORE_LABEL}: label maps hold class "
                            f"ids as uint8 and {IGNORE_LABEL} is the ignore label, "
                            f"got {self.num_classes}")
        if not (math.isfinite(self.width_multiplier) and self.width_multiplier > 0):
            raise ArchError(f"width_multiplier must be finite and > 0, "
                            f"got {self.width_multiplier}")
        if not 0 < self.input_scale <= 1:
            raise ArchError("input_scale must lie in (0, 1]")
        strides = 2 ** (len(_STEM_CHANNELS) + len(self.encoder_channels))
        resizes = int(np.prod(_DECODER_RESIZES)) * _HEAD_RESIZE
        if strides != resizes:
            raise ArchError(f"resolution ledger violated: stride product {strides} "
                            f"!= resize product {resizes}")

    def check_covers(self, class_count: int) -> None:
        """The network needs one output per foreground class plus background."""
        if self.num_classes < class_count + 1:
            raise ArchError(f"num_classes must be >= class_count + 1 = "
                            f"{class_count + 1}, got {self.num_classes}")

    def scaled(self, base: int) -> int:
        return round_channels(base, self.width_multiplier)

    def stage_plan(self) -> list[Stage]:
        """The stages in execution (and parameter initialization) order.
        Each takes the previous stage's output; decoder ``dec{i}`` below the
        deepest also takes ``enc{i}``'s output, named by its ``skip``, when
        skips are on."""
        plan: list[Stage] = []

        def add(name, kind, stride, resize, channels, skip=None):
            in_ch = plan[-1].out_channels if plan else 3
            if skip:
                in_ch += next(row.out_channels for row in plan if row.name == skip)
            plan.append(Stage(name, kind, stride, resize, channels, in_ch, skip))

        add("stem1", "conv3x3", 2, 1, self.scaled(_STEM_CHANNELS[0]))
        add("stem2", "conv3x3", 2, 1, self.scaled(_STEM_CHANNELS[1]))
        for i, c in enumerate(self.encoder_channels, start=1):
            add(f"enc{i}", "block", 2, 1, self.scaled(c))
        n = len(_DECODER_CHANNELS)
        for i, (c, r) in enumerate(zip(_DECODER_CHANNELS, _DECODER_RESIZES)):
            skip = f"enc{n - i}" if i and self.skip_connections else None
            add(f"dec{n - i}", "block", 1, r, self.scaled(c), skip)
        add("head1", "conv3x3", 1, 1, self.scaled(_HEAD_CHANNELS[0]))
        add("head2", "conv3x3", 1, 1, self.scaled(_HEAD_CHANNELS[1]))
        # the classifier is affine per pixel and the resize row-stochastic, so
        # classifying before the resize equals classifying after it up to
        # rounding, and the resize carries num_classes channels, not head2's
        add("head3", "conv1x1", 1, _HEAD_RESIZE, self.num_classes)
        return plan


def scaled_extent(hw: tuple[int, int], scale: float) -> tuple[int, int]:
    """The extent the network computes at for a frame of extent ``hw``."""
    if scale == 1.0:
        return hw
    return (max(1, round(hw[0] * scale)), max(1, round(hw[1] * scale)))


class ConvStage:
    """Convolution + per-frame norm + activation (stems and head convs)."""

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.conv = Conv2d(in_ch, out_ch, kernel, stride, bias=False, rng=rng, dtype=dtype)
        self.bn = BatchNorm(out_ch, _BN_EPS, dtype)
        self.relu = ReLU()

    def params(self):
        return ([(f"{self.name}.conv.{n}", p) for n, p in self.conv.params()]
                + [(f"{self.name}.bn.{n}", p) for n, p in self.bn.params()])

    def forward(self, x):
        return self.relu.forward(self.bn.forward(self.conv.forward(x)))

    def backward(self, dy):
        return self.conv.backward(self.bn.backward(self.relu.backward(dy)))


class EncDecBlock:
    """Shortcut / residual twin-path block."""

    def __init__(self, name: str, in_ch: int, path_ch: int, stride: int,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.bn_in = BatchNorm(in_ch, _BN_EPS, dtype)
        self.shortcut = Conv2d(in_ch, path_ch, 1, stride, bias=True, rng=rng, dtype=dtype)
        self.res_conv = Conv2d(in_ch, path_ch, 3, stride, bias=True, rng=rng, dtype=dtype)
        self.res_sep = SeparableConv(path_ch, path_ch, bias=True, rng=rng, dtype=dtype)
        self.relu_mid = ReLU()
        self.concat = Concat()
        self.relu_out = ReLU()

    def params(self):
        groups = [("bn_in", self.bn_in), ("shortcut", self.shortcut),
                  ("res3x3", self.res_conv), ("sep", self.res_sep)]
        return [(f"{self.name}.{g}.{n}", p) for g, layer in groups
                for n, p in layer.params()]

    def forward(self, x):
        h = self.bn_in.forward(x)
        a = self.shortcut.forward(h)
        r = self.relu_mid.forward(self.res_conv.forward(h))
        r = self.res_sep.forward(r)
        return self.relu_out.forward(self.concat.forward(a, r))

    def backward(self, dy):
        da, dr = self.concat.backward(self.relu_out.backward(dy))
        dh = self.shortcut.backward(da)
        dh += self.res_conv.backward(self.relu_mid.backward(self.res_sep.backward(dr)))
        return self.bn_in.backward(dh)


def _resize_target(resize: int, mirror: list[tuple[int, int]]) -> tuple[int, int]:
    """The extent a stage resizing by ``2**k`` (``k >= 1``) returns to.
    ``mirror`` holds the input extents of the strided stages run so far and
    not yet undone; the resize undoes the last ``k``, pops them and returns
    the input extent of the earliest."""
    for _ in range(resize.bit_length() - 1):
        hw = mirror.pop()
    return hw


class JITNet:
    """The full network graph: owns parameters, momentum state and the
    forward/backward walk over the stage table, including skip routing."""

    def __init__(self, config: ArchConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4a49544e]))
        self._plan = config.stage_plan()
        *stages, head3 = self._plan
        # built in table order, which is also the order of the weight draws;
        # one layer per row
        self._layers = []
        try:
            for row in stages:
                if row.kind == "block":
                    stage = EncDecBlock(row.name, row.in_channels, row.channels, row.stride,
                                        rng, dtype)
                else:
                    stage = ConvStage(row.name, row.in_channels, row.channels, 3, row.stride,
                                      rng, dtype)
                setattr(self, row.name, stage)
                self._layers.append(stage)
            self.classifier = Conv2d(head3.in_channels, head3.channels, 1, 1, bias=True,
                                     rng=rng, dtype=dtype)
        except (MemoryError, ValueError) as exc:
            # numpy refuses a weight array too large to allocate or to index
            raise ArchError(f"width_multiplier = {config.width_multiplier:g}: the network's "
                            f"weights cannot be allocated ({exc})") from None
        self._layers.append(self.classifier)

        # one Concat per skip, keyed by the stage whose output it carries
        self._skips = {row.skip: Concat() for row in self._plan if row.skip}
        self._resizes = {row.name: BilinearResize() for row in self._plan if row.resize > 1}
        self._in_resize = BilinearResize()
        self._out_resize = BilinearResize()

    # -- parameter bookkeeping -------------------------------------------

    def params(self) -> list[tuple[str, ParamState]]:
        out = []
        for stage in self._layers[:-1]:
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
        """Map a ``(3, H, W)`` frame to ``(num_classes, H, W)`` logits."""
        if x.ndim != 3 or x.shape[0] != 3:
            raise ValueError(f"expected a (3, H, W) frame, got {x.shape}")
        x = x.astype(self.dtype, copy=False)
        h, w = x.shape[1:]
        y = self._in_resize.forward(x, scaled_extent((h, w), self.config.input_scale))
        mirror = []                      # see _resize_target
        skip_outputs = {}
        for row, layer in zip(self._plan, self._layers):
            if row.skip:
                y = self._skips[row.skip].forward(y, skip_outputs.pop(row.skip))
            if row.stride > 1:
                mirror.append(y.shape[1:])
            y = layer.forward(y)
            if row.resize > 1:
                y = self._resizes[row.name].forward(y, _resize_target(row.resize, mirror))
            if row.name in self._skips:
                skip_outputs[row.name] = y
        return self._out_resize.forward(y, (h, w))

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns the input gradient at the
        scaled frame extent (the pre-stem frame resize is not differentiated).
        The convolutions' weight gradients may be computed on the pool's
        first worker while every other pass runs on the calling thread
        (:func:`deferred_weight_gradients`); all are complete on return."""
        with deferred_weight_gradients():
            dy = self._out_resize.backward(dlogits)
            skip_grads = {}              # by the stage whose output was concatenated
            for row, layer in zip(reversed(self._plan), reversed(self._layers)):
                if row.name in skip_grads:
                    dy = dy + skip_grads.pop(row.name)
                if row.resize > 1:
                    dy = self._resizes[row.name].backward(dy)
                dy = layer.backward(dy)
                if row.skip:
                    dy, skip_grads[row.skip] = self._skips[row.skip].backward(dy)
        return dy


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


def estimate_flops(config: ArchConfig, input_hw: tuple[int, int],
                   mode: str = "inference") -> int:
    """Analytic FLOP total of one forward pass (or one training step) at the
    given frame extent, walking the stage table as :meth:`JITNet.forward`
    does: a strided stage runs at the extent its stride gives, and a
    resizing stage's output returns to the extent :func:`_resize_target`
    picks."""
    if mode not in ("inference", "train_step"):
        raise ValueError(f"unknown mode {mode!r}")
    hw = scaled_extent(input_hw, config.input_scale)
    mirror = []                      # input extents of the strided stages
    total = 0
    for row in config.stage_plan():
        if row.stride > 1:
            mirror.append(hw)
            hw = tuple(conv_out_size(n, 3, row.stride, 1) for n in hw)
        total += sum(_conv_flops(cin, cout, (kh, kw), hw, bias)
                     for kh, kw, cin, cout, bias in row.convs())
        if row.resize > 1:
            hw = _resize_target(row.resize, mirror)
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
