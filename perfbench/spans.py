"""Spans around calls into the program's layers, recorded from outside.

A traced round swaps the public functions and methods of ``config``,
``streams``, ``distill``, ``arch``, ``nn``, ``metrics`` and ``cli`` for
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the round ends; self time is
a span's duration minus the durations of its direct children.  The program
itself is not modified, so the untraced rounds run exactly its code.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from jitstream import arch, cli, distill, streams
from jitstream.nn import layers, optim

LAYERS = ("config", "streams", "distill", "arch", "nn", "metrics", "cli")
STAGES = ("stem1", "stem2", "enc1", "enc2", "enc3", "dec3", "dec2", "dec1",
          "head1", "head2", "head3")
NN_KINDS = ("conv3x3", "conv1x1", "conv_sep", "batchnorm", "relu", "resize", "concat")
LABEL_SPANS = ("distill.retain", "distill.rasterize", "distill.weight_map")
FRAME_SPANS = ("bench.frame", "bench.loop_tail")    # the loop body, per frame

# (metric, unit, better) in report order; the span each one reads is named
# by the metric with its unit suffix removed
PER_LAYER = (
    [("config.load_s", "s", "lower"),
     ("streams.render_ms", "ms", "lower"),
     ("streams.teacher_ms", "ms", "lower"),
     ("streams.container_open_s", "s", "lower"),
     ("distill.jsonl_read_s", "s", "lower"),
     ("distill.labels_ms", "ms", "lower"),
     ("distill.adapt_ms", "ms", "lower"),
     ("distill.predict_ms", "ms", "lower"),
     ("distill.train_step_ms", "ms", "lower"),
     ("distill.updates", "count", "lower"),
     ("distill.check_pass_ratio", "ratio", "higher"),
     ("arch.forward_ms", "ms", "lower"),
     ("arch.backward_ms", "ms", "lower"),
     ("arch.forward_gflops", "GFLOP/s", "higher"),
     ("arch.train_step_gflops", "GFLOP/s", "higher"),
     ("arch.forward_alloc_mb", "MiB", "lower")]
    + [(f"arch.stage.{s}.{d}_ms", "ms", "lower")
       for s in STAGES for d in ("forward", "backward")]
    + [(f"nn.{k}.{d}_ms", "ms", "lower") for k in NN_KINDS for d in ("forward", "backward")]
    + [(f"nn.{k}_ms", "ms", "lower") for k in ("im2col", "col2im", "loss", "sgd")]
    + [("metrics.mean_iou_ms", "ms", "lower"),
       ("cli.write_s", "s", "lower")]
    + [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("trace.overhead_s", "s", "lower")])


class Tracer:
    """In-memory span list; ``spans[i] = [name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's first argument that may return None for no span."""
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            if label is None:
                return fn(*args, **kwargs)
            index = self.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def _conv_name(conv, direction: str) -> str | None:
    # separable halves are timed as one nn.conv_sep call by their parent
    kind = {(3, 3): "nn.conv3x3", (1, 1): "nn.conv1x1"}.get(conv.w.value.shape[2:])
    return kind and f"{kind}.{direction}"


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site.  Module
    functions are replaced where their caller looks them up; ``config.load``
    is spanned by the round's own set-up timer."""
    table = [
        (cli, "read_predictions_jsonl", "distill.jsonl_read"),
        (streams.SyntheticStream, "frame", "streams.render"),
        (streams.ContainerSource, "__init__", "streams.container_open"),
        (distill, "retain_instances", "distill.retain"),
        (distill, "rasterize_teacher", "distill.rasterize"),
        (distill, "build_weight_map", "distill.weight_map"),
        (distill, "adapt_on_frame", "distill.adapt"),
        (distill.JITNetStudent, "predict", "distill.predict"),
        (distill.JITNetStudent, "train_step", "distill.train_step"),
        (distill, "weighted_softmax_cross_entropy", "nn.loss"),
        (distill, "mean_iou", "metrics.mean_iou"),
        (arch.JITNet, "forward", "arch.forward"),
        (arch.JITNet, "backward", "arch.backward"),
        (layers, "im2col", "nn.im2col"),
        (layers, "col2im", "nn.col2im"),
        (optim.SGDMomentum, "step", "nn.sgd"),
    ]
    for d in ("forward", "backward"):
        table += [(arch.ConvStage, d, lambda stage, d=d: f"arch.stage.{stage.name}.{d}"),
                  (arch.EncDecBlock, d, lambda stage, d=d: f"arch.stage.{stage.name}.{d}"),
                  (layers.Conv2d, d, lambda conv, d=d: _conv_name(conv, d))]
        table += [(owner, d, f"nn.{kind}.{d}") for owner, kind in (
            (layers.SeparableConv, "conv_sep"), (layers.BatchNorm, "batchnorm"),
            (layers.ReLU, "relu"), (layers.BilinearResize, "resize"),
            (layers.Concat, "concat"))]
    return [(owner, attr, tracer.wrap(getattr(owner, attr), name))
            for owner, attr, name in table]


def trace_classifier(tracer: Tracer, net) -> None:
    """The 1x1 classifier is stage ``head3`` but a bare layer of the net."""
    for d in ("forward", "backward"):
        setattr(net.classifier, d,
                tracer.wrap(getattr(net.classifier, d), f"arch.stage.head3.{d}"))


@contextmanager
def patched(patches):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def span_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-layer timing metrics pooled over the traced rounds.  A metric of a
    layer that made no call on this workload reads 0.  Self time of the
    benchmark's frame spans counts for the layer that encloses them; its
    calibration spans count for none."""
    durations = defaultdict(list)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    labels = []
    for tracer in tracers:
        recorded = tracer.spans
        child_time = [0.0] * len(recorded)
        per_frame = defaultdict(float)
        for name, start, end, parent in recorded:
            if parent >= 0:
                child_time[parent] += end - start
                if name in LABEL_SPANS and recorded[parent][0] == "bench.frame":
                    per_frame[parent] += end - start
        for i, (name, start, end, parent) in enumerate(recorded):
            durations[name].append(end - start)
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                calls[layer] += 1
            elif name in FRAME_SPANS:
                layer = recorded[parent][0].split(".", 1)[0]
            self_s[layer] += end - start - child_time[i]
        labels += per_frame.values()

    rounds = len(tracers)
    out = {"distill.labels_ms": _median(labels) * 1e3}
    for metric, unit, _ in PER_LAYER:
        span = metric.rsplit("_", 1)[0]
        if unit in ("ms", "s") and metric not in out:
            out[metric] = _median(durations.get(span)) * (1e3 if unit == "ms" else 1.0)
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / rounds
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    return out
