"""Online distillation: label generation, the bounded per-frame adaptation
loop, and the exponential back-off teacher scheduler.

The stream loop consults the teacher only on frames whose index is a
multiple of the current stride ``delta``.  On a teacher frame the student is
trained against the rasterized teacher output until it clears the accuracy
threshold or exhausts the per-frame update budget; the stride then doubles
after a passing check and halves otherwise, clamped to
``[delta_min, delta_max]``.  Every other frame runs student inference only.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import JITNet
from .metrics import mean_iou
from .nn import SGDMomentum, label_map, weighted_softmax_cross_entropy


class TeacherError(RuntimeError):
    """A teacher failed to produce predictions for a frame."""

    def __init__(self, frame_index: int, reason: str = "unavailable"):
        super().__init__(f"teacher failed on frame {frame_index}: {reason}")
        self.frame_index = frame_index


class StreamNumericError(RuntimeError):
    """Student inference produced non-finite values; the run cannot continue."""

    def __init__(self, frame_index: int):
        super().__init__(f"non-finite student output on frame {frame_index}")
        self.frame_index = frame_index


@dataclass
class TeacherInstance:
    """One predicted object: class, confidence, half-open pixel box and a
    binary mask that covers exactly the box, as the JSONL wire format
    carries it."""

    class_id: int
    confidence: float
    bbox: tuple[int, int, int, int]          # (x0, y0, x1, y1), half-open
    mask: np.ndarray                          # bool, shape (y1 - y0, x1 - x0)

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if self.mask.shape != (y1 - y0, x1 - x0):
            raise ValueError(f"mask extent {self.mask.shape} does not fit its box "
                             f"{self.bbox}, which needs ({y1 - y0}, {x1 - x0})")

    @classmethod
    def from_mask(cls, class_id: int, confidence: float,
                  frame_mask: np.ndarray) -> "TeacherInstance | None":
        """The instance of a frame-sized mask, cropped to its tight box (the
        crop is a view of ``frame_mask``); None if the mask is empty."""
        rows = np.flatnonzero(frame_mask.any(axis=1))
        if rows.size == 0:
            return None
        cols = np.flatnonzero(frame_mask.any(axis=0))
        x0, y0, x1, y1 = int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1
        return cls(class_id, confidence, (x0, y0, x1, y1), frame_mask[y0:y1, x0:x1])

    def clamped(self, frame_hw: tuple[int, int]) -> "TeacherInstance | None":
        """Clip to frame bounds; returns None if nothing visible remains."""
        h, w = frame_hw
        x0, y0, x1, y1 = self.bbox
        cx0, cy0 = max(0, x0), max(0, y0)
        cx1, cy1 = min(w, x1), min(h, y1)
        if cx0 >= cx1 or cy0 >= cy1:
            return None
        mask = self.mask[cy0 - y0:cy1 - y0, cx0 - x0:cx1 - x0]
        if not mask.any():
            return None
        return TeacherInstance(self.class_id, self.confidence, (cx0, cy0, cx1, cy1),
                               mask)


@dataclass(frozen=True)
class DistillConfig:
    u_max: int = 8
    delta_min: int = 8
    delta_max: int = 64
    a_thresh: float = 0.8
    lr: float = 0.01
    momentum: float = 0.9
    conf_thresh: float = 0.5
    weight_factor: float = 5.0
    box_dilation: float = 0.15

    def __post_init__(self):
        if not 1 <= self.delta_min <= self.delta_max:
            raise ValueError("need 1 <= delta_min <= delta_max")
        ratio = self.delta_max // self.delta_min
        if self.delta_min * ratio != self.delta_max or ratio & (ratio - 1):
            raise ValueError("delta_max / delta_min must be a power of two")
        if not 0 < self.a_thresh < 1:
            raise ValueError("a_thresh must lie in (0, 1)")
        if self.u_max < 1:
            raise ValueError("u_max must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.conf_thresh <= 1:
            raise ValueError(f"conf_thresh must lie in [0, 1], got {self.conf_thresh}")
        if not (math.isfinite(self.weight_factor) and self.weight_factor >= 0):
            raise ValueError(f"weight_factor must be finite and >= 0, "
                             f"got {self.weight_factor}")
        if not (math.isfinite(self.box_dilation) and self.box_dilation >= 0):
            raise ValueError(f"box_dilation must be finite and >= 0, "
                             f"got {self.box_dilation}")


@dataclass
class FrameRecord:
    frame_index: int
    teacher_invoked: bool
    updates_performed: int
    a_curr: float | None
    delta: int                                # stride after this frame
    eval_iou: float | None = None
    prediction: np.ndarray | None = None      # this frame's label map
    teacher_failed: bool = False              # the teacher raised TeacherError
    aborted: bool = False                     # a non-finite loss ended adaptation


@dataclass
class StreamReport:
    """Run totals, counted from each finished frame by :meth:`add`, plus the
    two per-frame scalar series the run summary needs.  Frames and their
    predictions are not kept; pass ``progress`` to ``process_stream`` to see
    each record."""

    n_frames: int = 0
    teacher_invocations: int = 0
    teacher_failures: int = 0
    total_updates: int = 0
    numeric_events: int = 0                   # adaptations a non-finite loss ended
    eval_iou: list[float | None] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)

    def add(self, record: FrameRecord) -> None:
        self.n_frames += 1
        self.teacher_invocations += int(record.teacher_invoked)
        self.teacher_failures += int(record.teacher_failed)
        self.total_updates += record.updates_performed
        self.numeric_events += int(record.aborted)
        self.eval_iou.append(record.eval_iou)
        self.updates.append(record.updates_performed)


# -- teacher output -> training targets --------------------------------------

def retain_instances(instances, conf_thresh: float,
                     frame_hw: tuple[int, int]) -> list[TeacherInstance]:
    """Clamp to the frame and keep instances at or above the confidence
    threshold, ordered by ascending confidence (ties keep input order) so a
    later paint always has the higher confidence."""
    kept = []
    for inst in instances:
        clamped = inst.clamped(frame_hw)
        if clamped is not None and clamped.confidence >= conf_thresh:
            kept.append(clamped)
    kept.sort(key=lambda i: i.confidence)
    return kept


def _paint_labels(retained, frame_hw: tuple[int, int]) -> np.ndarray:
    """Class-id map of instances already retained, painted in order."""
    labels = np.zeros(frame_hw, dtype=np.uint8)
    for inst in retained:
        x0, y0, x1, y1 = inst.bbox
        labels[y0:y1, x0:x1][inst.mask] = inst.class_id
    return labels


def rasterize_teacher(instances, conf_thresh: float,
                      frame_hw: tuple[int, int]) -> np.ndarray:
    """Convert instance predictions to a semantic class-id map.

    Pixels covered by no retained instance are background (class 0); where
    retained instances overlap, the most confident one wins.
    """
    return _paint_labels(retain_instances(instances, conf_thresh, frame_hw), frame_hw)


def dilate_box(bbox: tuple[int, int, int, int], box_dilation: float,
               frame_hw: tuple[int, int]) -> tuple[int, int, int, int]:
    """Grow a half-open box by ``box_dilation`` total relative growth: each
    side moves outward by half that fraction of the side length; the grown
    minimum is floored, the maximum ceiled, and the result clamped."""
    h, w = frame_hw
    x0, y0, x1, y1 = bbox
    gx = 0.5 * box_dilation * (x1 - x0)
    gy = 0.5 * box_dilation * (y1 - y0)
    return (max(0, int(np.floor(x0 - gx))), max(0, int(np.floor(y0 - gy))),
            min(w, int(np.ceil(x1 + gx))), min(h, int(np.ceil(y1 + gy))))


def build_weight_map(retained, box_dilation: float, weight_factor: float,
                     frame_hw: tuple[int, int]) -> np.ndarray:
    """Loss weights: ``weight_factor`` inside the union of dilated instance
    boxes, 1.0 elsewhere."""
    weights = np.ones(frame_hw, dtype=np.float32)
    for inst in retained:
        x0, y0, x1, y1 = dilate_box(inst.bbox, box_dilation, frame_hw)
        weights[y0:y1, x0:x1] = weight_factor
    return weights


def teacher_targets(instances, cfg: DistillConfig,
                    frame_hw: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Training targets of one teacher frame, ``(labels, weights)``: the
    rasterized class-id map and the loss weight map, both from one pass of
    :func:`retain_instances`."""
    retained = retain_instances(instances, cfg.conf_thresh, frame_hw)
    return (_paint_labels(retained, frame_hw),
            build_weight_map(retained, cfg.box_dilation, cfg.weight_factor, frame_hw))


# -- accuracy signal ----------------------------------------------------------

def control_iou(teacher_labels: np.ndarray, prediction: np.ndarray) -> float:
    """Accuracy check used by the scheduler: mean IoU over the foreground
    classes present in either map; falls back to the background IoU when
    neither map contains foreground."""
    res = mean_iou(prediction, teacher_labels, exclude_background=True)
    if res.defined:
        return res.value
    full = mean_iou(prediction, teacher_labels, exclude_background=False)
    return full.per_class.get(0, 1.0)


# -- students -----------------------------------------------------------------

class JITNetStudent:
    """Wraps a network with prediction and single-step training.

    ``train_step`` reuses the forward pass cached by the immediately
    preceding ``predict`` call on the same frame object, so each adaptation
    loop iteration costs one forward plus (when updating) one backward.
    The cache holds the frame itself, so a later array can never match it
    by reusing a freed frame's ``id``; every step consumes the cache.
    """

    def __init__(self, net: JITNet, lr: float = 0.01, momentum: float = 0.9):
        self.net = net
        self.optimizer = SGDMomentum(net.param_states(), lr, momentum)
        self._cached: tuple[np.ndarray, np.ndarray] | None = None   # (frame, logits)

    @staticmethod
    def prepare(frame: np.ndarray) -> np.ndarray:
        """uint8 (H, W, 3) frame -> float (3, H, W) in [0, 1]."""
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise ValueError(f"expected an (H, W, 3) frame, got {frame.shape}")
        return np.ascontiguousarray(frame.transpose(2, 0, 1), dtype=np.float32) / 255.0

    def predict(self, frame: np.ndarray) -> np.ndarray:
        logits = self.net.forward(self.prepare(frame))
        if not np.isfinite(logits).all():
            raise StreamNumericError(-1)
        self._cached = (frame, logits)
        return label_map(logits)

    def train_step(self, frame: np.ndarray, labels: np.ndarray,
                   weights: np.ndarray) -> float:
        if self._cached is None or self._cached[0] is not frame:
            self.predict(frame)
        logits = self._cached[1]
        self._cached = None
        res = weighted_softmax_cross_entropy(logits, labels, weights)
        if not np.isfinite(res.loss):
            self.optimizer.zero_grad()
            return res.loss
        self.net.backward(res.grad)
        self.optimizer.step()
        return res.loss


@dataclass
class AdaptResult:
    updates: int
    a_curr: float
    prediction: np.ndarray
    aborted: bool = False                     # non-finite loss ended the loop


def adapt_on_frame(student, frame, labels: np.ndarray, weights: np.ndarray,
                   cfg: DistillConfig) -> AdaptResult:
    """Bounded adaptation loop on one teacher frame.

    Repeatedly predicts and scores against the teacher labels; while the
    accuracy is below threshold and fewer than ``u_max`` steps were taken,
    performs one weighted cross-entropy SGD step.  The iteration counter
    advances on every pass including the terminating check, and the frame's
    recorded prediction is the one from the final iteration.
    """
    updates = 0
    aborted = False
    update = True
    a_curr = 0.0
    prediction = None
    while update:
        prediction = student.predict(frame)
        a_curr = control_iou(labels, prediction)
        if updates < cfg.u_max and a_curr < cfg.a_thresh:
            loss = student.train_step(frame, labels, weights)
            if not np.isfinite(loss):
                aborted = True
                update = False
            else:
                updates += 1
        else:
            update = False
    return AdaptResult(updates, a_curr, prediction, aborted)


def update_stride(delta: int, a_curr: float, cfg: DistillConfig) -> int:
    """Double after a strictly passing check, otherwise halve; clamp."""
    if a_curr > cfg.a_thresh:
        return min(cfg.delta_max, 2 * delta)
    return max(cfg.delta_min, delta // 2)


def process_stream(source, teacher, cfg: DistillConfig, student,
                   eval_labels=None, report: StreamReport | None = None,
                   progress=None) -> StreamReport:
    """Run the full online loop over a frame source.

    ``student`` is either a network (wrapped into :class:`JITNetStudent`
    with the configured learning rate and momentum) or any object exposing
    ``predict``/``train_step``.  ``eval_labels(frame_index)`` optionally
    supplies reference label maps scored against every frame's prediction.
    Each finished frame's record goes to ``report.add`` (a fresh
    :class:`StreamReport` by default), then to ``progress``.  Frames are
    consumed strictly in order, one pass, no lookahead.
    """
    if isinstance(student, JITNet):
        student = JITNetStudent(student, cfg.lr, cfg.momentum)
    report = StreamReport() if report is None else report
    delta = cfg.delta_min
    for frame_index, frame in source:
        record = FrameRecord(frame_index, False, 0, None, delta)
        try:
            if frame_index % delta == 0:
                try:
                    instances = teacher.predict(frame_index, frame)
                except TeacherError:
                    record.teacher_failed = True
                    instances = None
                if instances is not None:
                    labels, weights = teacher_targets(instances, cfg, frame.shape[:2])
                    result = adapt_on_frame(student, frame, labels, weights, cfg)
                    delta = update_stride(delta, result.a_curr, cfg)
                    record.teacher_invoked = True
                    record.updates_performed = result.updates
                    record.a_curr = result.a_curr
                    record.delta = delta
                    record.prediction = result.prediction
                    record.aborted = result.aborted
            if record.prediction is None:
                record.prediction = student.predict(frame)
        except StreamNumericError:
            raise StreamNumericError(frame_index) from None

        if eval_labels is not None:
            reference = eval_labels(frame_index)
            if reference is not None:
                record.eval_iou = mean_iou(record.prediction, reference,
                                           exclude_background=True).value
        report.add(record)
        if progress is not None:
            progress(record)
    return report


# -- offline baseline ---------------------------------------------------------

def materialize_dataset(source, teacher, cfg: DistillConfig, every_kth: int):
    """Collect every k-th frame with rasterized labels and weight maps, the
    training set for the offline baseline."""
    samples = []
    for frame_index, frame in source:
        if frame_index % every_kth == 0:
            targets = teacher_targets(teacher.predict(frame_index, frame), cfg,
                                      frame.shape[:2])
            samples.append((frame, *targets))
    return samples


def offline_oracle_train(net: JITNet, dataset, epochs: int, lr: float = 0.01,
                         momentum: float = 0.9, seed: int | np.random.Generator = 0
                         ) -> list[tuple[int, float, float]]:
    """Epoch-based training of ``net`` in place over a pre-materialized
    labeled set with the same weighted loss as the online loop (batch size
    stays 1; frames are shuffled per epoch with a permutation drawn from
    ``seed``, a seed or a generator).

    Returns one ``(epoch, mean loss, train mean IoU)`` row per epoch; the
    IoU scores each sample's prediction just before its step.
    """
    if not dataset:
        raise ValueError("offline training requires a non-empty dataset")
    student = JITNetStudent(net, lr, momentum)
    rng = np.random.default_rng(seed)
    log = []
    for epoch in range(epochs):
        losses, scores = [], []
        for i in rng.permutation(len(dataset)):
            frame, labels, weights = dataset[i]
            result = mean_iou(student.predict(frame), labels, exclude_background=True)
            if result.defined:
                scores.append(result.value)
            losses.append(student.train_step(frame, labels, weights))
        log.append((epoch, float(np.mean(losses)),
                    float(np.mean(scores)) if scores else float("nan")))
    return log


# -- recorded-teacher wire format ----------------------------------------------
#
# One JSON object per line:
#   {"frame": int, "instances": [{"class": int, "conf": float,
#    "bbox": [x0, y0, x1, y1], "rle": [...]}]}
# The RLE covers the bbox region row-major as alternating zero/one run
# lengths, starting with a zero-run (which may be 0).


def encode_rle(mask: np.ndarray) -> list[int]:
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size == 0:
        return [0]
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], edges, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return runs


def decode_rle(runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    total = shape[0] * shape[1]
    for index, run in enumerate(runs):
        if run < 0:
            raise ValueError(f"rle run {index} is negative ({run})")
    if sum(runs) != total:
        raise ValueError(f"rle covers {sum(runs)} pixels, mask needs {total}")
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos:pos + run] = True
        pos += run
        value = not value
    return flat.reshape(shape)


def write_predictions_jsonl(path, predictions: dict[int, list[TeacherInstance]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for frame_index in sorted(predictions):
            rows = []
            for inst in predictions[frame_index]:
                x0, y0, x1, y1 = inst.bbox
                rows.append({"class": int(inst.class_id),
                             "conf": float(inst.confidence),
                             "bbox": [int(x0), int(y0), int(x1), int(y1)],
                             "rle": encode_rle(inst.mask)})
            fh.write(json.dumps({"frame": int(frame_index), "instances": rows},
                                separators=(",", ":")) + "\n")


def _json_ints(values, key: str) -> list[int]:
    """``values`` as a list, if every one is a JSON integer (not a bool,
    which is an int subclass)."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise TypeError(f"{key}: expected a JSON integer, got {bad!r}")
    return values


def read_predictions_jsonl(path) -> dict[int, list[TeacherInstance]]:
    table: dict[int, list[TeacherInstance]] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            [frame_index] = _json_ints([row["frame"]], "frame")
            if frame_index < 0:
                raise ValueError(f"frame must be >= 0, got {frame_index}")
            if frame_index in table:
                raise ValueError(f"frame {frame_index} repeats an earlier line")
            instances = []
            for inst in row["instances"]:
                [class_id] = _json_ints([inst["class"]], "class")
                x0, y0, x1, y1 = _json_ints(inst["bbox"], "bbox")
                conf = inst["conf"]
                if type(conf) not in (int, float):
                    raise TypeError(f"conf must be a JSON number, got {conf!r}")
                if not math.isfinite(conf):
                    raise ValueError(f"conf must be finite, got {conf!r}")
                mask = decode_rle(_json_ints(inst["rle"], "rle"), (y1 - y0, x1 - x0))
                instances.append(TeacherInstance(class_id, float(conf),
                                                 (x0, y0, x1, y1), mask))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from exc
        table[frame_index] = instances
    return table
