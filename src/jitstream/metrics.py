"""Accuracy and cost accounting for segmentation streams.

Mean IoU follows the evaluation convention used throughout: classes with an
empty union in the scored window are excluded from the mean (absence is not
rewarded), background can be excluded, and pixels carrying the ignore label
take part in no count.  An empty included-class set yields an *undefined*
mean, which is distinct from 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IGNORE_LABEL = 255


@dataclass
class MeanIoU:
    value: float | None
    per_class: dict[int, float]

    @property
    def defined(self) -> bool:
        return self.value is not None


class ConfusionAccumulator:
    """Per-class intersection / prediction / label pixel counts (64-bit).

    Accumulators are single-writer but may be merged; merging is associative,
    so frame ranges can be scored independently and combined.
    """

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = num_classes
        self.intersection = np.zeros(num_classes, dtype=np.int64)
        self.prediction = np.zeros(num_classes, dtype=np.int64)
        self.label = np.zeros(num_classes, dtype=np.int64)

    def add(self, pred: np.ndarray, label: np.ndarray,
            ignore_label: int = IGNORE_LABEL) -> None:
        self._count(*_scored_pixels(pred, label, ignore_label))

    def _count(self, p: np.ndarray, l: np.ndarray, ignored: int) -> None:
        """Add the pixel pairs ``(p, l)`` but for ``ignored`` of the pairs
        ``(0, 0)``, counted with one ``bincount`` of ``l * C + p``: the
        ``(label, prediction)`` confusion matrix."""
        c = self.num_classes
        if min(p.min(initial=0), l.min(initial=0)) < 0:
            raise ValueError("class ids must be >= 0")
        top = int(max(p.max(initial=0), l.max(initial=0)))
        if top >= c:
            raise ValueError(f"class id {top} outside [0, {c})")
        codes = l.astype(np.intp)
        codes *= c
        codes += p
        confusion = np.bincount(codes.ravel(), minlength=c * c).reshape(c, c)
        confusion[0, 0] -= ignored
        self.prediction += confusion.sum(axis=0)
        self.label += confusion.sum(axis=1)
        self.intersection += confusion.diagonal()

    def merge(self, other: "ConfusionAccumulator") -> "ConfusionAccumulator":
        if other.num_classes != self.num_classes:
            raise ValueError("cannot merge accumulators with different class counts")
        self.intersection += other.intersection
        self.prediction += other.prediction
        self.label += other.label
        return self

    def result(self, exclude_background: bool = True) -> MeanIoU:
        union = self.prediction + self.label - self.intersection
        per_class = {c: float(self.intersection[c] / union[c])
                     for c in range(self.num_classes) if union[c] > 0}
        included = [v for c, v in per_class.items() if not (exclude_background and c == 0)]
        value = float(np.mean(included)) if included else None
        return MeanIoU(value, per_class)


def _scored_pixels(pred: np.ndarray, label: np.ndarray, ignore_label: int):
    """``(pred, label, ignored)``: both maps with class 0 in each pixel
    whose label is ``ignore_label``, and the number of those pixels.  Two
    multiplications and a count cost less than selecting the scored
    pixels."""
    if pred.shape != label.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs label {label.shape}")
    scored = label != ignore_label
    return (np.multiply(pred, scored), np.multiply(label, scored),
            scored.size - np.count_nonzero(scored))


def mean_iou(pred: np.ndarray, label: np.ndarray, exclude_background: bool = True,
             ignore_label: int = IGNORE_LABEL) -> MeanIoU:
    """Mean intersection-over-union between two class-id maps."""
    p, l, ignored = _scored_pixels(pred, label, ignore_label)
    acc = ConfusionAccumulator(int(max(p.max(initial=0), l.max(initial=0))) + 1)
    acc._count(p, l, ignored)
    return acc.result(exclude_background)


def interval_series(values, fps: float, interval_seconds: float) -> list[float | None]:
    """Average a per-frame series over consecutive wall-clock windows.

    Window length is ``round(fps * interval_seconds)`` frames; the final
    partial window is averaged over its actual length.  ``None`` entries
    (frames where the value is undefined) are skipped; an all-``None``
    window yields ``None``.
    """
    if fps <= 0:
        raise ValueError("fps must be > 0")
    window = max(1, round(fps * interval_seconds))
    out: list[float | None] = []
    for start in range(0, len(values), window):
        chunk = [v for v in values[start:start + window] if v is not None]
        out.append(float(np.mean(chunk)) if chunk else None)
    return out


@dataclass(frozen=True)
class CostModel:
    """Per-invocation unit costs in milliseconds.  Every frame pays a
    student inference, so a positive ``t_infer`` keeps a run's modelled
    total above zero."""

    t_teacher: float = 300.0
    t_infer: float = 7.0
    t_update: float = 30.0

    def __post_init__(self):
        costs = (self.t_teacher, self.t_infer, self.t_update)
        if not all(math.isfinite(c) and c >= 0 for c in costs):
            raise ValueError(f"unit costs must be finite and >= 0, got {costs}")
        if self.t_infer <= 0:
            raise ValueError(f"cost.infer_ms must be > 0, got {self.t_infer}")


@dataclass(frozen=True)
class SpeedupResult:
    speedup: float
    teacher_fraction: float
    total_ms: float


def speedup_from_counts(n_frames: int, n_teacher: int, n_updates: int,
                        cm: CostModel) -> SpeedupResult:
    """Analytic runtime model: every frame pays one student inference, teacher
    frames add one teacher evaluation, and every gradient step adds one update.
    Speedup is relative to running the teacher on every frame."""
    if n_frames <= 0:
        raise ValueError("n_frames must be > 0")
    total = n_frames * cm.t_infer + n_teacher * cm.t_teacher + n_updates * cm.t_update
    return SpeedupResult(speedup=n_frames * cm.t_teacher / total,
                         teacher_fraction=n_teacher / n_frames,
                         total_ms=total)
