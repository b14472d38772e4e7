"""Weighted softmax cross-entropy over per-pixel class logits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import IGNORE_LABEL
from .layers import ShapeError


@dataclass
class LossResult:
    loss: float
    grad: np.ndarray
    degenerate: bool = False


def weighted_softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                                   weights: np.ndarray,
                                   ignore_label: int = IGNORE_LABEL) -> LossResult:
    """Per-pixel weighted cross-entropy, normalized by the total weight.

    ``loss = sum_p w(p) * (-log softmax(logits_p)[label_p]) / sum_p w(p)``
    over pixels whose label is not ``ignore_label``; the gradient is the
    matching normalized weighted softmax gradient.  If every pixel is
    ignored or carries zero weight the result is flagged ``degenerate``
    with zero loss and zero gradients.
    """
    c, h, w = logits.shape
    if labels.shape != (h, w):
        raise ShapeError(f"loss: labels extent {labels.shape} != ({h},{w})")
    if weights.shape != (h, w):
        raise ShapeError(f"loss: weights extent {weights.shape} != ({h},{w})")
    if np.any(weights < 0):
        raise ValueError("loss: weights must be >= 0")

    valid = labels != ignore_label
    lab = np.where(valid, labels, 0).astype(np.int64)
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise ValueError(f"loss: labels must lie in [0, {c}), got range "
                         f"[{lab.min()}, {lab.max()}]")

    w_eff = np.where(valid, weights, 0).astype(logits.dtype)
    w_sum = float(w_eff.sum())
    if w_sum <= 0:
        return LossResult(0.0, np.zeros_like(logits), degenerate=True)

    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=0, keepdims=True)
    log_softmax = shifted - np.log(denom)

    at_label = lab[None]
    nll = -np.take_along_axis(log_softmax, at_label, axis=0)[0]
    loss = float((w_eff * nll).sum() / w_sum)

    scale = w_eff / w_sum
    grad = (exp / denom) * scale[None]
    np.put_along_axis(grad, at_label,
                      np.take_along_axis(grad, at_label, axis=0) - scale[None], axis=0)
    return LossResult(loss, grad)
