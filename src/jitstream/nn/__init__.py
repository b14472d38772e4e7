"""Minimal differentiable-layer kernel used by the segmentation student."""

from .layers import (
    BatchNorm,
    BilinearResize,
    Concat,
    Conv2d,
    ParamState,
    ReLU,
    SeparableConv,
    ShapeError,
    batchnorm_forward,
    bilinear_resize_backward,
    bilinear_resize_forward,
    conv2d_backward,
    conv2d_forward,
    conv_out_size,
    label_map,
)
from .loss import IGNORE_LABEL, weighted_softmax_cross_entropy
from .optim import SGDMomentum
from .gradcheck import gradient_check
from .snapshot import SnapshotError, load_weights, pack_weights, save_weights

__all__ = [
    "BatchNorm", "BilinearResize", "Concat", "Conv2d", "ParamState",
    "ReLU", "SeparableConv", "ShapeError",
    "batchnorm_forward",
    "bilinear_resize_backward", "bilinear_resize_forward",
    "conv2d_backward", "conv2d_forward", "conv_out_size", "label_map",
    "IGNORE_LABEL", "weighted_softmax_cross_entropy",
    "SGDMomentum",
    "gradient_check",
    "SnapshotError", "load_weights", "pack_weights", "save_weights",
]
