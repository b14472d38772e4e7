"""SGD with momentum over ParamState groups."""
from __future__ import annotations

import numpy as np

from .layers import ParamState


class SGDMomentum:
    """SGD with momentum over parameter groups, keeping the running count of
    rejected updates."""

    def __init__(self, params: list[ParamState], lr: float = 0.01, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.rejected_total = 0

    def step(self) -> int:
        """Apply one momentum step to every parameter group and clear gradients.

        ``buffer <- momentum * buffer + gradient; value <- value - lr * buffer``.
        A group whose gradient contains non-finite values is skipped (its
        buffer and value stay untouched, the stale gradient is still
        cleared); the number of skipped groups is returned.
        """
        rejected = 0
        for p in self.params:
            g = p.gradient
            if not np.isfinite(g).all():
                rejected += 1
                p.clear_gradient()
                continue
            p.momentum_buffer *= self.momentum
            p.momentum_buffer += g
            p.value -= self.lr * p.momentum_buffer
            p.clear_gradient()
        self.rejected_total += rejected
        return rejected

    def zero_grad(self) -> None:
        for p in self.params:
            p.clear_gradient()
