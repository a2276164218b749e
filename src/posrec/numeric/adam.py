"""Adam with bias correction, operating directly on parameter nodes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import TensorNode


@dataclass
class AdamState:
    """First/second moment buffers, one pair per parameter, plus the step count."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[TensorNode]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.values) for p in params],
            v=[np.zeros_like(p.values) for p in params],
        )


def adam_step(
    params: list[TensorNode],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    l2_weight: float = 0.0,
) -> None:
    """One update from the accumulated adjoints; adjoints are cleared after.

    A parameter whose adjoint was never touched counts as zero gradient and,
    with zero moments and no L2 term, stays exactly where it is.  A positive
    `l2_weight` adds the gradient of l2_weight * |p|^2, 2 * l2_weight * p,
    to every parameter's.
    """
    b1, b2 = betas
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for i, p in enumerate(params):
        g = p.adjoint
        if g is None:
            g = np.zeros_like(p.values)
        if l2_weight:
            g = g + 2.0 * l2_weight * p.values
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + eps)
        p.adjoint = None
