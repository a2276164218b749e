"""Gradient verification by central finite differences: the tests' oracle
for every adjoint the engine computes.

The checker never touches the adjoint machinery: it only re-runs the forward
function at perturbed parameter values, so it is an independent oracle for
everything backward() computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from posrec.numeric import TensorNode, no_graph


@dataclass
class GradReport:
    max_rel_err: float
    worst_param: str = ""
    per_param: dict[str, float] = field(default_factory=dict)

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-7) -> float:
    """Max elementwise |a - n| / max(|a|, |n|); pairs below `floor` count as 0."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a), np.abs(n))
    err = np.abs(a - n) / np.where(denom < floor, 1.0, denom)
    err = np.where(denom < floor, 0.0, err)
    return float(err.max()) if err.size else 0.0


def numeric_gradient(build_loss, param: TensorNode, h: float = 1e-5) -> np.ndarray:
    """d(build_loss())/d(param) entry by entry via central differences.

    build_loss must rebuild the whole forward pass from current parameter
    values (recreating any Rng it uses, so stochastic masks replay).
    """
    base = param.values
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    with no_graph():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(build_loss().values)
            flat[i] = keep - h
            down = float(build_loss().values)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
    return grad


def check_gradients(
    build_loss,
    params: list[tuple[str, TensorNode]],
    h: float = 1e-5,
    floor: float = 1e-7,
) -> GradReport:
    """Compare backward() adjoints against finite differences for each param."""
    for _, p in params:
        p.adjoint = None
    loss = build_loss()
    loss.backward()
    analytic = {name: (np.zeros_like(p.values) if p.adjoint is None else p.adjoint.copy()) for name, p in params}
    report = GradReport(max_rel_err=0.0)
    for name, p in params:
        fd = numeric_gradient(build_loss, p, h=h)
        err = relative_error(analytic[name], fd, floor=floor)
        report.per_param[name] = err
        if err >= report.max_rel_err:
            report.max_rel_err = err
            report.worst_param = name
    for _, p in params:
        p.adjoint = None
    return report
