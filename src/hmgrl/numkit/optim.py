"""Adam-family optimizer with optional variance rectification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ParameterError, ShapeError
from .tensor import Tensor


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators plus the shared step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rectified: bool = False  # variance-rectified update instead of plain Adam
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ParameterError(f"learning rate must be > 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ParameterError("betas must lie in [0, 1)")


def adam_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place update over named parameters; missing grads count as zero.

    A NaN or infinite gradient raises NumericError naming the first such
    parameter, and then nothing is updated.

    Plain Adam with bias correction by default. With state.rectified, the
    second-moment term is used only once its variance estimate is tractable
    (rho_t > 4), scaled by the rectification factor; before that the update
    falls back to bias-corrected momentum alone.
    """
    if state.lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {state.lr}")
    for name, p in params.items():  # before any state or parameter changes
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t

    if state.rectified:
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * (b2 ** t) / bc2

    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"{name}: grad shape {g.shape} != param {p.data.shape}")
        if name not in state.m:   # zeroed moments only on a parameter's first step
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        if state.rectified:
            if rho_t > 4.0:
                r = np.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
                p.data -= state.lr * r * m_hat / (np.sqrt(v / bc2) + state.eps)
            else:
                p.data -= state.lr * m_hat
        else:
            p.data -= state.lr * m_hat / (np.sqrt(v / bc2) + state.eps)
