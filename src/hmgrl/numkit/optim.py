"""Adam-family optimizer with optional variance rectification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ParameterError, ShapeError
from .tensor import Tensor

# Elements per chunk of adam_step. A chunk of p, m, v and g plus the two
# scratch buffers (6 x 256 KB) stays in cache across the update's passes, so
# each parameter streams through memory once instead of once per full-size
# temporary.
ADAM_CHUNK = 32_768
# Adam's moment decay rates and the guard added to its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
_ZERO_CHUNK = np.zeros(ADAM_CHUNK)  # read in place of a missing gradient
_ZERO_CHUNK.flags.writeable = False


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators plus the shared step counter."""

    lr: float
    rectified: bool = False  # variance-rectified update instead of plain Adam
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ParameterError(f"learning rate must be > 0, got {self.lr}")


def adam_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place update over named parameters; missing grads count as zero.

    A NaN or infinite gradient raises NumericError naming the first such
    parameter, and then nothing is updated.

    Plain Adam with bias correction by default. With state.rectified, the
    second-moment term is used only once its variance estimate is tractable
    (rho_t > 4), scaled by the rectification factor; before that the update
    falls back to bias-corrected momentum alone.

    Each parameter is updated ADAM_CHUNK elements at a time, in two reused
    scratch buffers, with the unchunked update's operations in its order:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
    p -= (m / bc1) lr / (sqrt(v / bc2) + eps), so the bits are the same.
    """
    if state.lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {state.lr}")
    # g . g is one BLAS pass with no temporary, and a NaN or inf makes it
    # non-finite; only then, or when a finite g's squares overflow, scan g
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():  # before any state or parameter changes
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ShapeError(f"{name}: grad shape {p.grad.shape} != "
                                 f"param {p.data.shape}")
            g = p.grad.ravel(order="K")
            if not np.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t

    lr, use_v = state.lr, True
    if state.rectified:
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * (b2 ** t) / bc2
        use_v = rho_t > 4.0
        if use_v:
            lr = lr * np.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                              / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))

    scratch_a, scratch_b = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    for name, p in params.items():
        if not p.data.flags.c_contiguous:  # the chunks must be views of p.data
            p.data = np.ascontiguousarray(p.data)
        if name not in state.m:   # zeroed moments only on a parameter's first step
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        p_flat, m_flat, v_flat = (a.reshape(-1) for a in
                                  (p.data, state.m[name], state.v[name]))
        g_flat = None if p.grad is None else p.grad.reshape(-1)
        for lo in range(0, p_flat.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p_flat.size)
            g = _ZERO_CHUNK[:hi - lo] if g_flat is None else g_flat[lo:hi]
            m, v = m_flat[lo:hi], v_flat[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.square(g, out=a)       # g * g, to the bit
            a *= 1.0 - b2
            v += a
            np.divide(m, bc1, out=a)
            a *= lr
            if use_v:
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                a /= b
            p_flat[lo:hi] -= a
