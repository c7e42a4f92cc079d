"""Dense 2-D tensors with reverse-mode differentiation.

Every value is a float64 matrix (scalars are 1x1). Ops append a backward
closure to the active Tape in forward order; Tape.backward replays them in
exact reverse order, so the traversal is a valid reverse topological order
of the define-by-run graph. The tape is rebuilt every forward pass.

numpy provides storage and the BLAS kernels; all differentiation logic
lives here.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of primitive ops with input/output references."""

    def __init__(self):
        self._records = []  # (output Tensor, backward fn), forward order

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out: "Tensor", backward) -> None:
        self._records.append((out, backward))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss)/d(loss) = 1 and replay ops in reverse forward order."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward() needs a 1x1 loss, got {loss.shape}")
        loss._ensure_grad()
        loss.grad[...] = 1.0
        for out, backward in reversed(self._records):
            if out.grad is not None:
                backward(out.grad)


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._saved = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._saved
        return False


class Tensor:
    """A float64 matrix plus an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def _ensure_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        tag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{tag})"


def constant(data) -> Tensor:
    """Lift a numpy array / list into a non-differentiable Tensor."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def make_output(data: np.ndarray, inputs, backward) -> Tensor:
    """Create an op output and register its backward on the active tape.

    `backward(g)` must call `.accumulate` on each input that requires grad.
    Recording is skipped when no tape is active or no input is differentiable.
    """
    out = Tensor(data)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward)
    return out
