"""Dense 2-D tensors with reverse-mode differentiation.

Every value is a 2-D float64 matrix (a loss is 1x1). Ops append a backward
closure to the active Tape in forward order; Tape.backward replays them in
exact reverse order, so the traversal is a valid reverse topological order
of the define-by-run graph. The tape is rebuilt every forward pass and
released op by op during backward: each record is dropped, and its output's
gradient cleared, as soon as its closure has run, so an activation, the
arrays its closure captured and its gradient are freed once the last op
that reads them has run backward.

numpy provides storage and the BLAS kernels; all differentiation logic
lives here.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of primitive ops with input/output references.

    backward consumes it, releasing each record once its closure has run,
    so a tape runs backward once; len() still counts the recorded ops."""

    def __init__(self):
        self._records = []  # (output Tensor, backward fn), forward order
        self._released = None  # record count, once backward has consumed them

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
        return len(self._records) if self._released is None else self._released

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss)/d(loss) = 1 and replay ops in reverse forward order,
        releasing each record after its closure has run."""
        if self._released is not None:
            raise RuntimeError("this Tape has already run backward; "
                               "record a new one")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward() needs a 1x1 loss, got {loss.shape}")
        records = self._records
        self._released = len(records)
        loss._ensure_grad()
        loss.grad[...] = 1.0
        while records:
            out, backward = records.pop()
            if out.grad is not None:
                backward(out.grad)
                out.grad = None  # never a parameter: outputs are op results


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
        if arr.ndim != 2:
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

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g to the gradient. The first g is copied, or adopted as the
        gradient itself when `fresh`: a new float64 array that the op
        computed for this input alone and never touches again. An op's
        incoming gradient, or a view of it, is never fresh: adopted, two
        tensors would share, and add into, one buffer."""
        if g.shape != self.shape:
            raise ShapeError(f"gradient shape {g.shape} != tensor shape {self.shape}")
        if self.requires_grad:
            if self.grad is None:
                self.grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
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


def recording(inputs) -> bool:
    """Whether an op over `inputs` is recorded: a tape is active and some
    input is differentiable."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def make_output(data: np.ndarray, inputs, backward) -> Tensor:
    """Create an op output and register its backward on the active tape.

    `backward(g)` must call `.accumulate` on each input that requires grad.
    Recording is skipped when no tape is active or no input is differentiable.
    """
    out = Tensor(data)
    if recording(inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(out, backward)
    return out
