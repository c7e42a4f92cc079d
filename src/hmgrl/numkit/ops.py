"""Differentiable primitives over 2-D tensors.

Forward math uses numpy; each op hand-registers its reverse rule via
make_output. Exponentials are guarded (max-subtraction, clamped logs) so
finite inputs never produce NaN/Inf.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ParameterError, ShapeError
from .tensor import Tensor, as_tensor, make_output


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------- arithmetic

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape} disagree")
    a_data, b_data = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b_data.T)
        if b.requires_grad:
            b.accumulate(a_data.T @ g)

    return make_output(a_data @ b_data, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "add")

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return make_output(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "sub")

    def backward(g):
        a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return make_output(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product, same shapes."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b_data)
        if b.requires_grad:
            b.accumulate(g * a_data)

    return make_output(a_data * b_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar."""
    a = as_tensor(a)
    s = float(s)

    def backward(g):
        a.accumulate(g * s)

    return make_output(a.data * s, (a,), backward)


def div(a, b) -> Tensor:
    """a / b where b is same-shape or 1x1 (broadcast scalar divide)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.shape != a.shape and b.shape != (1, 1):
        raise ShapeError(f"div: shapes {a.shape} / {b.shape} unsupported")
    a_data, b_data = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / b_data)
        if b.requires_grad:
            gb = -g * a_data / (b_data * b_data)
            if b.shape == (1, 1):
                gb = gb.sum().reshape(1, 1)
            b.accumulate(gb)

    return make_output(a_data / b_data, (a, b), backward)


def add_rowvec(a, v) -> Tensor:
    """Add a 1xn row vector to every row (bias broadcast)."""
    a, v = as_tensor(a), as_tensor(v)
    if v.shape != (1, a.shape[1]):
        raise ShapeError(f"add_rowvec: {a.shape} + {v.shape}")

    def backward(g):
        a.accumulate(g)
        if v.requires_grad:
            v.accumulate(g.sum(axis=0, keepdims=True))

    return make_output(a.data + v.data, (a, v), backward)


def mul_rowvec(a, v) -> Tensor:
    """Scale every row elementwise by a 1xn row vector (layer-norm gain)."""
    a, v = as_tensor(a), as_tensor(v)
    if v.shape != (1, a.shape[1]):
        raise ShapeError(f"mul_rowvec: {a.shape} * {v.shape}")
    a_data, v_data = a.data, v.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * v_data)
        if v.requires_grad:
            v.accumulate((g * a_data).sum(axis=0, keepdims=True))

    return make_output(a_data * v_data, (a, v), backward)


# --------------------------------------------------------------- activations

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        a.accumulate(g * mask)

    return make_output(np.maximum(a.data, 0.0), (a,), backward)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax with max-subtraction for stability, in one buffer
    (exp and divide in place keep the op order, so the bits are unchanged)."""
    a = as_tensor(a)
    y = a.data - a.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        dx = g - dot
        dx *= y
        a.accumulate(dx)

    return make_output(y, (a,), backward)


def log_clamped(a, floor: float = 1e-12) -> Tensor:
    """log(max(a, floor)); gradient is 1/a above the floor, 0 below it."""
    a = as_tensor(a)
    above = a.data > floor

    def backward(g):
        a.accumulate(np.where(above, g / a.data, 0.0))

    return make_output(np.log(np.maximum(a.data, floor)), (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero with prob `rate`, scale survivors by 1/(1-rate).

    Identity (and no RNG draw) when not training or rate == 0, so inference
    needs no correction.
    """
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        a.accumulate(g * mask)

    return make_output(a.data * mask, (a,), backward)


# ------------------------------------------------------------ shape plumbing

def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g.T)

    return make_output(a.data.T.copy(), (a,), backward)


def reshape(a, rows: int, cols: int) -> Tensor:
    a = as_tensor(a)
    if rows * cols != a.data.size:
        raise ShapeError(f"reshape: {a.shape} -> ({rows}, {cols})")
    old = a.shape

    def backward(g):
        a.accumulate(g.reshape(old))

    return make_output(a.data.reshape(rows, cols), (a,), backward)


def concat_cols(tensors) -> Tensor:
    """Stack column blocks left to right, preserving order."""
    tensors = [as_tensor(t) for t in tensors]
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    widths = [t.shape[1] for t in tensors]
    edges = np.cumsum([0] + widths)

    def backward(g):
        for t, lo, hi in zip(tensors, edges[:-1], edges[1:]):
            t.accumulate(g[:, lo:hi])

    return make_output(np.hstack([t.data for t in tensors]), tuple(tensors), backward)


def slice_cols(a, lo: int, hi: int) -> Tensor:
    a = as_tensor(a)
    if not 0 <= lo < hi <= a.shape[1]:
        raise ShapeError(f"slice_cols: [{lo}:{hi}] out of {a.shape}")

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[:, lo:hi] = g
            a.accumulate(buf)

    return make_output(a.data[:, lo:hi].copy(), (a,), backward)


def gather_rows(a, index) -> Tensor:
    """Select rows by integer index (duplicates allowed)."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError("gather_rows: bad index vector")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_scatter_rows(idx, None, None, a.shape[0], g))

    return make_output(a.data[idx], (a,), backward)


def spmm(rows, cols, vals, n_rows: int, a) -> Tensor:
    """S @ a for the sparse n_rows x a.rows matrix S given in COO form:
    S[rows[k], cols[k]] = vals[k], duplicate entries adding up.

    The backward scatter-adds S^T g into a's gradient.
    """
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.ndim == cols.ndim == vals.ndim == 1
            and rows.size == cols.size == vals.size):
        raise ShapeError("spmm: rows, cols and vals must be vectors of one length")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                      or cols.min() < 0 or cols.max() >= a.shape[0]):
        raise ShapeError(f"spmm: an entry lies outside {n_rows} x {a.shape[0]}")

    def backward(g):
        a.accumulate(_scatter_rows(cols, rows, vals, a.shape[0], g))

    return make_output(_scatter_rows(rows, cols, vals, n_rows, a.data), (a,), backward)


def _scatter_rows(target, source, vals, n: int, m: np.ndarray) -> np.ndarray:
    """n-row matrix whose row target[k] sums vals[k] * m[source[k]] over k;
    source None means m's rows in order, vals None means weight 1."""
    width = m.shape[1]
    flat = (target[:, None] * width + np.arange(width)).ravel()
    rows = m if source is None else m[source]
    weighted = rows if vals is None else vals[:, None] * rows
    return np.bincount(flat, weights=weighted.ravel(),
                       minlength=n * width).reshape(n, width)


# ---------------------------------------------------------------- reductions

def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def backward(g):
        a.accumulate(np.full(shape, g[0, 0]))

    return make_output(np.array([[a.data.sum()]]), (a,), backward)


def frobenius_norm(a) -> Tensor:
    a = as_tensor(a)
    norm = float(np.sqrt((a.data * a.data).sum()))
    a_data = a.data

    def backward(g):
        # subgradient 0 at the origin keeps training finite
        if norm > 0.0:
            a.accumulate(g[0, 0] * a_data / norm)

    return make_output(np.array([[norm]]), (a,), backward)


# ------------------------------------------------- block (per-group) matmuls

def block_matmul(a, b, block: int, transpose_b: bool = False) -> Tensor:
    """Per-group matmul over row blocks of size `block`.

    Both operands are (G*block) x *; group g of the output is
    A_g @ B_g^T (transpose_b) or A_g @ B_g. Used for attention scores and
    their application, where groups never mix.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[0] % block or b.shape[0] % block or a.shape[0] != b.shape[0]:
        raise ShapeError(f"block_matmul: rows {a.shape[0]}/{b.shape[0]} vs block {block}")
    groups = a.shape[0] // block
    a3 = a.data.reshape(groups, block, a.shape[1])
    b3 = b.data.reshape(groups, block, b.shape[1])
    if transpose_b:
        if a.shape[1] != b.shape[1]:
            raise ShapeError("block_matmul(T): feature dims differ")
        out3 = a3 @ b3.transpose(0, 2, 1)
    else:
        if a.shape[1] != block:
            raise ShapeError("block_matmul: A blocks must be square against B blocks")
        out3 = a3 @ b3

    def backward(g):
        g3 = g.reshape(groups, block, -1)
        if a.requires_grad:
            da = g3 @ (b3 if transpose_b else b3.transpose(0, 2, 1))
            a.accumulate(da.reshape(a.shape))
        if b.requires_grad:
            if transpose_b:
                db = g3.transpose(0, 2, 1) @ a3
            else:
                db = a3.transpose(0, 2, 1) @ g3
            b.accumulate(db.reshape(b.shape))

    return make_output(out3.reshape(a.shape[0], -1), (a, b), backward)


# ------------------------------------------------------------- normalization

def layer_norm_rows(a, eps: float = 1e-6) -> Tensor:
    """Normalize each row to zero mean / unit variance (no affine part)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=1, keepdims=True)
    var = a.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv

    def backward(g):
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        a.accumulate(inv * (g - gm - y * gy))

    return make_output(y, (a,), backward)


# --------------------------------------------------------- convolution stack

def conv1d_bank(x, kernel, bias, channels_in: int, length: int) -> Tensor:
    """Valid 1-D convolution over the position axis, batched over rows.

    Row k of `x` is one item laid out channel-major: channels_in blocks of
    `length` positions. `kernel` is c_out x (channels_in * width); output rows
    are c_out blocks of (length - width + 1) positions.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.shape[1] != channels_in * length:
        raise ShapeError(f"conv1d_bank: row width {x.shape[1]} != {channels_in}*{length}")
    c_out, kw_total = kernel.shape
    if kw_total % channels_in:
        raise ShapeError("conv1d_bank: kernel width not a multiple of channels_in")
    width = kw_total // channels_in
    if width > length:
        raise ShapeError("conv1d_bank: kernel wider than input")
    if bias.shape != (1, c_out):
        raise ShapeError(f"conv1d_bank: bias shape {bias.shape} != (1, {c_out})")
    batch = x.shape[0]
    l_out = length - width + 1

    x3 = x.data.reshape(batch, channels_in, length)
    # windows flattened to (batch*l_out) x (channels_in*width): every heavy
    # step below is then a single BLAS matmul
    win = sliding_window_view(x3, width, axis=2)         # b x c_in x l_out x w
    cols = win.transpose(0, 2, 1, 3).reshape(batch * l_out, channels_in * width)
    y2 = cols @ kernel.data.T + bias.data                # (b*l_out) x c_out
    out = y2.reshape(batch, l_out, c_out).transpose(0, 2, 1).reshape(
        batch, c_out * l_out)

    def backward(g):
        g2 = np.ascontiguousarray(
            g.reshape(batch, c_out, l_out).transpose(0, 2, 1)).reshape(
            batch * l_out, c_out)
        kernel.accumulate(g2.T @ cols)
        bias.accumulate(g2.sum(axis=0, keepdims=True))
        if x.requires_grad:
            dcols = (g2 @ kernel.data).reshape(batch, l_out, channels_in, width)
            dx3 = np.zeros_like(x3)
            for j in range(width):
                dx3[:, :, j:j + l_out] += dcols[:, :, :, j].transpose(0, 2, 1)
            x.accumulate(dx3.reshape(x.shape))

    return make_output(out, (x, kernel, bias), backward)


def conv1d_onehot(index, kernel, bias, n_classes: int) -> Tensor:
    """conv1d_bank over one-hot rows, without building them.

    Row k of `index` holds one class per position, in 0..n_classes-1, or
    n_classes for an empty (all-zero) position. A one-hot input times a
    kernel is a gather: with K_j the kernel's offset-j column block
    (c_out x n_classes), out[k, :, t] = bias + sum_j K_j[:, index[k, t+j]].
    `kernel` and the output are laid out as in conv1d_bank; the index gets
    no gradient.
    """
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    idx = np.asarray(index)
    if idx.ndim != 2 or idx.dtype.kind not in "ui":
        raise ShapeError(f"conv1d_onehot: need a 2-D integer index, got {idx.dtype} "
                         f"with shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() > n_classes):
        raise ShapeError(f"conv1d_onehot: an index lies outside 0..{n_classes}")
    c_out, kw_total = kernel.shape
    if kw_total % n_classes:
        raise ShapeError("conv1d_onehot: kernel width not a multiple of n_classes")
    width = kw_total // n_classes
    batch, length = idx.shape
    if width > length:
        raise ShapeError("conv1d_onehot: kernel wider than input")
    if bias.shape != (1, c_out):
        raise ShapeError(f"conv1d_onehot: bias shape {bias.shape} != (1, {c_out})")
    l_out = length - width + 1

    idx = idx.astype(np.intp)
    windows = [idx[:, j:j + l_out] for j in range(width)]  # batch x l_out each
    # table[j] is K_j transposed, plus a zero row that the empty class selects
    table = np.zeros((width, n_classes + 1, c_out))
    table[:, :n_classes] = kernel.data.reshape(c_out, n_classes, width).T
    y3 = np.take(table[0], windows[0], axis=0)              # batch x l_out x c_out
    for j in range(1, width):
        y3 += np.take(table[j], windows[j], axis=0)
    y3 += bias.data
    out = y3.transpose(0, 2, 1).reshape(batch, c_out * l_out)

    def backward(g):
        g2 = np.ascontiguousarray(
            g.reshape(batch, c_out, l_out).transpose(0, 2, 1)).reshape(
            batch * l_out, c_out)
        if kernel.requires_grad:
            dk = np.empty((c_out, n_classes, width))
            for j in range(width):
                dk[:, :, j] = _scatter_rows(windows[j].ravel(), None, None,
                                            n_classes + 1, g2)[:n_classes].T
            kernel.accumulate(dk.reshape(kernel.shape))
        if bias.requires_grad:
            bias.accumulate(g2.sum(axis=0, keepdims=True))

    return make_output(out, (kernel, bias), backward)


def global_max_pool(x, channels: int, length: int) -> Tensor:
    """Max over positions per channel; rows laid out as in conv1d_bank."""
    x = as_tensor(x)
    if x.shape[1] != channels * length:
        raise ShapeError(f"global_max_pool: row width {x.shape[1]} != {channels}*{length}")
    batch = x.shape[0]
    x3 = x.data.reshape(batch, channels, length)
    arg = x3.argmax(axis=2)     # first max wins: deterministic tie-break

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x3)
            np.put_along_axis(buf, arg[:, :, None], g[:, :, None], axis=2)
            x.accumulate(buf.reshape(x.shape))

    return make_output(x3.max(axis=2), (x,), backward)
