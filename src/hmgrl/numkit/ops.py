"""Differentiable primitives over 2-D tensors.

Forward math uses numpy; each op hand-registers its reverse rule via
make_output. Exponentials are guarded (max-subtraction, clamped logs) so
finite inputs never produce NaN/Inf.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, ShapeError
from .tensor import Tensor, as_tensor, make_output, recording


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


# Rows of A per tile in softmax_gram_matmul. A 64 x K float64 tile (1.3 MB at
# K = 2,614) stays in cache from the Gram GEMM through the row softmax to the
# product with b: one DSC head at 2,614 pairs (32 projected and 16 cluster
# columns) took ~47 ms this way against ~94 ms for the dense K x K route, and
# tiles of 16-512 rows took 47-56 ms (2-core x86 box).
GRAM_TILE = 64


def softmax_gram_matmul(p, b) -> Tensor:
    """softmax_rows(p @ p^T) @ b, with A = softmax_rows(p @ p^T) formed in
    tiles of GRAM_TILE rows, each softmaxed as softmax_rows does it; a batch
    of one tile gives the dense route's bits.

    Without a tape the tiles share one buffer, so the K x K matrix A never
    exists whole. Under a tape the tiles fill a kept A for the backward:
    dB = A^T g, dS = A * (dA - rowsum(dA * A)) with dA = g b^T, and
    dP = (dS + dS^T) p.
    """
    p, b = as_tensor(p), as_tensor(b)
    k = p.shape[0]
    if b.shape[0] != k:
        raise ShapeError(f"softmax_gram_matmul: {p.shape} and {b.shape} differ in rows")
    p_data, b_data = p.data, b.data
    p_t = p_data.T.copy()
    keep = recording((p, b))
    a = np.empty((k if keep else min(GRAM_TILE, k), k))
    out = np.empty((k, b.shape[1]))
    for lo in range(0, k, GRAM_TILE):
        hi = min(lo + GRAM_TILE, k)
        tile = a[lo:hi] if keep else a[:hi - lo]
        np.matmul(p_data[lo:hi], p_t, out=tile)
        tile -= tile.max(axis=1, keepdims=True)
        np.exp(tile, out=tile)
        tile /= tile.sum(axis=1, keepdims=True)
        np.matmul(tile, b_data, out=out[lo:hi])

    def backward(g):
        if b.requires_grad:
            b.accumulate(a.T @ g)
        if p.requires_grad:
            ds = g @ b_data.T
            ds -= (ds * a).sum(axis=1, keepdims=True)
            ds *= a
            p.accumulate((ds + ds.T) @ p_data)

    return make_output(out, (p, b), backward)


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


def concat_rows(tensors) -> Tensor:
    """Stack row blocks top to bottom, preserving order."""
    tensors = [as_tensor(t) for t in tensors]
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError("concat_rows: column counts differ")
    edges = np.cumsum([0] + [t.shape[0] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, edges[:-1], edges[1:]):
            t.accumulate(g[lo:hi])

    return make_output(np.vstack([t.data for t in tensors]), tuple(tensors), backward)


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

def _conv_shapes(op: str, kernel: Tensor, bias: Tensor, channels_in: int, length: int):
    """(c_out, width) of a valid convolution, checked."""
    c_out, kw_total = kernel.shape
    width, rest = divmod(kw_total, channels_in)
    if rest or not 1 <= width <= length:
        raise ShapeError(f"{op}: {kw_total} kernel columns are not {channels_in} channels "
                         f"times a width in 1..{length}")
    if bias.shape != (1, c_out):
        raise ShapeError(f"{op}: bias shape {bias.shape} != (1, {c_out})")
    return c_out, width


def _shifted_sum(term, bias: Tensor, batch: int, length: int, width: int) -> np.ndarray:
    """bias + sum over offsets j of term(j, out), the offset-j term of flat
    rows j.. written to `out`, added at rows 0..; rows past an item's first
    length - width + 1 positions read across into the next item: dropped."""
    n, c_out, l_out = batch * length, bias.shape[1], length - width + 1
    y, buf = np.empty((n, c_out)), np.empty((n, c_out))
    term(0, y)
    for j in range(1, width):
        y[:-j] += term(j, buf[:-j])
    y3 = y.reshape(batch, length, c_out)[:, :l_out] + bias.data
    return y3.reshape(batch, l_out * c_out)


def _kernel_bias_grads(g, kernel: Tensor, bias: Tensor, batch: int, length: int,
                       width: int, offset_grad) -> np.ndarray:
    """Accumulate kernel and bias gradients of a _shifted_sum output g, dK_j
    as offset_grad(j, flat g rows 0..); return flat g, zero at dropped rows."""
    n, c_out, l_out = batch * length, bias.shape[1], length - width + 1
    g_flat = np.pad(g.reshape(batch, l_out, c_out),
                    ((0, 0), (0, width - 1), (0, 0))).reshape(n, c_out)
    dk = np.stack([offset_grad(j, g_flat[:n - j]) for j in range(width)], axis=2)
    kernel.accumulate(dk.reshape(kernel.shape))
    bias.accumulate(g.reshape(-1, c_out).sum(axis=0, keepdims=True))
    return g_flat


def conv1d_bank(x, kernel, bias, channels_in: int, length: int) -> Tensor:
    """Valid 1-D convolution over the position axis, batched over rows.

    Rows are position-major: `length` blocks of channels_in values in, so
    x_flat is a free (K*length) x channels_in view, and (length - width + 1)
    blocks of c_out values out. Kernel column c*width + j holds channel c at
    offset j; with K_j = kernel[:, j::width] the output is sum_j
    x_flat[j:] @ K_j^T shifted up j rows: `width` GEMMs, no window matrix.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.shape[1] != channels_in * length:
        raise ShapeError(f"conv1d_bank: row width {x.shape[1]} != {channels_in}*{length}")
    _, width = _conv_shapes("conv1d_bank", kernel, bias, channels_in, length)
    batch = x.shape[0]
    x_flat = x.data.reshape(batch * length, channels_in)
    taps = [np.ascontiguousarray(kernel.data[:, j::width]) for j in range(width)]  # BLAS-ready
    out = _shifted_sum(lambda j, buf: np.matmul(x_flat[j:], taps[j].T, out=buf),
                       bias, batch, length, width)

    def backward(g):
        g_flat = _kernel_bias_grads(g, kernel, bias, batch, length, width,
                                    lambda j, g_rows: g_rows.T @ x_flat[j:])
        if x.requires_grad:
            dx = g_flat @ taps[0]
            for j in range(1, width):
                dx[j:] += g_flat[:-j] @ taps[j]
            x.accumulate(dx.reshape(x.shape))

    return make_output(out, (x, kernel, bias), backward)


def conv1d_onehot(index, kernel, bias, n_classes: int) -> Tensor:
    """conv1d_bank over one-hot rows, without building them.

    Row k of `index` holds one class per position, in 0..n_classes-1, or
    n_classes for an empty (all-zero) position. One-hot rows times K_j^T are a
    gather, so each offset term is a take; the index gets no gradient.
    """
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    idx = np.asarray(index)
    if idx.ndim != 2 or idx.dtype.kind not in "ui":
        raise ShapeError(f"conv1d_onehot: need a 2-D integer index, got {idx.dtype} "
                         f"with shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() > n_classes):
        raise ShapeError(f"conv1d_onehot: an index lies outside 0..{n_classes}")
    batch, length = idx.shape
    c_out, width = _conv_shapes("conv1d_onehot", kernel, bias, n_classes, length)
    flat = idx.ravel().astype(np.intp)
    table = np.zeros((width, n_classes + 1, c_out))   # K_j^T, then a zero row for empty
    table[:, :n_classes] = kernel.data.reshape(c_out, n_classes, width).T
    # the index is checked, so "clip" clips nothing; it lets take write in place
    out = _shifted_sum(lambda j, buf: np.take(table[j], flat[j:], axis=0, out=buf,
                                              mode="clip"), bias, batch, length, width)

    def backward(g):
        _kernel_bias_grads(g, kernel, bias, batch, length, width, lambda j, g_rows:
                           _scatter_rows(flat[j:], None, None, n_classes + 1,
                                         g_rows)[:n_classes].T)

    return make_output(out, (kernel, bias), backward)


def global_max_pool(x, channels: int, length: int) -> Tensor:
    """Max over positions per channel; rows position-major as in conv1d_bank."""
    x = as_tensor(x)
    if x.shape[1] != channels * length:
        raise ShapeError(f"global_max_pool: row width {x.shape[1]} != {channels}*{length}")
    x3 = x.data.reshape(x.shape[0], length, channels)

    def backward(g):
        arg = x3.argmax(axis=1)     # first max wins: deterministic tie-break
        buf = np.zeros_like(x3)
        np.put_along_axis(buf, arg[:, None, :], g[:, None, :], axis=1)
        x.accumulate(buf.reshape(x.shape))

    return make_output(x3.max(axis=1), (x,), backward)
