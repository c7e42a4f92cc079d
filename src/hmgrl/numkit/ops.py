"""Differentiable primitives over 2-D tensors.

Forward math uses numpy; each op hand-registers its reverse rule via
make_output. Exponentials are guarded (max-subtraction, clamped logs) so
finite inputs never produce NaN/Inf.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, ShapeError
from .tensor import Tensor, as_tensor, make_output, recording

# log_clamped's floor, which keeps a zero probability's loss finite, and the
# term layer_norm_rows adds to each row's variance
LOG_FLOOR, LAYER_NORM_EPS = 1e-12, 1e-6


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
            a.accumulate(g @ b_data.T, fresh=True)
        if b.requires_grad:
            b.accumulate(a_data.T @ g, fresh=True)

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
            b.accumulate(-g, fresh=True)

    return make_output(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product, same shapes."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b_data, fresh=True)
        if b.requires_grad:
            b.accumulate(g * a_data, fresh=True)

    return make_output(a_data * b_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar."""
    a = as_tensor(a)
    s = float(s)

    def backward(g):
        a.accumulate(g * s, fresh=True)

    return make_output(a.data * s, (a,), backward)


def div(a, b) -> Tensor:
    """a / b where b is same-shape or 1x1 (broadcast scalar divide)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.shape != a.shape and b.shape != (1, 1):
        raise ShapeError(f"div: shapes {a.shape} / {b.shape} unsupported")
    a_data, b_data = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / b_data, fresh=True)
        if b.requires_grad:
            gb = -g * a_data / (b_data * b_data)
            if b.shape == (1, 1):
                gb = gb.sum().reshape(1, 1)
            b.accumulate(gb, fresh=True)

    return make_output(a_data / b_data, (a, b), backward)


def add_rowvec(a, v) -> Tensor:
    """Add a 1xn row vector to every row (bias broadcast)."""
    a, v = as_tensor(a), as_tensor(v)
    if v.shape != (1, a.shape[1]):
        raise ShapeError(f"add_rowvec: {a.shape} + {v.shape}")

    def backward(g):
        a.accumulate(g)
        if v.requires_grad:
            v.accumulate(g.sum(axis=0, keepdims=True), fresh=True)

    return make_output(a.data + v.data, (a, v), backward)


def mul_rowvec(a, v) -> Tensor:
    """Scale every row elementwise by a 1xn row vector (layer-norm gain)."""
    a, v = as_tensor(a), as_tensor(v)
    if v.shape != (1, a.shape[1]):
        raise ShapeError(f"mul_rowvec: {a.shape} * {v.shape}")
    a_data, v_data = a.data, v.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * v_data, fresh=True)
        if v.requires_grad:
            v.accumulate((g * a_data).sum(axis=0, keepdims=True), fresh=True)

    return make_output(a_data * v_data, (a, v), backward)


# --------------------------------------------------------------- activations

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        a.accumulate(g * mask, fresh=True)

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
        a.accumulate(dx, fresh=True)

    return make_output(y, (a,), backward)


# Rows of A per tile in softmax_gram_matmul. A tile of rows lo:hi spans
# columns lo:K, so the tile size trades GEMM shape against the share of A
# computed on the diagonal tiles. Swept on a 2-core x86 box, no tape, median
# per head: at K = 2,642 pairs with 32 projected and 16 cluster columns,
# tiles of 256, 512 and 1,024 rows took 19.2, 20.3 and 23.9 ms; at K = 7,447
# with 200 and 200 (the d1-task1 dims) they took 629, 572 and 537 ms. The
# whole-row tiles of 512 that computed every entry took 28.4 and 767 ms. A
# 512 x 7,447 tile is 30 MB, against 444 MB for the whole A.
GRAM_TILE = 512
# A row whose shifted exponentials sum below this (~e^-645, well above the
# subnormal range) is redone with its exact row maximum.
GRAM_SUM_FLOOR = 1e-280


def softmax_gram_matmul(p, b) -> Tensor:
    """softmax_rows(p @ p^T) @ b without a tape, equal to the dense formula
    up to rounding, never holding more than GRAM_TILE rows of A.

    Entry (i, j) of p @ p^T is shifted by the symmetric bound (c_i + c_j)/2
    with c_i = |p_i|^2, which is at least p_i . p_j, so E = exp(S - shift) is
    symmetric with entries up to 1. Row i of A is row i of E scaled by
    exp(c_j / 2) and normalized, so the right-hand side is [b, 1] with row j
    scaled by exp((c_j - max c) / 2), and the last column of E @ that gives
    the row sums. One GEMM [p, -c/2, 1] @ [p, 1, -c/2]^T gives a tile of
    shifted rows lo:hi over columns lo:K, one in-place exp gives E, and its
    product serves its own rows, while its transposed columns past hi serve
    the later rows: each pair of row tiles is computed once. A row whose sum
    is below GRAM_SUM_FLOOR, or that holds a value that is not finite (the
    GEMM's rounding of the shift can overflow exp once Gram entries near
    1e19), is redone with its exact row maximum.

    There is no backward: under a recording tape build A with softmax_rows.
    """
    p, b = as_tensor(p), as_tensor(b)
    if recording((p, b)):
        raise RuntimeError("softmax_gram_matmul has no backward; under a tape "
                           "form softmax_rows(p @ p^T) @ b")
    k, width = p.shape
    if b.shape[0] != k:
        raise ShapeError(f"softmax_gram_matmul: {p.shape} and {b.shape} differ in rows")
    p_data, b_data = p.data, b.data
    half = 0.5 * np.einsum("ij,ij->i", p_data, p_data)     # c / 2
    lhs = np.empty((k, width + 2))                          # [p, -c/2, 1]
    rhs = np.empty((k, width + 2))                          # [p, 1, -c/2]
    lhs[:, :width] = rhs[:, :width] = p_data
    np.negative(half, out=lhs[:, width])
    np.negative(half, out=rhs[:, width + 1])
    lhs[:, width + 1] = rhs[:, width] = 1.0
    b_ones = np.ones((k, b.shape[1] + 1))                   # [b, 1]
    b_ones[:, :-1] = b_data
    scaled = b_ones * np.exp(half - half.max(initial=0.0))[:, None]
    acc = np.empty_like(b_ones)             # the tiles' own rows
    later = np.zeros((b_ones.shape[1], k))  # the later rows, transposed
    flat = np.empty(min(GRAM_TILE, k) * k)
    with np.errstate(over="ignore", invalid="ignore"):      # redone below
        for lo in range(0, k, GRAM_TILE):
            hi = min(lo + GRAM_TILE, k)
            tile = flat[:(hi - lo) * (k - lo)].reshape(hi - lo, k - lo)
            np.matmul(lhs[lo:hi], rhs[lo:].T, out=tile)
            np.exp(tile, out=tile)
            np.matmul(tile, scaled[lo:], out=acc[lo:hi])
            later[:, hi:] += scaled[lo:hi].T @ tile[:, hi - lo:]
        acc += later.T
        redo = np.flatnonzero(~(acc[:, -1] >= GRAM_SUM_FLOOR)
                              | ~np.isfinite(acc).all(axis=1))
    for lo in range(0, redo.size, GRAM_TILE):
        rows = redo[lo:lo + GRAM_TILE]
        tile = flat[:rows.size * k].reshape(rows.size, k)
        np.matmul(p_data[rows], p_data.T, out=tile)
        tile -= tile.max(axis=1, keepdims=True)
        np.exp(tile, out=tile)
        acc[rows] = tile @ b_ones
    return Tensor(acc[:, :-1] / acc[:, -1:])


def log_clamped(a) -> Tensor:
    """log(max(a, LOG_FLOOR)); gradient is 1/a above the floor, 0 below it."""
    a = as_tensor(a)
    above = a.data > LOG_FLOOR

    def backward(g):
        a.accumulate(np.where(above, g / a.data, 0.0), fresh=True)

    return make_output(np.log(np.maximum(a.data, LOG_FLOOR)), (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with prob `rate`, scale survivors by 1/(1-rate),
    so inference, which skips it, needs no correction. At rate 0 it is the
    identity and draws nothing."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        a.accumulate(g * mask, fresh=True)

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


def gather_rows(a, index) -> Tensor:
    """Select rows by integer index (duplicates allowed)."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError("gather_rows: bad index vector")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_scatter_rows(idx, None, None, a.shape[0], g), fresh=True)

    return make_output(a.data[idx], (a,), backward)


def pair_linear(x, w, us, vs) -> Tensor:
    """Row k is x[us[k]] @ W_u + x[vs[k]] @ W_v, a linear map of the pair
    (us[k], vs[k]) over the per-drug rows of x (n columns). A w of 2n rows
    holds W_u over W_v, the map of the side-by-side row [x_u, x_v]; a w of n
    rows is both, the map of the summed row x_u + x_v.

    Each drug of the batch is multiplied once, then gathered:
    (x_d @ W_u)[us] + (x_d @ W_v)[vs] over the unique drugs d, one GEMM
    when W_u is W_v. The backward scatters g onto those drugs' rows:
    dW_u = x_d^T G_u and dx_d = G_u W_u^T + G_v W_v^T.
    """
    x, w = as_tensor(x), as_tensor(w)
    n = x.shape[1]
    if w.shape[0] not in (n, 2 * n):
        raise ShapeError(f"pair_linear: weight {w.shape} against rows of width {n}")
    us, vs = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp)
    if us.ndim != 1 or us.shape != vs.shape:
        raise ShapeError(f"pair_linear: index vectors {us.shape} and {vs.shape}")
    if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= x.shape[0]):
        raise ShapeError(f"pair_linear: a drug index lies outside 0..{x.shape[0] - 1}")
    used = np.zeros(x.shape[0], dtype=bool)
    used[us] = used[vs] = True
    drugs = np.flatnonzero(used)                  # ascending
    slot = np.cumsum(used) - 1                    # each drug's row among them
    where_u, where_v = slot[us], slot[vs]
    rows = x.data if drugs.size == x.shape[0] else x.data[drugs]
    shared = w.shape[0] == n
    w_u, w_v = (w.data, w.data) if shared else (w.data[:n], w.data[n:])
    proj_u = rows @ w_u
    proj_v = proj_u if shared else rows @ w_v
    out = proj_u[where_u]
    out += proj_v[where_v]

    def backward(g):
        g_u = _scatter_rows(where_u, None, None, drugs.size, g)
        g_v = _scatter_rows(where_v, None, None, drugs.size, g)
        if shared:
            g_u += g_v
        if w.requires_grad:
            w.accumulate(rows.T @ g_u if shared
                         else np.vstack([rows.T @ g_u, rows.T @ g_v]), fresh=True)
        if x.requires_grad:
            dx = np.zeros(x.shape)
            dx[drugs] = g_u @ w_u.T
            if not shared:
                dx[drugs] += g_v @ w_v.T
            x.accumulate(dx, fresh=True)

    return make_output(out, (x, w), backward)


def _relation_entries(relation, n_rows: int, n_x: int):
    """(sources, rows, cols, vals) of one relation as checked index and
    weight vectors; see relation_sum."""
    sources, rows, cols = (np.asarray(v, dtype=np.intp) for v in relation[:3])
    vals = np.asarray(relation[3], dtype=np.float64)
    if not (sources.ndim == rows.ndim == cols.ndim == vals.ndim == 1
            and rows.size == cols.size == vals.size):
        raise ShapeError("relation_sum: sources, rows, cols and vals must be "
                         "vectors, the last three of one length")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0
                      or cols.max() >= sources.size or sources.min() < 0
                      or sources.max() >= n_x):
        raise ShapeError(f"relation_sum: an entry lies outside {n_rows} x "
                         f"{sources.size} sources of {n_x} rows")
    return sources, rows, cols, vals


def relation_sum(x, weights, relations, n_rows: int) -> Tensor:
    """sum_r S_r @ (x[sources_r] @ W_r), one term per relation with an edge.

    Relation r is (sources_r, rows_r, cols_r, vals_r): S_r is the sparse
    n_rows x |sources_r| matrix with S_r[rows[k], cols[k]] = vals[k],
    duplicate entries adding up. The tape keeps only x, the weights and
    these vectors: the backward walks the relations in reverse, gathers
    x[sources_r] again for dW_r and scatters S_r^T g @ W_r^T into x, so no
    gathered rows, messages or partial sums outlive the forward.
    """
    x = as_tensor(x)
    weights = [as_tensor(w) for w in weights]
    if len(weights) != len(relations):
        raise ShapeError(f"relation_sum: {len(weights)} weights for "
                         f"{len(relations)} relations")
    width = weights[0].shape[1] if weights else 0
    for w in weights:
        if w.shape != (x.shape[1], width):
            raise ShapeError(f"relation_sum: weight {w.shape} against x {x.shape}")
    terms = [(w, _relation_entries(rel, n_rows, x.shape[0]))
             for w, rel in zip(weights, relations)]
    terms = [(w, entries) for w, entries in terms if entries[1].size]
    x_data = x.data
    total = np.zeros((n_rows, width))   # a bincount sum is never -0.0: 0 + t is t
    for w, (sources, rows, cols, vals) in terms:
        total += _scatter_rows(rows, cols, vals, n_rows, x_data[sources] @ w.data)

    def backward(g):
        for w, (sources, rows, cols, vals) in reversed(terms):
            d_messages = _scatter_rows(cols, rows, vals, sources.size, g)
            if x.requires_grad:
                x.accumulate(_scatter_rows(sources, None, None, x.shape[0],
                                           d_messages @ w.data.T), fresh=True)
            if w.requires_grad:
                w.accumulate(x_data[sources].T @ d_messages, fresh=True)

    return make_output(total, (x, *weights), backward)


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
        a.accumulate(np.full(shape, g[0, 0]), fresh=True)

    return make_output(np.array([[a.data.sum()]]), (a,), backward)


def frobenius_norm(a) -> Tensor:
    a = as_tensor(a)
    norm = float(np.sqrt((a.data * a.data).sum()))
    a_data = a.data

    def backward(g):
        # subgradient 0 at the origin keeps training finite
        if norm > 0.0:
            a.accumulate(g[0, 0] * a_data / norm, fresh=True)

    return make_output(np.array([[norm]]), (a,), backward)


# ----------------------------------------------------------------- attention

def token_attention(q, k, v, token_count: int, n_heads: int) -> Tensor:
    """Multi-head self-attention inside each block of token_count rows.

    q, k and v are (K*token_count) x D with D = n_heads * head_dim, seen as
    free (K, heads, tokens, head_dim) views: each block's head h is
    W v with W = softmax(q k^T / sqrt(head_dim)), and the heads merge back so
    head h fills columns h*head_dim:(h+1)*head_dim. Blocks never mix. The
    scores are scaled after the product, then softmaxed as softmax_rows does
    it, so each head's bits are those of slicing it out and attending alone.
    The tape keeps q, k, v and W: dV = W^T g, dS = W * (g v^T - rowsum(g v^T
    * W)) / sqrt(head_dim), dQ = dS k and dK = dS^T q.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check_same_shape(q, k, "token_attention")
    _check_same_shape(q, v, "token_attention")
    rows, width = q.shape
    if token_count < 1 or rows % token_count:
        raise ShapeError(f"token_attention: {rows} rows are not blocks of {token_count}")
    if n_heads < 1 or width % n_heads:
        raise ShapeError(f"token_attention: {n_heads} heads do not divide width {width}")
    split = (rows // token_count, token_count, n_heads, width // n_heads)

    def heads(a):
        return a.reshape(split).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(rows, width)

    q4, k4, v4 = heads(q.data), heads(k.data), heads(v.data)
    s = float(1.0 / np.sqrt(split[3]))
    w = q4 @ k4.transpose(0, 1, 3, 2)
    w *= s
    w -= w.max(axis=3, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=3, keepdims=True)

    def backward(g):
        g4 = heads(g)
        if v.requires_grad:
            v.accumulate(merge(w.transpose(0, 1, 3, 2) @ g4), fresh=True)
        if q.requires_grad or k.requires_grad:
            ds = g4 @ v4.transpose(0, 1, 3, 2)
            ds -= (ds * w).sum(axis=3, keepdims=True)
            ds *= w
            ds *= s
            if q.requires_grad:
                q.accumulate(merge(ds @ k4), fresh=True)
            if k.requires_grad:
                k.accumulate(merge(ds.transpose(0, 1, 3, 2) @ q4), fresh=True)

    return make_output(merge(w @ v4), (q, k, v), backward)


# ------------------------------------------------------------- normalization

def layer_norm_rows(a) -> Tensor:
    """Normalize each row to zero mean / unit variance (no affine part)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=1, keepdims=True)
    var = a.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (a.data - mu) * inv

    def backward(g):
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        a.accumulate(inv * (g - gm - y * gy), fresh=True)

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


# Rows per tile of the convolutions' shifted sums, of whole items: an output
# row's offset terms then read only its own tile, with no halo. Stage 2's
# forward at the per-drug size (480 x 92 rows, 64 -> 96 channels, width 8)
# took 137 ms on whole rows and 109 ms in these tiles on a 2-core x86 box,
# bit-identical: a tile's buffers stay in cache, and no full-size sum is made.
CONV_TILE = 2048


def _item_tiles(batch: int, length: int):
    """(tiles, rows): the flat row ranges (lo, hi) of even consecutive tiles
    of whole items, at most ~CONV_TILE rows each, and the largest tile's
    rows. A tile holds two items or more, so no offset term is a one-row
    product, which numpy would hand to a matrix-vector routine that rounds
    differently from the GEMM."""
    k = max(1, min(-(-batch // max(2, CONV_TILE // length)), batch // 2))
    edges = [batch * i // k * length for i in range(k + 1)]
    return list(zip(edges, edges[1:])), -(-batch // k) * length


def _shifted_sum(term, bias: Tensor, batch: int, length: int, width: int) -> np.ndarray:
    """bias + sum over offsets j of term(j, lo, hi, out), the offset-j term
    of flat rows lo + j..hi written to `out`, added at rows lo..; rows past an
    item's first length - width + 1 positions would read across into the next
    item: dropped. Summed one item tile at a time, each tile's kept rows
    written, biased, straight into the output."""
    c_out, l_out = bias.shape[1], length - width + 1
    out = np.empty((batch, l_out * c_out))
    out3 = out.reshape(batch, l_out, c_out)
    tiles, rows = _item_tiles(batch, length)
    y, buf = np.empty((rows, c_out)), np.empty((rows, c_out))
    for lo, hi in tiles:
        t = y[:hi - lo]
        term(0, lo, hi, t)
        for j in range(1, width):
            t[:-j] += term(j, lo, hi, buf[:hi - lo - j])
        np.add(t.reshape(-1, length, c_out)[:, :l_out], bias.data,
               out=out3[lo // length:hi // length])
    return out


def _kernel_bias_grads(g, kernel: Tensor, bias: Tensor, batch: int, length: int,
                       width: int, offset_grad) -> np.ndarray:
    """Accumulate kernel and bias gradients of a _shifted_sum output g, dK_j
    as offset_grad(j, flat g rows 0..); return flat g, zero at dropped rows."""
    n, c_out, l_out = batch * length, bias.shape[1], length - width + 1
    g_flat = np.pad(g.reshape(batch, l_out, c_out),
                    ((0, 0), (0, width - 1), (0, 0))).reshape(n, c_out)
    dk = np.stack([offset_grad(j, g_flat[:n - j]) for j in range(width)], axis=2)
    kernel.accumulate(dk.reshape(kernel.shape), fresh=True)
    bias.accumulate(g.reshape(-1, c_out).sum(axis=0, keepdims=True), fresh=True)
    return g_flat


def conv1d_bank(x, kernel, bias, channels_in: int, length: int) -> Tensor:
    """Valid 1-D convolution over the position axis, batched over rows.

    Rows are position-major: `length` blocks of channels_in values in, so
    x_flat is a free (K*length) x channels_in view, and (length - width + 1)
    blocks of c_out values out. Kernel column c*width + j holds channel c at
    offset j; with K_j = kernel[:, j::width] the output is sum_j
    x_flat[j:] @ K_j^T shifted up j rows: `width` GEMMs per tile of whole
    items (see CONV_TILE), no window matrix.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.shape[1] != channels_in * length:
        raise ShapeError(f"conv1d_bank: row width {x.shape[1]} != {channels_in}*{length}")
    _, width = _conv_shapes("conv1d_bank", kernel, bias, channels_in, length)
    batch = x.shape[0]
    x_flat = x.data.reshape(batch * length, channels_in)
    taps = [np.ascontiguousarray(kernel.data[:, j::width]) for j in range(width)]  # BLAS-ready
    out = _shifted_sum(lambda j, lo, hi, buf: np.matmul(x_flat[lo + j:hi], taps[j].T,
                                                        out=buf),
                       bias, batch, length, width)

    def backward(g):
        g_flat = _kernel_bias_grads(g, kernel, bias, batch, length, width,
                                    lambda j, g_rows: g_rows.T @ x_flat[j:])
        if x.requires_grad:   # in the forward's tiles: dx_tile = sum_j shifted g K_j
            dx = np.empty(x_flat.shape)
            tiles, rows = _item_tiles(batch, length)
            buf = np.empty((rows, channels_in))
            for lo, hi in tiles:
                d = np.matmul(g_flat[lo:hi], taps[0], out=dx[lo:hi])
                for j in range(1, width):
                    d[j:] += np.matmul(g_flat[lo:hi - j], taps[j], out=buf[:hi - lo - j])
            x.accumulate(dx.reshape(x.shape), fresh=True)

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
    out = _shifted_sum(lambda j, lo, hi, buf: np.take(table[j], flat[lo + j:hi], axis=0,
                                                      out=buf, mode="clip"),
                       bias, batch, length, width)

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
        x.accumulate(buf.reshape(x.shape), fresh=True)

    return make_output(x3.max(axis=1), (x,), backward)
