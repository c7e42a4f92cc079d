import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.errors import NumericError, ParameterError, ShapeError
from hmgrl.numkit.ops import GRAM_SUM_FLOOR
from hmgrl.numkit.optim import ADAM_CHUNK, BETA1, BETA2, EPS
from hmgrl.oracle import FdConfig, gradcheck


def fd_check(build_loss, params, rel_tol=1e-4, h=1e-5):
    """Analytic grads of build_loss() vs central differences, all coords."""
    sweep = FdConfig(h=h, rel_tol=rel_tol,
                     full_sweep_size=max(p.data.size for p in params))
    report = gradcheck(build_loss, dict(enumerate(params)), sweep)
    assert all(r["ok"] for r in report.values()), report


def test_matmul_identity():
    m = nk.constant([[1.0, 2.0], [3.0, 4.0]])
    out = nk.matmul(nk.constant(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand():
    out = nk.matmul(nk.constant([[1, 2], [3, 4]]), nk.constant([[1], [1]]))
    assert np.array_equal(out.data, [[3], [7]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        nk.matmul(nk.constant(np.ones((2, 3))), nk.constant(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = nk.parameter(rng.normal(size=(3, 4)))
    b = nk.parameter(rng.normal(size=(4, 2)))
    weight = rng.normal(size=(3, 2))  # non-uniform seed so grads are generic

    def loss():
        return nk.sum_all(nk.mul(nk.matmul(a, b), nk.constant(weight)))

    fd_check(loss, [a, b], rel_tol=1e-6)


def test_softmax_uniform_row():
    out = nk.softmax_rows(nk.constant([[2.0, 2.0, 2.0, 2.0]]))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_closed_form():
    out = nk.softmax_rows(nk.constant([[0.0, np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=30, size=(20, 7))
    before = x.copy()
    out = nk.softmax_rows(nk.constant(x))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    # the one-buffer form equals the three-temporary formula to the bit
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert np.array_equal(out.data, e / e.sum(axis=1, keepdims=True))
    assert np.array_equal(x, before)


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    x = nk.parameter(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))

    def loss():
        return nk.sum_all(nk.mul(nk.softmax_rows(x), nk.constant(w)))

    fd_check(loss, [x])


def dense_softmax_gram_matmul(p, b):
    """The untiled formula: softmax_rows(p @ p^T) @ b through the plain ops."""
    p = nk.constant(p)
    return nk.matmul(nk.softmax_rows(nk.matmul(p, nk.transpose(p))), nk.constant(b))


@pytest.fixture
def tiles_of_64(monkeypatch):
    """Tiles of 64 rows, so that small batches span several."""
    monkeypatch.setattr(nk.ops, "GRAM_TILE", 64)


@pytest.mark.parametrize("k", [2, 63, 64, 65, 200])
def test_softmax_gram_matmul_matches_dense_formula(k, tiles_of_64):
    # 63/64/65 sit at the tile edge; 200 ends in a ragged tile of 8 rows
    rng = np.random.default_rng(k)
    p = rng.normal(size=(k, 5))
    b = rng.normal(size=(k, 3))
    dense = dense_softmax_gram_matmul(p, b).data
    tiled = nk.softmax_gram_matmul(p, b).data
    assert np.abs(tiled - dense).max() <= 1e-12 * np.abs(dense).max()


def _fallback_rows(p):
    """Rows whose exponentials, shifted by the symmetric bound
    (|p_i|^2 + |p_j|^2)/2 and scaled by exp((|p_j|^2 - max |p|^2)/2), sum
    below GRAM_SUM_FLOOR (computed in log space)."""
    sq = (p * p).sum(axis=1)
    shifted = p @ p.T - sq[:, None] / 2 - sq.max() / 2
    top = shifted.max(axis=1)
    log_sums = top + np.log(np.exp(shifted - top[:, None]).sum(axis=1))
    return log_sums < np.log(GRAM_SUM_FLOOR)


@pytest.mark.parametrize("wide_rows", [(3, 70, 150), ()])
def test_softmax_gram_matmul_redoes_tiles_whose_bound_overshoots(wide_rows,
                                                                tiles_of_64):
    # at scale 30, and more so with a few rows x60, the bound sits far more
    # than ~645 above most rows' true max, so their shifted sums underflow
    rng = np.random.default_rng(13)
    p = rng.normal(size=(200, 5)) * 30
    p[list(wide_rows)] *= 60
    b = rng.normal(size=(200, 3))
    fallback = _fallback_rows(p)
    assert fallback.any() and not fallback.all()   # fallback and fast rows
    dense = dense_softmax_gram_matmul(p, b).data
    tiled = nk.softmax_gram_matmul(p, b).data
    assert np.isfinite(tiled).all()
    assert np.abs(tiled - dense).max() <= 1e-12 * np.abs(dense).max()


def test_softmax_gram_matmul_redoes_tiles_that_overflow(tiles_of_64):
    # K copies of one row make every bound exact, but at Gram entries of 1e20
    # the GEMM's rounding of S - c lands up to ~1e4 on either side of zero:
    # below, the floor catches it; above, exp overflows (some of these ten
    # directions do, with x86 OpenBLAS)
    rng = np.random.default_rng(0)
    b = rng.normal(size=(200, 3))
    for v in rng.normal(size=(10, 5)):
        p = np.tile(v * 1e10 / np.linalg.norm(v), (200, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiled = nk.softmax_gram_matmul(p, b).data
        dense = dense_softmax_gram_matmul(p, b).data
        assert np.isfinite(tiled).all()
        assert np.abs(tiled - dense).max() <= 1e-12 * np.abs(dense).max()


def test_softmax_gram_matmul_refuses_a_recording_tape():
    # it has no backward: under a tape the views build A with softmax_rows
    rng = np.random.default_rng(2)
    p = nk.parameter(rng.normal(size=(4, 3)))
    with nk.Tape(), pytest.raises(RuntimeError, match="no backward"):
        nk.softmax_gram_matmul(p, rng.normal(size=(4, 2)))
    with nk.Tape():    # a tape with nothing to record is no tape for it
        nk.softmax_gram_matmul(p.data, rng.normal(size=(4, 2)))


@pytest.mark.parametrize("spare", [0, 2], ids=["every-drug", "two-unused"])
@pytest.mark.parametrize("shared", [False, True], ids=["halves", "shared"])
def test_pair_linear_matches_the_pair_route(shared, spare):
    # 40 pairs over 9 drugs repeat drugs; with spare drugs unused, the
    # per-drug route gathers rows and scatters their gradient back
    rng = np.random.default_rng(21)
    n_drugs, n, width, k = 9, 5, 4, 40
    used = n_drugs - spare
    x = nk.parameter(rng.normal(size=(n_drugs, n)))
    w = nk.parameter(rng.normal(size=(n if shared else 2 * n, width)))
    us = rng.integers(0, used, size=k)
    vs = (us + rng.integers(1, used, size=k)) % used
    g = rng.normal(size=(k, width))
    with nk.Tape() as tape:
        out = nk.pair_linear(x, w, us, vs)
        loss = nk.sum_all(nk.mul(out, nk.constant(g)))
    tape.backward(loss)
    # the pair route: each pair's summed or side-by-side row, built in numpy
    rows = x.data[us] + x.data[vs] if shared else np.hstack([x.data[us], x.data[vs]])
    d_rows = g @ w.data.T
    dx = np.zeros_like(x.data)
    np.add.at(dx, us, d_rows[:, :n])
    np.add.at(dx, vs, d_rows[:, -n:])
    for got, want in ((out.data, rows @ w.data), (w.grad, rows.T @ g), (x.grad, dx)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shared", [False, True], ids=["halves", "shared"])
def test_pair_linear_gradients(shared):
    rng = np.random.default_rng(22)
    x = nk.parameter(rng.normal(size=(5, 3)))
    w = nk.parameter(rng.normal(size=(3 if shared else 6, 4)))
    us, vs = np.array([0, 1, 0, 3, 1]), np.array([1, 3, 3, 0, 0])
    target = rng.normal(size=(5, 4))

    def loss():
        return nk.sum_all(nk.mul(nk.pair_linear(x, w, us, vs), nk.constant(target)))

    fd_check(loss, [x, w])


def test_pair_linear_rejects_bad_shapes():
    x = nk.constant(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="weight"):
        nk.pair_linear(x, np.ones((3, 4)), [0], [1])
    with pytest.raises(ShapeError, match="index vectors"):
        nk.pair_linear(x, np.ones((2, 4)), [0, 1], [1])
    with pytest.raises(ShapeError, match="outside 0..2"):
        nk.pair_linear(x, np.ones((2, 4)), [0], [3])


def test_relu():
    out = nk.relu(nk.constant([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_dropout_rate_zero_is_identity():
    x = nk.constant([[1.0, -2.0, 3.0]])
    rng = np.random.default_rng(0)
    assert nk.dropout(x, 0.0, rng) is x


def test_dropout_rescales_survivors():
    rng = np.random.default_rng(3)
    x = nk.constant(np.ones((200, 50)))
    out = nk.dropout(x, 0.25, rng)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.75, 12)}


def test_dropout_rate_validation():
    with pytest.raises(ParameterError):
        nk.dropout(nk.constant([[1.0]]), 1.0, np.random.default_rng(0))


def test_two_op_chain_matches_manual_rule():
    # y = relu(x W); loss = sum(y); manual chain rule vs tape
    rng = np.random.default_rng(5)
    x_val = rng.normal(size=(2, 3))
    w = nk.parameter(rng.normal(size=(3, 2)))
    with nk.Tape() as tape:
        y = nk.relu(nk.matmul(nk.constant(x_val), w))
        loss = nk.sum_all(y)
    tape.backward(loss)
    mask = (x_val @ w.data) > 0
    manual = x_val.T @ (np.ones((2, 2)) * mask)
    assert np.allclose(w.grad, manual, atol=1e-14)


def test_concat_cols_and_slice_gradients():
    rng = np.random.default_rng(9)
    a = nk.parameter(rng.normal(size=(3, 2)))
    b = nk.parameter(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 6))

    window = np.eye(6)[:, 1:6]  # reads columns 1..5 of the concatenation

    def loss():
        cat = nk.concat_cols([a, b])
        return nk.sum_all(nk.mul(nk.matmul(cat, nk.constant(window)),
                                 nk.constant(w[:, 1:])))

    fd_check(loss, [a, b])


def test_gather_rows_gradient_accumulates_duplicates():
    x = nk.parameter([[1.0, 2.0], [3.0, 4.0]])
    with nk.Tape() as tape:
        out = nk.gather_rows(x, [0, 0, 1])
        loss = nk.sum_all(out)
    tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_relation_sum_matches_dense_product_and_finite_differences():
    rng = np.random.default_rng(12)
    x = nk.parameter(rng.normal(size=(4, 3)))
    weights = [nk.parameter(rng.normal(size=(3, 2))) for _ in range(3)]
    relations = [
        # rows 1 and 3 stay empty; (0, 1) appears twice and adds up
        (np.array([0, 2, 3]), np.array([0, 4, 4, 2, 0, 4]),
         np.array([1, 0, 2, 2, 1, 1]), rng.normal(size=6)),
        (np.array([], int), np.array([], int), np.array([], int), np.array([])),
        (np.array([1]), np.array([3, 0]), np.array([0, 0]), rng.normal(size=2)),
    ]
    dense = np.zeros((5, 2))
    for w, (sources, rows, cols, vals) in zip(weights, relations):
        s = np.zeros((5, 4))
        np.add.at(s, (rows, sources[cols]), vals)
        dense += s @ x.data @ w.data
    out = nk.relation_sum(x, weights, relations, 5)
    assert np.allclose(out.data, dense, atol=1e-15)
    target = nk.constant(rng.normal(size=(5, 2)))
    fd_check(lambda: nk.sum_all(nk.mul(nk.relation_sum(x, weights, relations, 5),
                                       target)), [x] + weights, rel_tol=1e-6)
    empty = nk.relation_sum(x, weights[1:2], relations[1:2], 5)
    assert np.array_equal(empty.data, np.zeros((5, 2)))
    sources, rows, cols, vals = relations[0]
    bad = [(sources, rows, cols, vals), (sources, rows, cols + 1, vals),
           (sources + 1, rows, cols, vals), (sources, rows, cols, vals[:5])]
    for n_rows, relation in zip((4, 5, 5, 5), bad):
        with pytest.raises(ShapeError, match="relation_sum"):
            nk.relation_sum(x, weights[:1], [relation], n_rows)
    with pytest.raises(ShapeError, match="relation_sum"):
        nk.relation_sum(x, weights, relations[:2], 5)
    with pytest.raises(ShapeError, match="relation_sum"):
        nk.relation_sum(x, [weights[0], nk.parameter(np.ones((3, 4)))],
                        relations[:2], 5)


class _CountingArray(np.ndarray):
    """Counts transposes; the gradient of the other matmul operand needs
    this operand transposed, so a zero count means it was never formed."""

    transposes = 0

    @property
    def T(self):
        type(self).transposes += 1
        return super().T


def test_matmul_skips_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(15)
    const = nk.constant(rng.normal(size=(3, 4)))
    for const_left in (True, False):
        p = nk.parameter(rng.normal(size=(4, 2) if const_left else (2, 3)))
        p.data = p.data.view(_CountingArray)
        _CountingArray.transposes = 0
        with nk.Tape() as tape:
            prod = nk.matmul(const, p) if const_left else nk.matmul(p, const)
            seed = rng.normal(size=prod.shape)
            loss = nk.sum_all(nk.mul(prod, nk.constant(seed)))
        tape.backward(loss)
        assert _CountingArray.transposes == 0
        assert const.grad is None
        expected = const.data.T @ seed if const_left else seed @ const.data.T
        assert np.array_equal(p.grad, expected)


class _CountingOperand(np.ndarray):
    """Counts the numpy ufunc calls that read this array."""

    reads = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).reads += 1
        inputs = tuple(np.asarray(x) if isinstance(x, _CountingOperand) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("op", ["mul", "mul_rowvec", "div"])
def test_elementwise_ops_skip_the_gradient_of_a_constant_operand(op):
    # p's own data enters only the gradient of the constant operand, so the
    # backward pass must never read it
    rng = np.random.default_rng(16)
    const = nk.constant(rng.normal(size=(3, 4)) + 3.0)
    p = nk.parameter(rng.normal(size=(1, 4) if op == "mul_rowvec" else (3, 4)))
    p.data = p.data.view(_CountingOperand)
    seed = rng.normal(size=(3, 4))
    with nk.Tape() as tape:
        if op == "mul":
            out = nk.mul(const, p)
        elif op == "mul_rowvec":
            out = nk.mul_rowvec(const, p)
        else:
            out = nk.div(p, const)
        loss = nk.sum_all(nk.mul(out, nk.constant(seed)))
    _CountingOperand.reads = 0
    tape.backward(loss)
    assert _CountingOperand.reads == 0
    assert const.grad is None
    expected = {"mul": seed * const.data,
                "mul_rowvec": (seed * const.data).sum(axis=0, keepdims=True),
                "div": seed / const.data}[op]
    assert np.array_equal(p.grad, expected)


def test_sub_gradients_reach_both_operands():
    rng = np.random.default_rng(12)
    a, b = (nk.parameter(rng.normal(size=(3, 4))) for _ in range(2))
    w = rng.normal(size=(3, 4))

    def loss():
        diff = nk.sub(a, b)
        return nk.sum_all(nk.mul(nk.mul(diff, diff), nk.constant(w)))

    fd_check(loss, [a, b])


@pytest.mark.parametrize("data", [1.0, [1.0, 2.0], np.zeros((2, 2, 2))],
                         ids=["0-d", "1-d", "3-d"])
def test_tensor_data_must_be_2d(data):
    with pytest.raises(ShapeError, match="tensors are 2-D"):
        nk.constant(data)


def test_div_frobenius_layernorm_gradients():
    rng = np.random.default_rng(11)
    x = nk.parameter(rng.normal(size=(4, 3)) + 2.0)
    w = rng.normal(size=(4, 3))

    def loss():
        normed = nk.div(x, nk.frobenius_norm(x))
        return nk.sum_all(nk.mul(nk.layer_norm_rows(normed), nk.constant(w)))

    fd_check(loss, [x], rel_tol=2e-4)


def composed_attention(q, k, v, wt, token_count, n_heads):
    """Oracle: the per-head route in plain numpy. Each head's column slice
    is copied out, its per-block scores q k^T scaled and row-softmaxed, and
    applied to v; the heads are concatenated. Returns the output and the
    q, k and v gradients of sum(out * wt), head by head in reverse."""
    rows, width = q.shape
    blocks, hd = rows // token_count, width // n_heads
    s = float(1.0 / np.sqrt(hd))
    cols = [slice(h * hd, (h + 1) * hd) for h in range(n_heads)]

    def split(a):
        return a.copy().reshape(blocks, token_count, hd)

    heads, weights = [], []
    for c in cols:
        scores = split(q[:, c]) @ split(k[:, c]).transpose(0, 2, 1)
        scores = (scores * s).reshape(rows, token_count)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = (w / w.sum(axis=1, keepdims=True)).reshape(blocks, token_count, token_count)
        weights.append(w)
        heads.append((w @ split(v[:, c])).reshape(rows, hd))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for c, w in reversed(list(zip(cols, weights))):
        g3 = split(wt[:, c])
        dv[:, c] = (w.transpose(0, 2, 1) @ g3).reshape(rows, hd)
        dw = g3 @ split(v[:, c]).transpose(0, 2, 1)
        ds = (dw - (dw * w).sum(axis=2, keepdims=True)) * w * s
        dq[:, c] = (ds @ split(k[:, c])).reshape(rows, hd)
        dk[:, c] = (ds.transpose(0, 2, 1) @ split(q[:, c])).reshape(rows, hd)
    return np.hstack(heads), dq, dk, dv


@pytest.mark.parametrize("blocks, tokens, width, n_heads", [
    (5, 3, 6, 2),
    (7, 4, 16, 4),
    (4, 1, 4, 2),    # one token: each head passes its values through
    (6, 4, 8, 1),    # one head
    (3, 2, 4, 4),    # one column per head
])
def test_token_attention_matches_composed_route(blocks, tokens, width, n_heads):
    rng = np.random.default_rng(blocks * 100 + tokens * 10 + n_heads)
    data = [rng.normal(size=(blocks * tokens, width)) for _ in range(3)]
    wt = rng.normal(size=(blocks * tokens, width))
    q, k, v = (nk.parameter(a) for a in data)
    with nk.Tape() as tape:
        out = nk.token_attention(q, k, v, tokens, n_heads)
        loss = nk.sum_all(nk.mul(out, nk.constant(wt)))
    tape.backward(loss)
    expected, dq, dk, dv = composed_attention(*data, wt, tokens, n_heads)
    assert np.array_equal(out.data, expected)
    assert np.array_equal(q.grad, dq)
    assert np.array_equal(k.grad, dk)
    assert np.array_equal(v.grad, dv)


def test_token_attention_gradients():
    rng = np.random.default_rng(13)
    q, k, v = (nk.parameter(rng.normal(size=(6, 4))) for _ in range(3))
    w = rng.normal(size=(6, 4))

    def loss():
        return nk.sum_all(nk.mul(nk.token_attention(q, k, v, 3, 2), nk.constant(w)))

    fd_check(loss, [q, k, v])


def test_token_attention_shape_errors():
    a = nk.constant(np.ones((6, 4)))
    with pytest.raises(ShapeError, match="differ"):
        nk.token_attention(a, nk.constant(np.ones((6, 2))), a, 2, 2)
    with pytest.raises(ShapeError, match="differ"):
        nk.token_attention(a, a, nk.constant(np.ones((4, 4))), 2, 2)
    with pytest.raises(ShapeError, match="blocks of 4"):
        nk.token_attention(a, a, a, 4, 2)
    with pytest.raises(ShapeError, match="3 heads"):
        nk.token_attention(a, a, a, 2, 3)


def test_every_numkit_export_is_used_by_the_package():
    """Every callable numkit exports is named (`nk.<name>`, or imported from
    numkit) by a module of the package outside numkit: a dead op is deleted,
    not left exported."""
    src = Path(nk.__file__).parent.parent
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "nk"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "numkit":
                used.update(alias.name for alias in node.names)
    exported = [name for name in nk.__all__ if callable(getattr(nk, name))]
    assert exported and [name for name in exported if name not in used] == []


def test_conv1d_bank_matches_direct_convolution():
    # batch >= 3: an offset term that read across an item boundary would
    # show up in the middle item's last positions
    rng = np.random.default_rng(17)
    batch, c_in, length, c_out = 3, 3, 10, 4
    x3 = rng.normal(size=(batch, length, c_in))      # position-major items
    for width in (1, 3, length):
        kernel = rng.normal(size=(c_out, c_in * width))
        bias = rng.normal(size=(1, c_out))
        out = nk.conv1d_bank(nk.constant(x3.reshape(batch, -1)),
                             nk.constant(kernel), nk.constant(bias), c_in, length)
        l_out = length - width + 1
        got = out.data.reshape(batch, l_out, c_out)
        for b in range(batch):
            for o in range(c_out):
                kern = kernel[o].reshape(c_in, width)
                for p in range(l_out):
                    direct = (x3[b, p:p + width].T * kern).sum() + bias[0, o]
                    assert abs(got[b, p, o] - direct) <= 1e-12


@pytest.mark.parametrize("width", [1, 3, 8])
def test_conv_and_pool_gradients(width):
    rng = np.random.default_rng(19)
    batch, c_in, length, c_out = 2, 2, 8, 3
    x = nk.parameter(rng.normal(size=(batch, c_in * length)))
    kernel = nk.parameter(rng.normal(size=(c_out, c_in * width)))
    bias = nk.parameter(rng.normal(size=(1, c_out)))
    w = rng.normal(size=(batch, c_out))

    def loss():
        y = nk.conv1d_bank(x, kernel, bias, c_in, length)
        pooled = nk.global_max_pool(y, c_out, length - width + 1)
        return nk.sum_all(nk.mul(pooled, nk.constant(w)))

    fd_check(loss, [x, kernel, bias])


def test_global_max_pool_tie_goes_to_first_position():
    channels, length = 2, 4
    x3 = np.array([[[1.0, 5.0], [3.0, 2.0], [3.0, 5.0], [0.0, 5.0]]])  # 1 x length x channels
    x = nk.parameter(x3.reshape(1, length * channels))
    with nk.Tape() as tape:
        pooled = nk.global_max_pool(x, channels, length)
        loss = nk.sum_all(nk.mul(pooled, nk.constant([[2.0, 7.0]])))
    tape.backward(loss)
    assert np.array_equal(pooled.data, [[3.0, 5.0]])
    want = np.zeros_like(x3)
    want[0, 1, 0] = 2.0     # channel 0: positions 1 and 2 tie
    want[0, 0, 1] = 7.0     # channel 1: positions 0, 2 and 3 tie
    assert np.array_equal(x.grad, want.reshape(1, -1))


def onehot_rows(index, n_classes):
    """Dense position-major one-hot rows of an index block; the value
    n_classes (empty) leaves its position all zero."""
    batch, length = index.shape
    dense = np.zeros((batch, length, n_classes + 1))
    np.put_along_axis(dense, index.astype(np.intp)[:, :, None], 1.0, axis=2)
    return dense[:, :, :n_classes].reshape(batch, length * n_classes)


def test_conv1d_onehot_matches_conv1d_bank_on_the_expansion():
    rng = np.random.default_rng(21)
    n_classes, length, c_out = 64, 9, 3
    index = np.full((5, length), n_classes, dtype=np.uint8)   # row 0: all empty
    index[1, [0, length - 1]] = 63                             # unknown class at both ends
    index[2, 0] = 7                                            # first position only
    index[3, length - 1] = 12                                  # last position only
    index[4] = rng.integers(0, n_classes + 1, size=length)
    for width in (1, 3, length):
        kernel = nk.parameter(rng.normal(size=(c_out, n_classes * width)))
        bias = nk.parameter(rng.normal(size=(1, c_out)))
        g = rng.normal(size=(5, c_out * (length - width + 1)))
        routes = []
        for conv in (lambda: nk.conv1d_onehot(index, kernel, bias, n_classes),
                     lambda: nk.conv1d_bank(nk.constant(onehot_rows(index, n_classes)),
                                            kernel, bias, n_classes, length)):
            kernel.zero_grad()
            bias.zero_grad()
            with nk.Tape() as tape:
                out = conv()
                loss = nk.sum_all(nk.mul(out, nk.constant(g)))
            tape.backward(loss)
            routes.append((out.data, kernel.grad, bias.grad))
        for got, want in zip(*routes):
            assert np.abs(got - want).max() <= 1e-12
        # an all-empty row is the bias at every position
        assert np.array_equal(routes[0][0][0], np.tile(bias.data[0], length - width + 1))
    with pytest.raises(ShapeError):
        nk.conv1d_onehot(index + 1, kernel, bias, n_classes)   # 65 is past empty
    with pytest.raises(ShapeError):
        nk.conv1d_onehot(index.astype(np.float64), kernel, bias, n_classes)
    with pytest.raises(ShapeError):
        nk.conv1d_onehot(index[:, :-1], kernel, bias, n_classes)  # kernel too wide


def test_conv1d_onehot_gradients():
    rng = np.random.default_rng(22)
    n_classes, length, c_out, width = 5, 10, 3, 4
    index = rng.integers(0, n_classes + 1, size=(3, length)).astype(np.uint8)
    kernel = nk.parameter(rng.normal(size=(c_out, n_classes * width)))
    bias = nk.parameter(rng.normal(size=(1, c_out)))
    w = rng.normal(size=(3, c_out * (length - width + 1)))

    def loss():
        y = nk.conv1d_onehot(index, kernel, bias, n_classes)
        return nk.sum_all(nk.mul(y, nk.constant(w)))

    fd_check(loss, [kernel, bias], rel_tol=1e-6)


def untiled_conv_route(x_flat, index, kernel, bias, batch, length, g, n_classes=None):
    """Oracle: the convolutions on whole rows, as before item tiles. Returns
    (output, dk, bias grad, dx) of conv1d_bank over x_flat, or of
    conv1d_onehot over `index` (dx None), for the output gradient g."""
    c_out = bias.shape[1]
    c_in = n_classes if index is not None else x_flat.shape[1]
    width = kernel.shape[1] // c_in
    n, l_out = batch * length, length - width + 1
    if index is None:
        taps = [np.ascontiguousarray(kernel[:, j::width]) for j in range(width)]

        def term(j, buf):
            return np.matmul(x_flat[j:], taps[j].T, out=buf)

        def offset_grad(j, g_rows):
            return g_rows.T @ x_flat[j:]
    else:
        flat = index.ravel().astype(np.intp)
        table = np.zeros((width, n_classes + 1, c_out))
        table[:, :n_classes] = kernel.reshape(c_out, n_classes, width).T

        def term(j, buf):
            return np.take(table[j], flat[j:], axis=0, out=buf, mode="clip")

        def offset_grad(j, g_rows):
            return nk.ops._scatter_rows(flat[j:], None, None, n_classes + 1,
                                        g_rows)[:n_classes].T
    y, buf = np.empty((n, c_out)), np.empty((n, c_out))
    term(0, y)
    for j in range(1, width):
        y[:-j] += term(j, buf[:-j])
    out = (y.reshape(batch, length, c_out)[:, :l_out] + bias).reshape(batch, -1)
    g_flat = np.pad(g.reshape(batch, l_out, c_out),
                    ((0, 0), (0, width - 1), (0, 0))).reshape(n, c_out)
    dk = np.stack([offset_grad(j, g_flat[:n - j]) for j in range(width)], axis=2)
    d_bias = g.reshape(-1, c_out).sum(axis=0, keepdims=True)
    dx = None
    if index is None:
        dx = g_flat @ taps[0]
        for j in range(1, width):
            dx[j:] += g_flat[:-j] @ taps[j]
    return out, dk.reshape(kernel.shape), d_bias, dx


@pytest.mark.parametrize("batch, length, width", [
    (37, 10, 3),     # seven tiles of 5 or 6 items
    (5, 100, 7),     # items longer than a tile: tiles of 2 and 3 items
    (9, 10, 10),     # width = length: one output position per item
    (5, 100, 100),   # both: no offset term may be a one-row product
], ids=["several-tiles", "long-item", "full-width", "long-full-width"])
def test_conv_item_tiles_match_the_untiled_route_bit_for_bit(batch, length, width,
                                                              monkeypatch):
    monkeypatch.setattr(nk.ops, "CONV_TILE", 64)
    rng = np.random.default_rng(31)
    c_in, c_out, n_classes = 16, 4, 6
    g = rng.normal(size=(batch, c_out * (length - width + 1)))
    x_flat = rng.normal(size=(batch * length, c_in))
    index = rng.integers(0, n_classes + 1, size=(batch, length)).astype(np.uint8)
    for onehot in (False, True):
        x = nk.parameter(x_flat.reshape(batch, -1).copy())
        kernel = nk.parameter(rng.normal(size=(c_out, (n_classes if onehot else c_in)
                                               * width)))
        bias = nk.parameter(rng.normal(size=(1, c_out)))
        with nk.Tape() as tape:
            out = (nk.conv1d_onehot(index, kernel, bias, n_classes) if onehot
                   else nk.conv1d_bank(x, kernel, bias, c_in, length))
            loss = nk.sum_all(nk.mul(out, nk.constant(g)))
        tape.backward(loss)
        want = untiled_conv_route(None if onehot else x_flat, index if onehot else None,
                                  kernel.data, bias.data, batch, length, g,
                                  n_classes if onehot else None)
        got = (out.data, kernel.grad, bias.grad,
               None if onehot else x.grad.reshape(x_flat.shape))
        for name, a, b in zip(("output", "dk", "bias grad", "dx"), got, want):
            assert (a is None and b is None) or same_bits(a, b), (onehot, name)


def test_backward_reverse_order_and_reuse():
    # a reused tensor receives contributions from both consumers
    x = nk.parameter([[2.0]])
    with nk.Tape() as tape:
        y = nk.mul(x, x)            # x^2
        z = nk.add(y, x)            # x^2 + x
        loss = nk.sum_all(z)
    tape.backward(loss)
    assert x.grad[0, 0] == pytest.approx(5.0)  # 2x + 1 at x=2


def test_backward_releases_the_tape_and_runs_once():
    x = nk.parameter([[2.0]])
    with nk.Tape() as tape:
        y = nk.mul(x, x)
        loss = nk.sum_all(nk.add(y, x))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 3          # still the number of recorded ops
    assert y.grad is None and loss.grad is None
    with pytest.raises(RuntimeError, match="already run backward"):
        tape.backward(loss)
    assert x.grad[0, 0] == 5.0     # not accumulated a second time


def test_adam_zero_gradient_keeps_params():
    p = nk.parameter([[1.0, -2.0]])
    p.grad = np.zeros_like(p.data)
    state = nk.OptimizerState(lr=0.1)
    nk.adam_step({"p": p}, state)
    assert np.array_equal(p.data, [[1.0, -2.0]])
    assert state.step == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_non_finite_gradient_before_any_update(bad):
    first, second = nk.parameter([[1.0, -2.0]]), nk.parameter([[3.0, 4.0]])
    first.grad = np.array([[0.5, 0.5]])
    second.grad = np.array([[0.1, bad]])
    state = nk.OptimizerState(lr=0.1)
    with pytest.raises(NumericError, match="'second'"):
        nk.adam_step({"first": first, "second": second}, state)
    assert state.step == 0 and not state.m and not state.v
    assert np.array_equal(first.data, [[1.0, -2.0]])
    assert np.array_equal(second.data, [[3.0, 4.0]])


def test_adam_rejects_a_misshapen_gradient_before_any_update():
    first, second = nk.parameter([[1.0, -2.0]]), nk.parameter([[3.0, 4.0]])
    first.grad, second.grad = np.array([[0.5, 0.5]]), np.array([[0.1], [0.2]])
    state = nk.OptimizerState(lr=0.1)
    with pytest.raises(ShapeError, match="second"):
        nk.adam_step({"first": first, "second": second}, state)
    assert state.step == 0 and not state.m and not state.v
    assert np.array_equal(first.data, [[1.0, -2.0]])


def test_adam_minimizes_quadratic():
    p = nk.parameter([[3.0]])
    state = nk.OptimizerState(lr=0.1)
    for _ in range(500):
        p.zero_grad()
        with nk.Tape() as tape:
            loss = nk.mul(p, p)
        tape.backward(loss)
        nk.adam_step({"p": p}, state)
    assert abs(p.data[0, 0]) < 1e-2


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(23)
        p = nk.parameter(rng.normal(size=(3, 3)))
        state = nk.OptimizerState(lr=0.05)
        for _ in range(20):
            p.zero_grad()
            with nk.Tape() as tape:
                loss = nk.sum_all(nk.mul(p, p))
            tape.backward(loss)
            nk.adam_step({"p": p}, state)
        return p.data

    assert np.array_equal(run(), run())


def test_adam_rejects_bad_lr():
    with pytest.raises(ParameterError):
        nk.OptimizerState(lr=0.0)


def test_rectified_adam_early_steps_skip_variance_term():
    p = nk.parameter([[1.0]])
    p.grad = np.array([[1.0]])
    state = nk.OptimizerState(lr=0.1, rectified=True)
    nk.adam_step({"p": p}, state)
    # first step: rho_t <= 4, update is lr * m_hat = 0.1 * 1.0
    assert p.data[0, 0] == pytest.approx(0.9)


def unfused_adam_step(params, state):
    """Oracle: the whole-array update, one full-size temporary per term."""
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    if state.rectified:
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * (b2 ** t) / bc2
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
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
                p.data -= state.lr * r * m_hat / (np.sqrt(v / bc2) + EPS)
            else:
                p.data -= state.lr * m_hat
        else:
            p.data -= state.lr * m_hat / (np.sqrt(v / bc2) + EPS)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rectified", [False, True])
def test_chunked_adam_matches_the_unfused_update(rectified):
    # below, equal to and not a multiple of the chunk; "idle" has no gradient
    # on odd steps, and its moments start as -0.0, so the shared zero chunk
    # meets signed zeros and then non-zero moments
    shapes = {"small": (3, 5), "chunk": (1, ADAM_CHUNK),
              "ragged": (5, 2 * ADAM_CHUNK // 5 + 7), "idle": (7, 9)}

    def start():
        params = {name: nk.parameter(np.random.default_rng(5).normal(size=s))
                  for name, s in shapes.items()}
        state = nk.OptimizerState(lr=0.01, rectified=rectified)
        state.m["idle"], state.v["idle"] = (np.full(shapes["idle"], -0.0)
                                            for _ in "mv")
        return params, state

    (fused, fused_state), (oracle, oracle_state) = start(), start()
    grads = np.random.default_rng(9)
    for step in range(1, 11):
        for name in shapes:
            g = grads.normal(scale=10.0 ** grads.integers(-6, 3), size=shapes[name])
            g[0, :2] = 0.0, -0.0
            fused[name].grad = oracle[name].grad = (
                None if name == "idle" and step % 2 else g)
        nk.adam_step(fused, fused_state)
        unfused_adam_step(oracle, oracle_state)
        for name in shapes:
            assert same_bits(fused[name].data, oracle[name].data), (step, name)
            assert same_bits(fused_state.m[name], oracle_state.m[name]), (step, name)
            assert same_bits(fused_state.v[name], oracle_state.v[name]), (step, name)
        if step == 1:   # adding the zero chunk turned -0.0 into +0.0
            assert not np.signbit(fused_state.m["idle"]).any()
    if rectified:   # the run takes both branches: rho_t passes 4 within it
        b2 = BETA2
        rho = [2 / (1 - b2) - 1 - 2 * t * b2 ** t / (1 - b2 ** t) for t in (1, 10)]
        assert rho[0] <= 4.0 < rho[1]


def test_adam_accepts_a_finite_gradient_whose_squares_overflow():
    # g . g of 1e200 entries is inf, so the check falls through to the exact
    # scan, which finds every entry finite; the update itself is unchanged
    def start():
        p = nk.parameter(np.random.default_rng(3).normal(size=(4, 6)))
        p.grad = np.full((4, 6), 1e200)
        p.grad[0, 0] = -1e200
        return {"p": p}, nk.OptimizerState(lr=0.01)

    (fused, fused_state), (oracle, oracle_state) = start(), start()
    with np.errstate(over="ignore"):      # g * g overflows in both updates
        nk.adam_step(fused, fused_state)
        unfused_adam_step(oracle, oracle_state)
    assert fused_state.step == 1
    assert same_bits(fused["p"].data, oracle["p"].data)
    assert same_bits(fused_state.m["p"], oracle_state.m["p"])
    assert same_bits(fused_state.v["p"], oracle_state.v["p"])


def test_adam_updates_parameters_and_gradients_of_any_layout():
    rng = np.random.default_rng(13)
    data, grad = rng.normal(size=(2, 3, 4))
    c_order = {"p": nk.parameter(data)}
    f_order = {"p": nk.parameter(np.asfortranarray(data))}
    assert not f_order["p"].data.flags.c_contiguous
    c_order["p"].grad, f_order["p"].grad = grad, np.asfortranarray(grad)
    for params in (c_order, f_order):
        nk.adam_step(params, nk.OptimizerState(lr=0.1))
    assert not np.array_equal(c_order["p"].data, data)
    assert same_bits(c_order["p"].data, np.ascontiguousarray(f_order["p"].data))


def test_adam_step_allocates_no_full_size_temporaries():
    params = {"with": nk.parameter(np.ones((400, 1000))),
              "without": nk.parameter(np.ones((400, 1000)))}
    params["with"].grad = np.full((400, 1000), 0.5)
    state = nk.OptimizerState(lr=0.1)
    nk.adam_step(params, state)          # allocates the moments
    tracemalloc.start()
    try:
        nk.adam_step(params, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each parameter is 3.2 MB; the two scratch chunks take 0.5 MB
    assert peak < 1_000_000, f"adam_step peaked at {peak / 1e6:.2f} MB"


def test_accumulate_rejects_a_gradient_of_another_shape():
    t = nk.Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 3\)"):
        t.accumulate(np.ones((1, 3)))
    t.accumulate(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 3\)"):
        t.accumulate(np.ones((1, 3)))      # would broadcast into the buffer
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_accumulate_copies_a_gradient_unless_it_is_fresh():
    g = np.ones((2, 2))
    copied, adopted = (nk.Tensor(np.zeros((2, 2)), requires_grad=True) for _ in "ab")
    copied.accumulate(g)
    adopted.accumulate(g, fresh=True)
    assert not np.shares_memory(copied.grad, g) and adopted.grad is g


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(29)
    tensors = {
        "layer.weight": rng.normal(size=(3, 4)),
        "layer.bias": rng.normal(size=(1, 4)),
        "unicode.名前": rng.normal(size=(2, 2)),
    }
    meta = {"lr": 2e-5, "seed": 7, "note": "round trip"}
    path = tmp_path / "model.ckpt"
    nk.save_checkpoint(path, tensors, meta)
    loaded, loaded_meta = nk.load_checkpoint(path)
    assert loaded_meta == meta
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].tobytes() == np.ascontiguousarray(tensors[name]).tobytes()
    # saving the loaded copy reproduces the file byte for byte
    path2 = tmp_path / "model2.ckpt"
    nk.save_checkpoint(path2, loaded, loaded_meta)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    from hmgrl.errors import DataError

    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        nk.load_checkpoint(p)
