import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.errors import NumericError, ParameterError, ShapeError
from hmgrl.oracle import finite_difference_grad


def fd_check(build_loss, params, rel_tol=1e-4, h=1e-5):
    """Analytic grads of build_loss() vs central differences, all coords."""
    for p in params:
        p.zero_grad()
    with nk.Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    for p in params:
        analytic = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)

        def scalar():
            with nk.no_grad():
                return build_loss().item()

        fd = finite_difference_grad(scalar, p.data, h=h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-7)
        assert (np.abs(fd - analytic) / denom).max() <= rel_tol


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


@pytest.mark.parametrize("k", [2, 63, 64, 65, 200])
def test_softmax_gram_matmul_matches_dense_formula(k):
    # 63/64/65 sit at the tile edge; 200 ends in a ragged tile of 8 rows
    rng = np.random.default_rng(k)
    p = rng.normal(size=(k, 5))
    b = rng.normal(size=(k, 3))
    dense = dense_softmax_gram_matmul(p, b).data
    tiled = nk.softmax_gram_matmul(p, b).data
    assert np.abs(tiled - dense).max() <= 1e-12 * np.abs(dense).max()
    with nk.Tape():   # the route that keeps A for a backward
        kept = nk.softmax_gram_matmul(nk.parameter(p), b).data
    assert np.abs(kept - dense).max() <= 1e-12 * np.abs(dense).max()


def test_softmax_gram_matmul_gradients():
    rng = np.random.default_rng(2)
    p = nk.parameter(rng.normal(size=(70, 3)))   # two tiles, the second ragged
    b = nk.parameter(rng.normal(size=(70, 4)))
    w = rng.normal(size=(70, 4))

    def loss():
        return nk.sum_all(nk.mul(nk.softmax_gram_matmul(p, b), nk.constant(w)))

    fd_check(loss, [p, b])


def test_relu():
    out = nk.relu(nk.constant([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_dropout_rate_zero_is_identity():
    x = nk.constant([[1.0, -2.0, 3.0]])
    rng = np.random.default_rng(0)
    assert nk.dropout(x, 0.0, rng, training=True) is x
    assert nk.dropout(x, 0.5, rng, training=False) is x


def test_dropout_rescales_survivors():
    rng = np.random.default_rng(3)
    x = nk.constant(np.ones((200, 50)))
    out = nk.dropout(x, 0.25, rng, training=True)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.75, 12)}


def test_dropout_rate_validation():
    with pytest.raises(ParameterError):
        nk.dropout(nk.constant([[1.0]]), 1.0, np.random.default_rng(0), True)


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

    def loss():
        cat = nk.concat_cols([a, b])
        return nk.sum_all(nk.mul(nk.slice_cols(cat, 1, 6), nk.constant(w[:, 1:])))

    fd_check(loss, [a, b])


def test_concat_rows_stacks_in_order_and_splits_gradient():
    rng = np.random.default_rng(10)
    a = nk.parameter(rng.normal(size=(2, 3)))
    b = nk.parameter(rng.normal(size=(4, 3)))
    w = rng.normal(size=(6, 3))
    assert np.array_equal(nk.concat_rows([a, b]).data, np.vstack([a.data, b.data]))

    def loss():
        return nk.sum_all(nk.mul(nk.concat_rows([a, b]), nk.constant(w)))

    fd_check(loss, [a, b])
    with pytest.raises(ShapeError):
        nk.concat_rows([a, nk.constant(np.ones((1, 2)))])


def test_gather_rows_gradient_accumulates_duplicates():
    x = nk.parameter([[1.0, 2.0], [3.0, 4.0]])
    with nk.Tape() as tape:
        out = nk.gather_rows(x, [0, 0, 1])
        loss = nk.sum_all(out)
    tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_spmm_matches_dense_product_and_finite_differences():
    rng = np.random.default_rng(12)
    rows = np.array([0, 4, 4, 2, 0, 4])       # row 1 and row 3 stay empty
    cols = np.array([1, 0, 2, 2, 1, 1])       # (0, 1) appears twice and adds up
    vals = rng.normal(size=6)
    dense = np.zeros((5, 3))
    np.add.at(dense, (rows, cols), vals)
    a = nk.parameter(rng.normal(size=(3, 4)))
    out = nk.spmm(rows, cols, vals, 5, a)
    assert np.allclose(out.data, dense @ a.data, atol=1e-15)
    w = rng.normal(size=(5, 4))
    fd_check(lambda: nk.sum_all(nk.mul(nk.spmm(rows, cols, vals, 5, a),
                                       nk.constant(w))), [a], rel_tol=1e-6)
    empty = nk.spmm(np.array([], int), np.array([], int), np.array([]), 5, a)
    assert np.array_equal(empty.data, np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        nk.spmm(rows, cols, vals, 4, a)
    with pytest.raises(ShapeError):
        nk.spmm(rows, cols + 1, vals, 5, a)
    with pytest.raises(ShapeError):
        nk.spmm(rows, cols, vals[:5], 5, a)


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


def test_div_frobenius_layernorm_gradients():
    rng = np.random.default_rng(11)
    x = nk.parameter(rng.normal(size=(4, 3)) + 2.0)
    w = rng.normal(size=(4, 3))

    def loss():
        normed = nk.div(x, nk.frobenius_norm(x))
        return nk.sum_all(nk.mul(nk.layer_norm_rows(normed), nk.constant(w)))

    fd_check(loss, [x], rel_tol=2e-4)


def test_block_matmul_scores_and_apply_gradients():
    rng = np.random.default_rng(13)
    block = 3
    q = nk.parameter(rng.normal(size=(6, 4)))
    k = nk.parameter(rng.normal(size=(6, 4)))
    v = nk.parameter(rng.normal(size=(6, 4)))
    w = rng.normal(size=(6, 4))

    def loss():
        scores = nk.block_matmul(q, k, block, transpose_b=True)
        attn = nk.softmax_rows(scores)
        out = nk.block_matmul(attn, v, block)
        return nk.sum_all(nk.mul(out, nk.constant(w)))

    fd_check(loss, [q, k, v])


def test_block_matmul_groups_do_not_mix():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 2))
    scores = nk.block_matmul(nk.constant(a), nk.constant(a), 2, transpose_b=True)
    expect_top = a[:2] @ a[:2].T
    expect_bot = a[2:] @ a[2:].T
    assert np.allclose(scores.data[:2], expect_top)
    assert np.allclose(scores.data[2:], expect_bot)


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


def test_backward_reverse_order_and_reuse():
    # a reused tensor receives contributions from both consumers
    x = nk.parameter([[2.0]])
    with nk.Tape() as tape:
        y = nk.mul(x, x)            # x^2
        z = nk.add(y, x)            # x^2 + x
        loss = nk.sum_all(z)
    tape.backward(loss)
    assert x.grad[0, 0] == pytest.approx(5.0)  # 2x + 1 at x=2


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
