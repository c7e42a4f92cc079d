import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.errors import BatchSizeError
from hmgrl.mvdsc import (
    VIEW_ORDER,
    DscView,
    dsc_adjacency,
    dsc_output,
    graph_cut_assign,
    loss_graph_cut,
    loss_orthogonality,
    mvdsc_forward,
)
from tests.test_numkit import fd_check


def test_adjacency_rows_sum_to_one():
    rng = np.random.default_rng(0)
    source = nk.constant(rng.normal(size=(5, 4)))
    heads = [nk.constant(rng.normal(size=(4, 3))) for _ in range(2)]
    for w in heads:
        a = dsc_adjacency(source, w)
        assert np.abs(a.data.sum(axis=1) - 1.0).max() <= 1e-12
        assert a.data.min() >= 0.0


def test_adjacency_identical_rows_match():
    rng = np.random.default_rng(1)
    src = rng.normal(size=(4, 3))
    src[2] = src[0]  # two identical pairs
    a = dsc_adjacency(nk.constant(src), nk.constant(rng.normal(size=(3, 2))))
    assert np.allclose(a.data[0], a.data[2], atol=1e-12)


def test_adjacency_matches_direct_evaluation():
    t = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    w = np.array([[0.5, -1.0], [1.0, 0.25], [-0.5, 0.75]])
    a = dsc_adjacency(nk.constant(t), nk.constant(w))
    proj = t @ w
    gram = proj @ proj.T
    e = np.exp(gram - gram.max(axis=1, keepdims=True))
    assert np.allclose(a.data, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_adjacency_batch_size_error():
    with pytest.raises(BatchSizeError):
        dsc_adjacency(nk.constant(np.ones((1, 3))), nk.constant(np.ones((3, 2))))


def test_graph_cut_assign_zero_weight_and_nonnegative():
    rng = np.random.default_rng(2)
    a = nk.constant(np.full((3, 3), 1 / 3))
    h = nk.constant(rng.normal(size=(3, 4)))
    zero = nk.constant(np.zeros((4, 2)))
    assert np.array_equal(graph_cut_assign(a, h, zero).data, np.zeros((3, 2)))
    w = nk.constant(rng.normal(size=(4, 2)))
    assert graph_cut_assign(a, h, w).data.min() >= 0.0


def test_graph_cut_assign_near_identity_adjacency():
    rng = np.random.default_rng(3)
    eps = 1e-9
    a_near = np.full((3, 3), eps / 2)
    np.fill_diagonal(a_near, 1.0 - eps)
    h = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    out = graph_cut_assign(nk.constant(a_near), nk.constant(h), nk.constant(w))
    assert np.allclose(out.data, np.maximum(h @ w, 0.0), atol=1e-6)


def test_graph_cut_assign_matches_unassociated_product():
    rng = np.random.default_rng(13)
    for k, d, c in [(2, 3, 1), (2, 7, 4), (5, 4, 2), (17, 9, 3), (40, 12, 6)]:
        logits = rng.normal(size=(k, k))
        a = np.exp(logits - logits.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        h = rng.normal(size=(k, d))
        w = rng.normal(size=(d, c))
        out = graph_cut_assign(nk.constant(a), nk.constant(h), nk.constant(w)).data
        ref = np.maximum((a @ h) @ w, 0.0)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dsc_output_residual_identity_and_shape():
    rng = np.random.default_rng(4)
    h = nk.constant(np.abs(rng.normal(size=(3, 5))))
    assigns = [nk.constant(np.abs(rng.normal(size=(3, 2)))) for _ in range(2)]
    zero_mix = nk.constant(np.zeros((4, 5)))
    out = dsc_output(assigns, h, zero_mix)
    assert np.array_equal(out.data, h.data)
    mix = nk.constant(rng.normal(size=(4, 5)))
    assert dsc_output(assigns, h, mix).shape == (3, 5)


def test_dsc_output_gradient_wrt_mix():
    rng = np.random.default_rng(5)
    h = nk.constant(rng.normal(size=(4, 3)))
    assigns = [nk.constant(np.abs(rng.normal(size=(4, 2))))]
    mix = nk.parameter(rng.normal(size=(2, 3)))
    w = rng.normal(size=(4, 3))

    def loss():
        return nk.sum_all(nk.mul(dsc_output(assigns, h, mix), nk.constant(w)))

    fd_check(loss, [mix])


def block_stochastic_adjacency():
    a = np.zeros((4, 4))
    a[:2, :2] = 0.5
    a[2:, 2:] = 0.5
    return a


def test_graph_cut_loss_hits_minimum_minus_one():
    a = nk.constant(block_stochastic_adjacency())
    f = nk.constant(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]]))
    loss, skipped = loss_graph_cut([f], [a])
    assert skipped == 0
    assert loss.item() == pytest.approx(-1.0, abs=1e-9)


def test_graph_cut_loss_hits_maximum_zero():
    # bipartite adjacency, orthogonal assignments across every edge
    a = nk.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = nk.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss, _ = loss_graph_cut([f], [a])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_graph_cut_loss_matches_direct_trace_formula():
    rng = np.random.default_rng(6)
    k, c, m = 5, 2, 3
    adjacencies, assignments, direct = [], [], 0.0
    for _ in range(m):
        logits = rng.normal(size=(k, k))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        f = np.abs(rng.normal(size=(k, c)))
        adjacencies.append(nk.constant(a))
        assignments.append(nk.constant(f))
        direct += np.trace(f.T @ a @ f) / np.trace(f.T @ f)
    loss, _ = loss_graph_cut(assignments, adjacencies)
    assert loss.item() == pytest.approx(-direct / m, abs=1e-12)


def test_graph_cut_loss_skips_degenerate_heads():
    a = nk.constant(block_stochastic_adjacency())
    good = nk.constant(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]]))
    dead = nk.constant(np.zeros((4, 2)))
    loss, skipped = loss_graph_cut([good, dead], [a, a])
    assert skipped == 1
    assert loss.item() == pytest.approx(-0.5, abs=1e-9)  # one live head over M=2
    loss_all_dead, skipped_all = loss_graph_cut([dead], [a])
    assert skipped_all == 1 and loss_all_dead.item() == 0.0


def test_orthogonality_loss_zero_on_orthogonal_equal_norm_columns():
    f = nk.constant(np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    loss, _ = loss_orthogonality([f])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_orthogonality_loss_hand_value():
    f = nk.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
    loss, _ = loss_orthogonality([f])
    expected = np.linalg.norm(np.array([[1.0, 0.0], [0.0, 0.0]]) - np.eye(2) / np.sqrt(2))
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.7654, abs=1e-4)


def test_orthogonality_loss_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = nk.constant(np.abs(rng.normal(size=(4, 3))))
        loss, _ = loss_orthogonality([f])
        assert loss.item() >= 0.0


def symmetric_stochastic_adjacency(rng, k):
    """Random symmetric row-stochastic matrix: a convex mixture of
    symmetrized permutations. In this regime the stated [-1, 0] bound is a
    theorem (spectral radius of the adjacency is exactly 1)."""
    weights = rng.dirichlet(np.ones(4))
    a = np.zeros((k, k))
    for w in weights:
        p = np.eye(k)[rng.permutation(k)]
        a += w * (p + p.T) / 2.0
    return a


def test_graph_cut_bounds_symmetric_stochastic_200_trials():
    rng = np.random.default_rng(8)
    for trial in range(200):
        k = int(rng.integers(2, 9))
        c = int(rng.integers(1, min(k, 4) + 1))
        a = nk.constant(symmetric_stochastic_adjacency(rng, k))
        f = nk.relu(nk.constant(rng.normal(size=(k, c))))
        loss, skipped = loss_graph_cut([f], [a])
        if skipped:
            assert loss.item() == 0.0
            continue
        assert -1.0 - 1e-9 <= loss.item() <= 1e-9, f"trial {trial}"
        l_or, _ = loss_orthogonality([f])
        assert l_or.item() >= 0.0


def test_graph_cut_upper_bound_on_model_construction():
    # softmax-of-Gram adjacencies: the <= 0 half is a theorem for any
    # nonnegative adjacency and nonnegative assignments
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        c = int(rng.integers(1, min(k, 4) + 1))
        d_src, d_feat = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        source = nk.constant(rng.normal(scale=rng.uniform(0.3, 3.0), size=(k, d_src)))
        h = nk.constant(rng.normal(size=(k, d_feat)))
        adj = dsc_adjacency(source, nk.constant(rng.normal(size=(d_src, 3))))
        f = graph_cut_assign(adj, h, nk.constant(rng.normal(size=(d_feat, c))))
        loss, skipped = loss_graph_cut([f], [adj])
        assert np.isfinite(loss.item())
        assert loss.item() <= 1e-9


def test_graph_cut_asymmetric_adjacency_can_undershoot_minus_one():
    # documented caveat: row-softmax adjacencies are not symmetric, and the
    # -1 floor is not a theorem for them. Both rows mass on column 0 plus an
    # aligned assignment push the ratio above 1.
    a = nk.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
    f = nk.constant(np.array([[1.0], [0.5]]))
    loss, _ = loss_graph_cut([f], [a])
    assert loss.item() < -1.0 - 1e-9


def make_views(rng, feat_dim, seq_dims, c=2, m=2, proj=3):
    views = {}
    for kind in VIEW_ORDER:
        src_dim = feat_dim if kind == "comprehensive" else seq_dims[kind]
        views[kind] = DscView.build(rng, f"dsc.{kind}", kind, src_dim, feat_dim,
                                    n_clusters=c, n_heads=m, proj_dim=proj)
    return views


def make_sources(rng, k, seq_dims):
    return {kind: rng.integers(0, 3, size=(k, dim)).astype(float)
            for kind, dim in seq_dims.items()}


def test_mvdsc_forward_shape_and_regularizer_arithmetic():
    rng = np.random.default_rng(9)
    k, feat_dim = 5, 6
    seq_dims = {"targets": 4, "enzymes": 5, "substructures": 7}
    views = make_views(rng, feat_dim, seq_dims)
    sources = make_sources(rng, k, seq_dims)
    h = nk.constant(rng.normal(size=(k, feat_dim)))
    result = mvdsc_forward(h, sources, views)
    assert result.representation.shape == (k, 4 * feat_dim)
    recomputed = np.mean([result.diagnostics[kind]["graph_cut"]
                          + result.diagnostics[kind]["orthogonality"]
                          for kind in VIEW_ORDER])
    assert result.regularizer.item() == pytest.approx(recomputed, abs=1e-12)


def test_mvdsc_per_view_extremes_aggregate_to_minus_one():
    # four views each at (graph cut -1, orthogonality 0) average to -1
    a = nk.constant(block_stochastic_adjacency())
    f = nk.constant(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]]))
    per_view = []
    for _ in range(4):
        gc, _ = loss_graph_cut([f], [a])
        orto, _ = loss_orthogonality([f])
        per_view.append(gc.item() + orto.item())
    assert np.mean(per_view) == pytest.approx(-1.0, abs=1e-9)


def test_mvdsc_view_locality():
    rng = np.random.default_rng(10)
    k, feat_dim = 4, 5
    seq_dims = {"targets": 3, "enzymes": 4, "substructures": 6}
    views = make_views(rng, feat_dim, seq_dims)
    sources = make_sources(rng, k, seq_dims)
    h = nk.constant(rng.normal(size=(k, feat_dim)))
    before = mvdsc_forward(h, sources, views).representation.data.copy()
    views["targets"].params["dsc.targets.mix"].data += 0.5
    after = mvdsc_forward(h, sources, views).representation.data
    assert np.array_equal(before[:, :feat_dim], after[:, :feat_dim])
    assert not np.array_equal(before[:, feat_dim:2 * feat_dim],
                              after[:, feat_dim:2 * feat_dim])
    assert np.array_equal(before[:, 2 * feat_dim:], after[:, 2 * feat_dim:])


def test_mvdsc_end_to_end_gradients():
    rng = np.random.default_rng(11)
    k, feat_dim = 4, 5
    seq_dims = {"targets": 3, "enzymes": 4, "substructures": 6}
    views = make_views(rng, feat_dim, seq_dims, c=2, m=1, proj=2)
    sources = make_sources(rng, k, seq_dims)
    h_base = rng.normal(size=(k, feat_dim))
    w = rng.normal(size=(k, 4 * feat_dim))
    params = {}
    for v in views.values():
        params.update(v.params)

    def loss():
        result = mvdsc_forward(nk.constant(h_base), sources, views)
        fit = nk.sum_all(nk.mul(result.representation, nk.constant(w)))
        return nk.add(fit, result.regularizer)

    fd_check(loss, list(params.values()), rel_tol=2e-4)


def test_unregularized_views_match_the_kept_adjacency_route():
    # regularize=False runs each head through the tiled softmax_gram_matmul;
    # regularize=True builds and keeps every K x K adjacency. K = 200 spans
    # four tiles, the last one ragged.
    rng = np.random.default_rng(12)
    k, feat_dim = 200, 6
    seq_dims = {"targets": 4, "enzymes": 5, "substructures": 7}
    views = make_views(rng, feat_dim, seq_dims, c=3, m=2, proj=4)
    sources = make_sources(rng, k, seq_dims)
    h = nk.constant(rng.normal(size=(k, feat_dim)))
    tiled = mvdsc_forward(h, sources, views, regularize=False)
    dense = mvdsc_forward(h, sources, views, regularize=True)
    assert tiled.regularizer is None and tiled.diagnostics == {}
    scale = np.abs(dense.representation.data).max()
    assert np.abs(tiled.representation.data
                  - dense.representation.data).max() <= 1e-12 * scale
    one_pair = {kind: m[:1] for kind, m in sources.items()}
    with pytest.raises(BatchSizeError):
        mvdsc_forward(nk.constant(h.data[:1]), one_pair, views, regularize=False)
