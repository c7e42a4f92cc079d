import functools

import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.config import apply_preset
from hmgrl.errors import DataError, ValidationError
from hmgrl.featurize import DESCRIPTOR_KINDS, DrugTable
from hmgrl.graphcore import (
    DDSGraph,
    RelGraph,
    dds_propagate,
    fuse_ragse,
    normalize_adjacency,
    read_ddi_file,
    rgcn_forward,
    write_ddi_file,
)
from hmgrl.model import HmgrlModel
from tests.test_numkit import fd_check


def test_normalize_unit_degrees():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalize_adjacency(a), a)


def test_normalize_hand_value():
    out = normalize_adjacency(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])


def test_normalize_zero_matrix():
    assert np.array_equal(normalize_adjacency(np.zeros((3, 3))), np.zeros((3, 3)))


def test_normalize_rejects_asymmetric():
    with pytest.raises(ValidationError):
        normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_normalized_symmetric_spectral_radius_at_most_one():
    # power-iteration oracle on small random graphs
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 2, size=(8, 8)).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        n = normalize_adjacency(a)
        assert np.allclose(n, n.T, atol=1e-12)
        v = rng.normal(size=8)
        for _ in range(200):
            w = n @ v
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                break
            v = w / norm
        radius = abs(v @ n @ v) / (v @ v)
        assert radius <= 1.0 + 1e-9


def path_triples(n=3):
    return [(i, i + 1, 0) for i in range(n - 1)]


def dense_normalized(n, n_rel, triples):
    """Dense route: the 0/1 stack of every relation, each normalized with
    normalize_adjacency, and R_v; independent of RelGraph's edge lists."""
    a = np.zeros((n_rel, n, n))
    for u, v, r in triples:
        a[r, u, v] = a[r, v, u] = 1.0
    normalized = np.stack([normalize_adjacency(a[r]) for r in range(n_rel)])
    counts = (a.sum(axis=2) > 0).sum(axis=0).astype(float)
    return a, normalized, counts


def brute_force_rgcn(n, n_rel, triples, x, rel_ws, self_w):
    """Direct per-node evaluation of the aggregation rule (test oracle)."""
    a, normalized, counts = dense_normalized(n, n_rel, triples)
    d_out = self_w.shape[1]
    out = np.zeros((n, d_out))
    for v in range(n):
        acc = x[v] @ self_w
        for r in range(n_rel):
            for u in range(n):
                if a[r, u, v]:
                    acc = acc + normalized[r][u, v] / counts[v] * (x[u] @ rel_ws[r])
        out[v] = np.maximum(acc, 0.0)
    return out


def test_rgcn_empty_graph_is_self_term_only():
    graph = RelGraph.from_triples(3, 2, [])
    x = np.array([[1.0, -1.0], [2.0, 0.5], [-3.0, 1.0]])
    w_self = np.array([[1.0, 0.0], [0.0, 1.0]])
    rel = [nk.constant(np.eye(2)) for _ in range(2)]
    out = rgcn_forward(graph, nk.constant(x), rel, nk.constant(w_self))
    assert np.allclose(out.data, np.maximum(x, 0.0))


def test_rgcn_path_graph_matches_brute_force():
    tri = path_triples(3)
    graph = RelGraph.from_triples(3, 1, tri)
    x = np.eye(3)
    w = np.eye(3)
    out = rgcn_forward(graph, nk.constant(x), [nk.constant(w)], nk.constant(w))
    assert np.allclose(out.data, brute_force_rgcn(3, 1, tri, x, [w], w), atol=1e-12)


def test_rgcn_random_matches_brute_force():
    rng = np.random.default_rng(7)
    n, r, d, dp = 6, 3, 4, 5
    tri = [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 1), (4, 5, 2), (0, 5, 2), (1, 4, 0)]
    graph = RelGraph.from_triples(n, r, tri)
    x = rng.normal(size=(n, d))
    rel_ws = [rng.normal(size=(d, dp)) for _ in range(r)]
    self_w = rng.normal(size=(d, dp))
    out = rgcn_forward(graph, nk.constant(x), [nk.constant(w) for w in rel_ws],
                       nk.constant(self_w))
    expected = brute_force_rgcn(n, r, tri, x, rel_ws, self_w)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_rgcn_two_relation_node_divides_by_two():
    # node 0 participates in relations 0 and 1 -> aggregation halved
    tri = [(0, 1, 0), (0, 2, 1)]
    graph = RelGraph.from_triples(3, 2, tri)
    assert graph.relation_counts[0] == 2.0
    x = np.abs(np.random.default_rng(9).normal(size=(3, 2))) + 0.1
    w = np.eye(2)
    out = rgcn_forward(graph, nk.constant(x), [nk.constant(w), nk.constant(w)],
                       nk.constant(np.zeros((2, 2))))
    _, normalized, _ = dense_normalized(3, 2, tri)
    unnormalized = (normalized[0] + normalized[1]).T @ x
    assert np.allclose(out.data[0], np.maximum(unnormalized[0] / 2.0, 0.0), atol=1e-12)


def test_rgcn_random_graphs_match_brute_force_with_gradients():
    # relation 3 gets no edges, drug n-1 none at all; triples repeat and reverse
    rng = np.random.default_rng(31)
    n, n_rel, d, dp = 9, 4, 3, 2
    for _ in range(5):
        tri = [(int(u), int(v), int(r)) for u, v, r in
               zip(rng.integers(0, n - 1, 14), rng.integers(0, n - 1, 14),
                   rng.integers(0, n_rel - 1, 14)) if u != v]
        tri += [(v, u, r) for u, v, r in tri[:4]] + tri[:3]
        graph = RelGraph.from_triples(n, n_rel, tri)
        x = rng.normal(size=(n, d))   # a constant input, as in the model
        rel_ws = [nk.parameter(rng.normal(size=(d, dp))) for _ in range(n_rel)]
        self_w = nk.parameter(rng.normal(size=(d, dp)))
        out = rgcn_forward(graph, x, rel_ws, self_w)
        expected = brute_force_rgcn(n, n_rel, tri, x, [w.data for w in rel_ws],
                                    self_w.data)
        assert np.allclose(out.data, expected, atol=1e-12)
        weight = nk.constant(rng.normal(size=(n, dp)))
        fd_check(lambda: nk.sum_all(nk.mul(rgcn_forward(graph, x, rel_ws, self_w),
                                           weight)),
                 [self_w] + rel_ws)


def relation_edges(graph, r):
    """(active sources, dst, local, weights) of relation r's edges."""
    lo, hi = graph.edge_offsets[r], graph.edge_offsets[r + 1]
    sources = graph.sources[graph.source_offsets[r]:graph.source_offsets[r + 1]]
    return sources, graph.dst[lo:hi], graph.local[lo:hi], graph.weights[lo:hi]


def composed_rgcn(graph, x, rel_ws, self_w, target):
    """The route rgcn_forward used before nk.relation_sum, in numpy: per
    relation gather -> matmul -> scatter -> add, then the self term and relu;
    the weight gradients of sum(out * target) in that route's backward
    order."""
    total, kept = None, []
    for r in range(graph.n_relations):
        sources, dst, local, vals = relation_edges(graph, r)
        if dst.size == 0:
            continue
        gathered = x[sources]
        messages = gathered @ rel_ws[r]
        term = np.zeros((graph.n_drugs, messages.shape[1]))
        np.add.at(term, dst, vals[:, None] * messages[local])
        total = term if total is None else total + term
        kept.append((r, gathered, sources, dst, local, vals))
    pre = total + x @ self_w
    g = target * (pre > 0)
    grads = {"self": x.T @ g}
    for r, gathered, sources, dst, local, vals in reversed(kept):
        d_messages = np.zeros((sources.size, g.shape[1]))
        np.add.at(d_messages, local, vals[:, None] * g[dst])
        grads[r] = gathered.T @ d_messages
    return np.maximum(pre, 0.0), grads


def test_rgcn_matches_composed_route_bit_for_bit():
    # relation 4 gets no edges and drug 9 none at all
    rng = np.random.default_rng(41)
    n, n_rel, d, dp = 10, 5, 4, 3
    tri = [(int(u), int(v), int(r)) for u, v, r in
           zip(rng.integers(0, n - 1, 30), rng.integers(0, n - 1, 30),
               rng.integers(0, n_rel - 1, 30)) if u != v]
    graph = RelGraph.from_triples(n, n_rel, tri)
    assert relation_edges(graph, n_rel - 1)[1].size == 0
    assert graph.new_drug_mask()[n - 1]
    x = rng.normal(size=(n, d))
    rel_ws = [nk.parameter(rng.normal(size=(d, dp))) for _ in range(n_rel)]
    self_w = nk.parameter(rng.normal(size=(d, dp)))
    target = rng.normal(size=(n, dp))
    with nk.Tape() as tape:
        out = rgcn_forward(graph, x, rel_ws, self_w)
        loss = nk.sum_all(nk.mul(out, nk.constant(target)))
    tape.backward(loss)
    expected, grads = composed_rgcn(graph, x, [w.data for w in rel_ws],
                                    self_w.data, target)
    assert np.array_equal(out.data, expected)
    assert np.array_equal(self_w.grad, grads["self"])
    for r, w in enumerate(rel_ws):
        if r == n_rel - 1:
            assert w.grad is None
        else:
            assert np.array_equal(w.grad, grads[r])


def test_rgcn_records_as_many_ops_for_one_relation_as_for_twenty():
    rng = np.random.default_rng(43)
    n, d = 8, 3
    counts = []
    for n_rel in (1, 20):
        tri = [(i, (i + 1 + r % (n - 1)) % n, r) for r in range(n_rel)
               for i in range(0, n, 2)]
        graph = RelGraph.from_triples(n, n_rel, tri)
        rel_ws = [nk.parameter(rng.normal(size=(d, d))) for _ in range(n_rel)]
        with nk.Tape() as tape:
            rgcn_forward(graph, rng.normal(size=(n, d)), rel_ws,
                         nk.parameter(rng.normal(size=(d, d))))
        counts.append(len(tape))
    assert counts[0] == counts[1]


def test_relgraph_edges_match_dense_normalization():
    rng = np.random.default_rng(37)
    n, n_rel = 12, 5
    for _ in range(10):
        tri = [(int(u), int(v), int(r)) for u, v, r in
               zip(rng.integers(0, n - 1, 20), rng.integers(0, n - 1, 20),
                   rng.integers(0, n_rel - 1, 20)) if u != v]
        tri += [(v, u, r) for u, v, r in tri[::3]] + tri[:5]   # reversed, repeated
        graph = RelGraph.from_triples(n, n_rel, tri)
        a, normalized, counts = dense_normalized(n, n_rel, tri)
        assert np.array_equal(graph.relation_counts, counts)
        assert graph.new_drug_mask()[n - 1]
        # each undirected edge twice, once per direction
        assert len(graph.src) == int(a.sum())
        rebuilt = np.zeros_like(a)
        rebuilt[graph.rel, graph.dst, graph.src] = graph.weights
        expected = normalized / np.where(counts > 0, counts, 1.0)[None, :, None]
        assert np.allclose(rebuilt, expected, atol=1e-12)
        for r in range(n_rel):
            sources, dst, local, _ = relation_edges(graph, r)
            assert np.array_equal(sources, np.flatnonzero(a[r].any(axis=1)))
            assert np.array_equal(sources[local], graph.src[graph.rel == r])
            assert np.array_equal(dst, graph.dst[graph.rel == r])
        assert relation_edges(graph, n_rel - 1)[1].size == 0


def test_rgcn_permutation_equivariant():
    rng = np.random.default_rng(11)
    tri = [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1)]
    graph = RelGraph.from_triples(4, 2, tri)
    x = rng.normal(size=(4, 3))
    rel_ws = [rng.normal(size=(3, 3)) for _ in range(2)]
    self_w = rng.normal(size=(3, 3))
    out = rgcn_forward(graph, nk.constant(x), [nk.constant(w) for w in rel_ws],
                       nk.constant(self_w)).data

    perm = np.array([2, 0, 3, 1])
    tri_p = [(int(np.where(perm == u)[0][0]), int(np.where(perm == v)[0][0]), r)
             for u, v, r in tri]
    graph_p = RelGraph.from_triples(4, 2, tri_p)
    out_p = rgcn_forward(graph_p, nk.constant(x[perm]),
                         [nk.constant(w) for w in rel_ws], nk.constant(self_w)).data
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_relgraph_rejects_self_loops():
    with pytest.raises(ValidationError, match=r"\(1, 1, 0\)"):
        RelGraph.from_triples(3, 1, [(0, 2, 0), (1, 1, 0)])


def test_relgraph_rejects_out_of_range_indices():
    with pytest.raises(ValidationError, match=r"\(0, 2, 3\).*event type"):
        RelGraph.from_triples(3, 3, [(0, 1, 0), (0, 2, 3)])
    with pytest.raises(ValidationError, match=r"\(0, -1, 0\).*drug index"):
        RelGraph.from_triples(3, 3, [(0, -1, 0)])


def dds_from_sims(t, e, s):
    return DDSGraph({kind: np.asarray(m, float)
                     for kind, m in zip(DESCRIPTOR_KINDS, (t, e, s))})


def test_dds_graph_needs_one_similarity_per_kind_in_order():
    eye = np.eye(3)
    swapped = dict(zip(DESCRIPTOR_KINDS[::-1], (eye, eye, eye)))
    for sims in (swapped, dict(zip(DESCRIPTOR_KINDS[:2], (eye, eye))),
                 {**dict.fromkeys(DESCRIPTOR_KINDS, eye), "extra": eye}):
        with pytest.raises(ValidationError, match="keyed"):
            DDSGraph(sims)
    assert list(dds_from_sims(eye, eye, eye).normalized) == list(DESCRIPTOR_KINDS)


def test_dds_propagate_zero_hops_is_identity():
    rng = np.random.default_rng(13)
    dds = dds_from_sims(np.eye(3), np.eye(3), np.eye(3))
    x = rng.normal(size=(3, 4))
    out = dds_propagate(dds, nk.constant(x), 0)
    for ch in out:
        assert np.array_equal(ch.data, x)


def test_dds_propagate_identity_adjacency():
    rng = np.random.default_rng(15)
    sim = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
    dds = dds_from_sims(np.eye(3), sim, sim)
    x = rng.normal(size=(3, 2))
    out = dds_propagate(dds, nk.constant(x), 1)
    assert np.allclose(out[0].data, x)  # identity channel unchanged


def test_dds_propagate_two_hops_is_matrix_square():
    rng = np.random.default_rng(17)
    chain = np.array([[1.0, 0.8, 0.0], [0.8, 1.0, 0.8], [0.0, 0.8, 1.0]])
    dds = dds_from_sims(chain, chain, chain)
    x = rng.normal(size=(3, 4))
    out = dds_propagate(dds, nk.constant(x), 2)
    a_hat = dds.normalized["targets"]
    assert np.allclose(out[0].data, a_hat @ a_hat @ x, atol=1e-12)


def hop_chain(dds, x, hops):
    """Oracle: the channels as `hops` products with each A_hat in turn."""
    out = []
    for normalized in dds.normalized.values():
        cur = x
        for _ in range(hops):
            cur = nk.matmul(nk.constant(normalized), cur)
        out.append(cur)
    return out


def random_dds(rng, n):
    return DDSGraph.from_table(DrugTable(
        [f"d{i}" for i in range(n)], ["C"] * n,
        *(rng.integers(0, 2, size=(n, width)) for width in (9, 5, 14))))


@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_dds_propagate_by_cached_powers_matches_the_hop_chain(hops):
    rng = np.random.default_rng(25)
    n, d = 30, 6
    x_data, g = rng.normal(size=(n, d)), rng.normal(size=(3, n, d))
    routes = []
    for propagate in (dds_propagate, hop_chain):
        dds, x = random_dds(np.random.default_rng(26), n), nk.parameter(x_data)
        with nk.Tape() as tape:
            channels = propagate(dds, x, hops)
            loss = functools.reduce(nk.add, (nk.sum_all(nk.mul(ch, nk.constant(gk)))
                                             for ch, gk in zip(channels, g)))
        tape.backward(loss)
        routes.append([ch.data for ch in channels] + [x.grad])
    for got, want in zip(*routes):
        if hops <= 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_models_on_one_table_share_the_cached_power():
    rng = np.random.default_rng(27)
    n = 12
    table = DrugTable([f"d{i}" for i in range(n)], ["CCO"] * n,
                      *(rng.integers(0, 2, size=(n, 6)) for _ in DESCRIPTOR_KINDS))
    graph = RelGraph.from_triples(n, 2, [(0, 1, 0), (2, 3, 1), (4, 5, 0)])
    config = apply_preset("micro").replace(propagation_hops=3)
    first = HmgrlModel(config, table, 2, seed=0)
    assert table.similarity_graph.powers == {}     # none before the first forward
    first.drug_embeddings(graph)
    cached = dict(table.similarity_graph.powers)
    assert sorted(cached) == [(kind, 3) for kind in sorted(DESCRIPTOR_KINDS)]
    HmgrlModel(config, table, 2, seed=1).drug_embeddings(graph)
    powers = table.similarity_graph.powers
    assert powers.keys() == cached.keys()
    assert all(powers[key] is cached[key] for key in cached)


def test_fuse_ragse_zero_weights_and_passthrough():
    rng = np.random.default_rng(19)
    chans = tuple(nk.constant(np.abs(rng.normal(size=(4, 3)))) for _ in range(3))
    zero = nk.constant(np.zeros((3, 3)))
    eye = nk.constant(np.eye(3))
    assert np.allclose(fuse_ragse(chans, [zero, zero, zero]).data, 0.0)
    assert np.allclose(fuse_ragse(chans, [eye, zero, zero]).data, chans[0].data)


def test_fuse_ragse_gradient_wrt_enzyme_weight():
    rng = np.random.default_rng(21)
    chans = tuple(nk.constant(rng.normal(size=(4, 3))) for _ in range(3))
    w_t = nk.parameter(rng.normal(size=(3, 3)))
    w_e = nk.parameter(rng.normal(size=(3, 3)))
    w_s = nk.parameter(rng.normal(size=(3, 3)))

    def loss():
        return nk.sum_all(fuse_ragse(chans, [w_t, w_e, w_s]))

    fd_check(loss, [w_e])


def test_cold_start_repair():
    # a drug with no interactions but nonzero similarity gains an embedding
    table = DrugTable(
        ids=["known1", "known2", "newdrug"],
        smiles=["CC", "CO", "CN"],
        targets=[[1, 1, 0], [1, 0, 1], [1, 1, 0]],
        enzymes=[[1, 0], [0, 1], [1, 0]],
        substructures=[[1, 0, 1], [0, 1, 1], [1, 0, 1]],
    )
    graph = RelGraph.from_triples(3, 1, [(0, 1, 0)])
    assert graph.new_drug_mask().tolist() == [False, False, True]
    rng = np.random.default_rng(23)
    x = nk.constant(rng.random((3, 4)))
    # zero initial features for the new drug: without propagation it stays zero
    x.data[2] = 0.0
    w = nk.constant(np.abs(rng.normal(size=(4, 4))))
    bar = rgcn_forward(graph, x, [w], w)
    assert np.allclose(bar.data[2], 0.0)
    dds = DDSGraph.from_table(table)
    channels = dds_propagate(dds, bar, 1)
    eye = nk.constant(np.eye(4))
    fused = fuse_ragse(channels, [eye, eye, eye])
    assert np.abs(fused.data[2]).max() > 0.0


def test_ddi_file_roundtrip_and_errors(tmp_path):
    table = DrugTable(["a", "b", "c"], ["C"] * 3, [[1]] * 3, [[1]] * 3, [[1]] * 3)
    triples = [("a", "b", 0), ("b", "c", 2), ("a", "c", 1)]
    path = tmp_path / "ddis.tsv"
    write_ddi_file(path, triples)
    resolved = read_ddi_file(path, table)
    assert resolved == [(0, 1, 0), (1, 2, 2), (0, 2, 1)]
    write_ddi_file(tmp_path / "again.tsv",
                   [(table.ids[u], table.ids[v], r) for u, v, r in resolved])
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t0\na\tb\n")
    with pytest.raises(DataError) as err:
        read_ddi_file(bad, table)
    assert ":2:" in str(err.value)


def test_resolve_triples_unknown_drug(tmp_path):
    from hmgrl.errors import UnknownDrugError

    table = DrugTable(["a", "b"], ["C", "C"], [[1], [1]], [[1], [1]], [[1], [1]])
    path = tmp_path / "ddis.tsv"
    path.write_text("a\tb\t0\n\na\tzzz\t0\n")
    with pytest.raises(UnknownDrugError) as err:
        read_ddi_file(path, table)
    assert f"{path}:3: unknown drug id 'zzz'" in str(err.value)
