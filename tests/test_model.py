import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.config import apply_preset
from hmgrl.errors import BatchSizeError, ShapeError, ValidationError
from hmgrl.evaluate import Fold, make_splits
from hmgrl.graphcore import RelGraph
from hmgrl.model import (
    PAIR_BLOCK,
    DdiDataset,
    HmgrlModel,
    load_model,
    loss_ce,
    mixup_batch,
    one_hot,
    predict,
    save_model,
    total_loss,
    train_fold,
)
from hmgrl.synth import SynthSpec, generate


def micro_config(**overrides):
    cfg = apply_preset("micro")
    return cfg.replace(**overrides) if overrides else cfg


def micro_dataset(seed=0, n_drugs=12, n_events=4, density=0.5):
    spec = SynthSpec(seed=seed, n_drugs=n_drugs, n_events=n_events,
                     density=density, targets_size=10, enzymes_size=8,
                     substructures_size=12, smiles_length=(10, 24))
    table, id_triples = generate(spec)
    triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
    n_relations = max(r for _, _, r in triples) + 1
    return DdiDataset(table, triples, n_relations)


def test_loss_ce_perfect_and_uniform():
    labels = one_hot([0, 1, 2], 3)
    perfect = nk.constant(labels)
    assert loss_ce(perfect, labels).item() == pytest.approx(0.0, abs=1e-9)
    uniform = nk.constant(np.full((3, 3), 1 / 3))
    assert loss_ce(uniform, labels).item() == pytest.approx(3 * np.log(3), abs=1e-12)
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=3)
    assert loss_ce(nk.constant(probs), labels).item() >= 0.0


def test_total_loss_affine_in_weight():
    ce = nk.constant([[2.0]])
    reg = nk.constant([[-0.5]])
    assert total_loss(ce, reg, 0.0).item() == 2.0
    l1 = total_loss(ce, reg, 0.2).item()
    l2 = total_loss(ce, reg, 0.6).item()
    lmid = total_loss(ce, reg, 0.4).item()
    assert l1 + l2 - 2 * lmid == pytest.approx(0.0, abs=1e-12)


class FixedBeta:
    """RNG stub: fixed beta draw, real permutation."""

    def __init__(self, lam, seed=0):
        self.lam = lam
        self.inner = np.random.default_rng(seed)

    def beta(self, a, b):
        return self.lam

    def permutation(self, n):
        return self.inner.permutation(n)


def test_mixup_lambda_one_keeps_batch():
    rng = np.random.default_rng(1)
    feats = nk.constant(rng.normal(size=(4, 3)))
    labels = one_hot([0, 1, 0, 1], 2)
    seqs = {"targets": rng.integers(0, 3, size=(4, 5)).astype(float)}
    mixed, mlabels, mseqs = mixup_batch(feats, labels, seqs, FixedBeta(1.0))
    assert np.allclose(mixed.data, feats.data, atol=1e-15)
    assert np.allclose(mlabels, labels)
    assert np.array_equal(mseqs["targets"], seqs["targets"])


def test_mixup_half_blends_onehots():
    feats = nk.constant(np.eye(2))
    labels = one_hot([0, 1], 2)
    stub = FixedBeta(0.5, seed=3)
    perm = np.random.default_rng(3).permutation(2)
    mixed, mlabels, _ = mixup_batch(feats, labels, {"targets": np.zeros((2, 2))}, stub)
    expected = 0.5 * labels + 0.5 * labels[perm]
    assert np.allclose(mlabels, expected)
    assert np.allclose(mlabels.sum(axis=1), 1.0)
    assert np.allclose(mixed.data, 0.5 * np.eye(2) + 0.5 * np.eye(2)[perm])


def test_mixup_dominant_partner_sequences():
    rng = np.random.default_rng(2)
    feats = nk.constant(rng.normal(size=(3, 2)))
    labels = one_hot([0, 1, 2], 3)
    seqs = {"targets": np.arange(6, dtype=float).reshape(3, 2)}
    stub = FixedBeta(0.2, seed=5)
    perm = np.random.default_rng(5).permutation(3)
    _, _, mseqs = mixup_batch(feats, labels, seqs, stub)
    assert np.array_equal(mseqs["targets"], seqs["targets"][perm])


def test_model_shapes_and_named_params():
    data = micro_dataset()
    cfg = micro_config()
    model = HmgrlModel(cfg, data.table, data.n_relations, seed=0)
    names = list(model.params)
    assert len(names) == len(set(names))
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    result = model.forward(graph, [(0, 1), (2, 3), (4, 5)])
    assert result.probabilities.shape == (3, data.n_relations)
    assert np.abs(result.probabilities.data.sum(axis=1) - 1.0).max() <= 1e-12


def test_forward_pair_order_sensitive():
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=1)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    a = model.forward(graph, [(0, 1), (2, 3)]).probabilities.data
    b = model.forward(graph, [(1, 0), (2, 3)]).probabilities.data
    assert not np.allclose(a[0], b[0])


@pytest.mark.parametrize("bad_pair, reason", [
    ((2, 12), "out of range 0..11"),   # one past the last of 12 drugs
    ((-1, 2), "out of range 0..11"),
    ((3, 3), "distinct"),
], ids=["past-last", "negative", "same-drug"])
def test_forward_rejects_bad_pair_naming_it(bad_pair, reason):
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=1)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    with pytest.raises(ValidationError, match=reason) as err:
        model.forward(graph, [(0, 1), bad_pair])
    assert f"pair ({bad_pair[0]}, {bad_pair[1]})" in str(err.value)


def test_inference_deterministic_under_dropout_config():
    data = micro_dataset()
    cfg = micro_config(dropout_rate=0.4)
    model = HmgrlModel(cfg, data.table, data.n_relations, seed=2)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    p1 = model.forward(graph, [(0, 1), (2, 3)]).probabilities.data
    p2 = model.forward(graph, [(0, 1), (2, 3)]).probabilities.data
    assert np.array_equal(p1, p2)


def test_unlabelled_forward_skips_regularizers(monkeypatch):
    import hmgrl.mvdsc as mvdsc

    calls = []
    for name in ("loss_graph_cut", "loss_orthogonality"):
        original = getattr(mvdsc, name)

        def spy(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(mvdsc, name, spy)
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=3)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    pairs = [(u, v) for u, v, _ in data.triples[:6]]
    with nk.no_grad():
        bare = model.forward(graph, pairs)
    assert calls == []
    assert bare.regularizer is None and bare.view_diagnostics == {}
    labels = one_hot([r for _, _, r in data.triples[:6]], data.n_relations)
    with nk.no_grad():
        scored = model.forward(graph, pairs, labels=labels, training=False)
    assert len(calls) == 8   # each loss once per view
    assert np.isfinite(scored.loss_total.item())
    assert np.array_equal(bare.probabilities.data, scored.probabilities.data)


def untrained_micro_model():
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=5)
    return data, model, RelGraph.from_triples(data.n_drugs, data.n_relations,
                                              data.triples)


def random_pairs(rng, n_drugs, count):
    us = rng.integers(0, n_drugs, size=count)
    vs = (us + rng.integers(1, n_drugs, size=count)) % n_drugs
    return np.stack([us, vs], axis=1)


def test_pair_blocks_are_independent_across_the_block_edge():
    data, model, graph = untrained_micro_model()
    pairs = random_pairs(np.random.default_rng(6), data.n_drugs, 300)
    edge = slice(PAIR_BLOCK - 2, PAIR_BLOCK + 3)    # rows 126-130
    with nk.no_grad():
        embeddings = model.drug_embeddings(graph)
        whole = model.comprehensive_features(embeddings, pairs[:, 0], pairs[:, 1])
        alone = model.comprehensive_features(embeddings, pairs[edge, 0],
                                             pairs[edge, 1])
    assert whole.shape == (300, model.feature_dim)
    assert np.abs(whole.data[edge] - alone.data).max() <= 1e-12


def test_predict_needs_two_pairs():
    _, model, graph = untrained_micro_model()
    for pairs in ([], [(0, 1)]):
        with pytest.raises(BatchSizeError):
            predict(model, graph, pairs)


def test_unlabelled_predict_never_holds_a_k_by_k_matrix():
    import tracemalloc

    data, model, graph = untrained_micro_model()
    k = 2000
    pairs = random_pairs(np.random.default_rng(7), data.n_drugs, k)
    tracemalloc.start()
    try:
        _, probs = predict(model, graph, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (k, data.n_relations)
    assert peak < k * k * 8, f"traced peak {peak / 2**20:.1f} MiB"


def test_train_record_total_is_affine_combination():
    data = micro_dataset()
    cfg = micro_config(epochs=2, batch_size=8)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    _, _, records = train_fold(cfg, data, plan.folds[0], fold_index=0)
    assert records
    for rec in records:
        expected = rec.loss_ce + cfg.regularizer_weight * rec.loss_dsc
        assert rec.loss_total == pytest.approx(expected, abs=1e-12)


def test_training_is_deterministic():
    data = micro_dataset()
    cfg = micro_config(epochs=2, batch_size=8, dropout_rate=0.2, mixup=True)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)

    def run():
        model, _, records = train_fold(cfg, data, plan.folds[0], fold_index=0)
        return model, records

    m1, r1 = run()
    m2, r2 = run()
    for a, b in zip(r1, r2):
        assert a.loss_total == b.loss_total  # bit-equal, same op stream
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_mixup_flag_gates_the_code_path():
    data = micro_dataset()
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    cfg_off = micro_config(epochs=1, batch_size=8, mixup=False)
    m_off, _, r_off = train_fold(cfg_off, data, plan.folds[0], fold_index=0)
    m_off2, _, r_off2 = train_fold(cfg_off, data, plan.folds[0], fold_index=0)
    assert r_off[0].loss_total == r_off2[0].loss_total
    for name in m_off.params:
        assert np.array_equal(m_off.params[name].data, m_off2.params[name].data)
    cfg_on = micro_config(epochs=1, batch_size=8, mixup=True)
    m_on, _, r_on = train_fold(cfg_on, data, plan.folds[0], fold_index=0)
    assert r_on[0].loss_total != r_off[0].loss_total


def test_overfits_micro_dataset():
    data = micro_dataset(seed=4, n_drugs=12, n_events=3, density=0.6)
    cfg = micro_config(epochs=60, batch_size=16, learning_rate=2e-3,
                       dropout_rate=0.0)
    fold = Fold(train=data.triples, test=data.triples)
    model, graph, records = train_fold(cfg, data, fold, fold_index=0)
    pairs = [(u, v) for u, v, _ in data.triples]
    truth = np.array([r for _, _, r in data.triples])
    pred, probs = predict(model, graph, pairs)
    accuracy = (pred == truth).mean()
    assert accuracy >= 0.99
    first_epoch = np.mean([r.loss_total for r in records if r.epoch == 0])
    last_epoch = np.mean([r.loss_total for r in records
                          if r.epoch == records[-1].epoch])
    assert last_epoch < first_epoch


def test_predict_roundtrips_through_checkpoint(tmp_path):
    data = micro_dataset()
    cfg = micro_config(epochs=1, batch_size=8)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    model, graph, _ = train_fold(cfg, data, plan.folds[0], fold_index=0)
    pairs = [(u, v) for u, v, _ in plan.folds[0].test]
    pred1, probs1 = predict(model, graph, pairs)
    path = tmp_path / "fold0.ckpt"
    save_model(path, model, extra_meta={"fold": 0})
    loaded, meta = load_model(path, data.table)
    assert meta["fold"] == 0
    pred2, probs2 = predict(loaded, graph, pairs)
    assert np.array_equal(pred1, pred2)
    assert np.array_equal(probs1, probs2)  # bit-exact after round trip
    assert np.array_equal(probs1.argmax(axis=1), pred1)


def test_loss_ce_shape_mismatch():
    with pytest.raises(ShapeError):
        loss_ce(nk.constant(np.ones((2, 3)) / 3), one_hot([0], 3))


def test_end_to_end_gradients_every_named_parameter():
    # micro setup: 12 drugs, 4 events, batch of 8, every dim 8
    from hmgrl.oracle import FdConfig, gradcheck

    data = micro_dataset(seed=7, n_drugs=12, n_events=4, density=0.5)
    cfg = micro_config(mixup=False, dropout_rate=0.0)
    model = HmgrlModel(cfg, data.table, data.n_relations, seed=3)
    # evaluate at a generic point: zero-initialized biases put padded conv
    # outputs exactly on the relu kink, where central differences see
    # half-slopes rather than the (valid) subgradient
    nudge = np.random.default_rng(5)
    for p in model.params.values():
        p.data += nudge.normal(scale=0.02, size=p.data.shape)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    batch = data.triples[:8]
    pairs = [(u, v) for u, v, _ in batch]
    labels = one_hot([r for _, _, r in batch], data.n_relations)

    def loss():
        result = model.forward(graph, pairs, labels=labels, training=True)
        return result.loss_total

    report = gradcheck(loss, model.params,
                       FdConfig(rel_tol=1e-4, abs_tol=1e-7, sample_count=4,
                                full_sweep_size=16),
                       rng=np.random.default_rng(11))
    bad = {k: v for k, v in report.items() if not v["ok"]}
    assert not bad, f"gradient mismatches: {bad}"
