import gc
import hashlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from hmgrl import featurize, graphcore
from hmgrl import numkit as nk
from hmgrl.config import apply_preset
from hmgrl.errors import (
    BatchSizeError,
    NumericError,
    ShapeError,
    ValidationError,
)
from hmgrl.evaluate import Fold, make_splits
from hmgrl.graphcore import RelGraph
from hmgrl.model import (
    DdiDataset,
    HmgrlModel,
    _batches,
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
        assert (a, b) == (1.0, 1.0)   # lambda ~ Beta(1, 1)
        return self.lam

    def permutation(self, n):
        return self.inner.permutation(n)


def test_mixup_lambda_one_keeps_batch():
    rng = np.random.default_rng(1)
    feats = nk.constant(rng.normal(size=(4, 3)))
    labels = one_hot([0, 1, 0, 1], 2)
    mixed, mlabels, dominant = mixup_batch(feats, labels, FixedBeta(1.0))
    assert np.allclose(mixed.data, feats.data, atol=1e-15)
    assert np.allclose(mlabels, labels)
    assert np.array_equal(dominant, np.arange(4))


def test_mixup_half_blends_onehots():
    feats = nk.constant(np.eye(2))
    labels = one_hot([0, 1], 2)
    stub = FixedBeta(0.5, seed=3)
    perm = np.random.default_rng(3).permutation(2)
    mixed, mlabels, _ = mixup_batch(feats, labels, stub)
    expected = 0.5 * labels + 0.5 * labels[perm]
    assert np.allclose(mlabels, expected)
    assert np.allclose(mlabels.sum(axis=1), 1.0)
    assert np.allclose(mixed.data, 0.5 * np.eye(2) + 0.5 * np.eye(2)[perm])


def test_mixup_dominant_partner_sequences():
    rng = np.random.default_rng(2)
    feats = nk.constant(rng.normal(size=(3, 2)))
    labels = one_hot([0, 1, 2], 3)
    stub = FixedBeta(0.2, seed=5)
    perm = np.random.default_rng(5).permutation(3)
    _, _, dominant = mixup_batch(feats, labels, stub)
    assert np.array_equal(dominant, perm)
    # permuting the pair index vectors permutes the sequence rows bit for bit
    mat = rng.integers(0, 2, size=(5, 7)).astype(float)
    us, vs = np.array([0, 1, 2]), np.array([3, 4, 0])
    assert np.array_equal(mat[us[dominant]] + mat[vs[dominant]],
                          (mat[us] + mat[vs])[perm])


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


def test_forward_trains_only_with_its_rngs():
    # training mode is passing the RNGs: dropout needs a dropout RNG, and
    # mixup needs config.mixup, labels and a mixup RNG
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=4)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    pairs = [(u, v) for u, v, _ in data.triples[:8]]
    labels = one_hot([r for _, _, r in data.triples[:8]], data.n_relations)

    def score(dropout_rate, mixup, **rngs):
        model.config = model.config.replace(dropout_rate=dropout_rate, mixup=mixup)
        with nk.no_grad():
            result = model.forward(graph, pairs, labels=labels, **rngs)
        return result.probabilities.data, result.loss_total.item()

    def same(a, b):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]

    plain = score(0.0, False)
    assert same(score(0.5, True), plain)
    rng = np.random.default_rng(1)
    untouched = rng.bit_generator.state
    assert same(score(0.0, False, dropout_rng=rng), plain)
    assert same(score(0.0, False, mixup_rng=rng), plain)
    assert rng.bit_generator.state == untouched
    assert not np.array_equal(score(0.5, False, dropout_rng=rng)[0], plain[0])
    assert not same(score(0.0, True, mixup_rng=np.random.default_rng(2)), plain)


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
        scored = model.forward(graph, pairs, labels=labels)
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


def test_pair_features_do_not_depend_on_the_rest_of_the_batch():
    data, model, graph = untrained_micro_model()
    pairs = random_pairs(np.random.default_rng(6), data.n_drugs, 300)
    some = slice(126, 131)    # drugs pooled once serve every pair of the batch
    with nk.no_grad():
        embeddings = model.drug_embeddings(graph)
        whole = model.comprehensive_features(embeddings, pairs[:, 0], pairs[:, 1])
        alone = model.comprehensive_features(embeddings, pairs[some, 0],
                                             pairs[some, 1])
    assert whole.shape == (300, model.feature_dim)
    assert np.abs(whole.data[some] - alone.data).max() <= 1e-12


def test_predict_convolves_each_drug_once_and_each_pair_only_at_its_seam(monkeypatch):
    data, model, graph = untrained_micro_model()
    k = 2000
    pairs = random_pairs(np.random.default_rng(8), data.n_drugs, k)
    convolved = []
    original = nk.conv1d_onehot

    def spy(index, *args):
        convolved.append(np.asarray(index).size)
        return original(index, *args)

    monkeypatch.setattr(nk, "conv1d_onehot", spy)
    predict(model, graph, pairs)
    reach = sum(w - 1 for w in model.config.cnn_kernels)
    n_drugs = len(np.unique(pairs))
    # the whole-row route convolves k * 200 positions, ~8x this bound here
    assert 0 < sum(convolved) <= n_drugs * 100 + k * 2 * reach


def test_predict_needs_two_pairs():
    _, model, graph = untrained_micro_model()
    for pairs in ([], [(0, 1)]):
        with pytest.raises(BatchSizeError):
            predict(model, graph, pairs)


@pytest.mark.parametrize("pairs, shape", [
    ([(1, 2, 3), (4, 5, 6)], "(2, 3)"),   # (u, v, event) triples
    ([1, 2, 3, 4], "(4,)"),
    (np.ones((2, 1, 2)), "(2, 1, 2)"),
], ids=["triples", "flat", "three-dim"])
def test_predict_rejects_pairs_not_k_by_2_naming_the_shape(pairs, shape):
    _, model, graph = untrained_micro_model()
    with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
        predict(model, graph, pairs)


@pytest.mark.parametrize("pairs, problem", [
    ([[1, 2], [3]], "ragged list"),
    ([[1, 2], [3, "x"]], "not strings"),
    ([[1.5, 2], [3, 4]], "not floats"),     # would score drug 1
    ([[True, 2], [3, 4]], "not booleans"),  # numpy reads True as drug 1
], ids=["ragged", "string", "float", "bool"])
def test_predict_rejects_a_malformed_pair_list_naming_the_problem(pairs, problem):
    _, model, graph = untrained_micro_model()
    with pytest.raises(ValidationError, match=problem):
        predict(model, graph, pairs)


def test_unlabelled_predict_never_holds_a_k_by_k_matrix():
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


def test_unlabelled_predict_peak_stays_below_the_pair_blocks():
    # 1,500 pairs over 300 drugs with dataset 1's descriptor widths: a route
    # that built the views' K x T summed sequences or the encoders' K x 2N
    # similarity pairs would pass this bound, what the three K x T blocks and
    # one K x 2N block take by themselves; projecting per drug and gathering
    # the products peaks at ~20.5 MiB
    n_drugs, k = 300, 1500
    spec = SynthSpec(seed=0, n_drugs=n_drugs, n_events=8, density=0.05,
                     targets_size=1162, enzymes_size=202, substructures_size=881)
    table, id_triples = generate(spec)
    triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
    n_relations = max(r for _, _, r in triples) + 1
    model = HmgrlModel(apply_preset("small"), table, n_relations, seed=0)
    graph = RelGraph.from_triples(n_drugs, n_relations, triples)
    pairs = random_pairs(np.random.default_rng(7), n_drugs, k)
    widths = sum(getattr(table, kind).shape[1] for kind in featurize.DESCRIPTOR_KINDS)
    blocks = k * widths * 8 + k * 2 * n_drugs * 8
    gc.collect()
    tracemalloc.start()
    try:
        _, probs = predict(model, graph, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (k, n_relations)
    assert peak < blocks, (f"traced peak {peak / 2**20:.1f} MiB against "
                           f"{blocks / 2**20:.1f} MiB of pair blocks")


def test_comprehensive_features_order_the_five_sources():
    # zeroing one source's output head zeroes exactly its column block:
    # SMILES, embedding pair, then one block per descriptor kind
    data = micro_dataset()
    model = HmgrlModel(micro_config(embedding_encoder_dim=5), data.table,
                       data.n_relations, seed=5)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    kinds = featurize.DESCRIPTOR_KINDS
    d_att = model.config.attention_dim
    starts = np.cumsum([0, d_att, 5] + [d_att] * len(kinds))
    heads = ["cnn", "enc_emb"] + [f"enc_{kind[:3]}" for kind in kinds]
    us, vs = np.array([0, 1, 2]), np.array([3, 4, 5])
    with nk.no_grad():
        embeddings = model.drug_embeddings(graph)
        assert model.comprehensive_features(embeddings, us, vs).shape == (3, starts[-1])
        for block, head in enumerate(heads):
            saved = {name: model.params[name].data
                     for name in (f"{head}.proj.w", f"{head}.proj.b")}
            for name, arr in saved.items():
                model.params[name].data = np.zeros_like(arr)
            out = model.comprehensive_features(embeddings, us, vs).data
            for name, arr in saved.items():
                model.params[name].data = arr
            zero = [j for j in range(len(heads))
                    if not out[:, starts[j]:starts[j + 1]].any()]
            assert zero == [block], head


def test_train_record_total_is_affine_combination():
    data = micro_dataset()
    cfg = micro_config(epochs=2, batch_size=8)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    _, _, records = train_fold(cfg, data, plan.folds[0], fold_index=0)
    assert records
    for rec in records:
        expected = rec.loss_ce + cfg.regularizer_weight * rec.loss_dsc
        assert rec.loss_total == pytest.approx(expected, abs=1e-12)


def test_non_finite_loss_stops_training_naming_epoch_and_batch(monkeypatch):
    import hmgrl.model

    data = micro_dataset()
    cfg = micro_config(epochs=2, batch_size=8)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    per_epoch = len(_batches(len(plan.folds[0].train), cfg.batch_size,
                             np.arange(len(plan.folds[0].train))))
    calls = []
    original = hmgrl.model.total_loss

    def nan_at_second_epoch_batch_one(ce, regularizer, weight):
        calls.append(None)
        total = original(ce, regularizer, weight)
        return nk.scale(total, np.nan) if len(calls) == per_epoch + 2 else total

    monkeypatch.setattr(hmgrl.model, "total_loss", nan_at_second_epoch_batch_one)
    with pytest.raises(NumericError, match="non-finite loss at epoch 1 batch 1: ce="):
        train_fold(cfg, data, plan.folds[0], fold_index=0)
    assert len(calls) == per_epoch + 2   # no step after the non-finite loss


def test_batches_merge_a_one_pair_tail_into_the_previous_batch():
    order = np.random.default_rng(0).permutation(9)
    batches = _batches(9, 4, order)
    assert [len(b) for b in batches] == [4, 5]
    assert np.array_equal(np.concatenate(batches), order)


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


def test_load_model_draws_no_initialization(tmp_path, monkeypatch):
    data = micro_dataset()
    model = HmgrlModel(micro_config(), data.table, data.n_relations, seed=4)
    path = tmp_path / "m.ckpt"
    save_model(path, model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew a seeded initialization")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded, _ = load_model(path, data.table)
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_models_on_one_table_share_its_similarity_graph(tmp_path, monkeypatch):
    data = micro_dataset()
    calls = []
    cosine = graphcore.cosine_similarity_matrix
    monkeypatch.setattr(graphcore, "cosine_similarity_matrix",
                        lambda m: calls.append(1) or cosine(m))
    path = tmp_path / "m.ckpt"
    save_model(path, HmgrlModel(micro_config(), data.table, data.n_relations, seed=4))
    assert len(calls) == 3   # one per descriptor kind
    first, _ = load_model(path, data.table)
    second, _ = load_model(path, data.table)
    assert len(calls) == 3 and first.dds is second.dds
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    pairs = random_pairs(np.random.default_rng(2), data.n_drugs, 20)
    assert np.array_equal(predict(first, graph, pairs)[1], predict(second, graph, pairs)[1])


def test_a_forward_reads_the_tables_arrays_in_place(monkeypatch):
    import hmgrl.model as model_module

    data, model, graph = untrained_micro_model()
    rgcn_reads, pair_reads = [], []
    rgcn, pair_linear = model_module.rgcn_forward, nk.pair_linear
    monkeypatch.setattr(model_module, "rgcn_forward", lambda g, x, *args: (
        rgcn_reads.append(nk.as_tensor(x).data) or rgcn(g, x, *args)))
    monkeypatch.setattr(nk, "pair_linear", lambda x, *args, **kwargs: (
        pair_reads.append(nk.as_tensor(x).data) or pair_linear(x, *args, **kwargs)))
    predict(model, graph, random_pairs(np.random.default_rng(3), data.n_drugs, 10))
    stacked = data.table.similarity_graph.stacked
    assert np.shares_memory(rgcn_reads[0], stacked)   # the relational layer
    # one similarity encoder per kind reads its column block of the stack
    assert sum(np.shares_memory(x, stacked) for x in pair_reads) == 3
    for kind in featurize.DESCRIPTOR_KINDS:   # each sequence view's source
        assert any(np.shares_memory(x, getattr(data.table, kind)) for x in pair_reads)


def test_a_model_from_checkpoint_arrays_copies_nothing_from_its_table():
    # 300 drugs with dataset 1's descriptor widths: a model that copied the
    # table's 5.1 MiB of descriptors would allocate at least that; one that
    # reads them in place allocates ~0.25 MiB
    spec = SynthSpec(seed=0, n_drugs=300, n_events=8, density=0.05,
                     targets_size=1162, enzymes_size=202, substructures_size=881)
    table, _ = generate(spec)
    arrays = HmgrlModel(micro_config(), table, 8, seed=0).named_arrays()
    descriptor_bytes = sum(getattr(table, kind).nbytes
                           for kind in featurize.DESCRIPTOR_KINDS)
    gc.collect()
    tracemalloc.start()
    try:
        HmgrlModel(micro_config(), table, 8, arrays=arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < descriptor_bytes, (f"traced peak {peak / 2**20:.1f} MiB against "
                                     f"{descriptor_bytes / 2**20:.1f} MiB of descriptors")


def test_seeded_checkpoint_bytes_are_pinned(tmp_path):
    """A seeded initialization and its checkpoint bytes never change silently."""
    data = micro_dataset()
    path = tmp_path / "m.ckpt"
    save_model(path, HmgrlModel(micro_config(), data.table, data.n_relations, seed=5))
    payload = path.read_bytes()
    assert len(payload) == 104563
    assert hashlib.sha256(payload).hexdigest() == (
        "3c8a373dc466b53d6b089d78df9d86b23622f18d2a7178734e2678ec4d5f2543")
    # the tensor records after the meta line, which retiring a config key keeps
    tensors = payload[payload.index(b"\n", len(nk.checkpoint.MAGIC)) + 1:]
    assert hashlib.sha256(tensors).hexdigest() == (
        "82c9a3ad09fdde0fe950ae1c60be21a6d73ce0f35e211ed0582021e8bfe70ce2")


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
        result = model.forward(graph, pairs, labels=labels)
        return result.loss_total

    report = gradcheck(loss, model.params,
                       FdConfig(rel_tol=1e-4, abs_tol=1e-7, sample_count=4,
                                full_sweep_size=16),
                       rng=np.random.default_rng(11))
    bad = {k: v for k, v in report.items() if not v["ok"]}
    assert not bad, f"gradient mismatches: {bad}"


def test_train_fold_returns_a_model_without_gradients():
    data = micro_dataset()
    cfg = micro_config(epochs=1, batch_size=8)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=0)
    model, _, records = train_fold(cfg, data, plan.folds[0], fold_index=0)
    assert records
    assert all(p.grad is None for p in model.params.values())


def desk_batch(size=128):
    """The `small` preset on the 60-drug desk set, a seeded model, and one
    labelled batch of `size` training pairs."""
    table, id_triples = generate(SynthSpec(seed=0))
    triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
    data = DdiDataset(table, triples, max(r for _, _, r in triples) + 1)
    model = HmgrlModel(apply_preset("small"), data.table, data.n_relations, seed=0)
    graph = RelGraph.from_triples(data.n_drugs, data.n_relations, data.triples)
    batch = data.triples[:size]
    pairs = np.array([(u, v) for u, v, _ in batch])
    return model, graph, pairs, one_hot([r for _, _, r in batch], data.n_relations)


def labelled_training_forward(model, graph, pairs, labels):
    """One seeded training forward (dropout and mixup on) under a new tape."""
    with nk.Tape() as tape:
        result = model.forward(graph, pairs, labels=labels,
                               dropout_rng=np.random.default_rng(1),
                               mixup_rng=np.random.default_rng(2))
    return tape, result


def test_releasing_backward_matches_the_keeping_replay():
    model, graph, pairs, labels = desk_batch()
    model.zero_grad()
    tape, result = labelled_training_forward(model, graph, pairs, labels)
    tape.backward(result.loss_total)
    released = {name: p.grad.copy() for name, p in model.params.items()}

    # oracle: replay a snapshot of every record in reverse, keeping them all
    model.zero_grad()
    tape, result = labelled_training_forward(model, graph, pairs, labels)
    records = list(tape._records)
    loss = result.loss_total
    loss.grad = np.ones((1, 1))
    for out, backward in reversed(records):
        if out.grad is not None:
            backward(out.grad)
    for name, p in model.params.items():
        assert np.array_equal(released[name], p.grad), name


def assert_no_shared_buffers(named_grads):
    for i, (name, grad) in enumerate(named_grads):
        for other, other_grad in named_grads[i + 1:]:
            assert not np.shares_memory(grad, other_grad), (name, other)


def test_no_two_gradients_share_a_buffer():
    # ops adopt fresh gradient arrays; a buffer shared by two tensors would
    # take both tensors' later contributions
    model, graph, pairs, labels = desk_batch()
    model.zero_grad()
    tape, result = labelled_training_forward(model, graph, pairs, labels)
    tape.backward(result.loss_total)
    params = [(name, p.grad) for name, p in model.params.items()]
    assert all(grad is not None for _, grad in params)
    assert_no_shared_buffers(params)

    # every op output too: replay a kept tape, so no gradient is released
    model.zero_grad()
    tape, result = labelled_training_forward(model, graph, pairs, labels)
    records = list(tape._records)
    result.loss_total.grad = np.ones((1, 1))
    for out, backward in reversed(records):
        if out.grad is not None:
            backward(out.grad)
    outputs = [(f"record {i}", out.grad) for i, (out, _) in enumerate(records)
               if out.grad is not None]
    assert_no_shared_buffers(params + outputs)


def test_backward_keeps_no_record():
    model, graph, pairs, labels = desk_batch(size=32)
    tape, result = labelled_training_forward(model, graph, pairs, labels)
    held = [result.probabilities, result.loss_ce, result.loss_total,
            result.regularizer]
    # the activations, e.g. the decoder's hidden layer, by their arrays
    intermediates = [weakref.ref(out.data) for out, _ in tape._records
                     if not any(out is t for t in held)]
    assert len(intermediates) == len(tape) - len(held)
    tape.backward(result.loss_total)
    alive = sum(ref() is not None for ref in intermediates)
    assert alive == 0, f"{alive} recorded activations outlive backward"
    assert all(t.grad is None for t in held)


def test_backward_peak_memory_stays_near_the_forward_tape():
    model, graph, pairs, labels = desk_batch()
    model.zero_grad()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, result = labelled_training_forward(model, graph, pairs, labels)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        tape.backward(result.loss_total)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ratio = peak / held
    assert ratio <= 1.3, (f"backward peaks at {ratio:.2f}x the forward's "
                          f"{held / 2**20:.1f} MiB")


def pair_route(x, w, us, vs):
    """The route nk.pair_linear replaces: build each pair's row from its two
    drugs' rows (side by side for an encoder, summed for a view), then map it."""
    x = nk.as_tensor(x)
    left, right = nk.gather_rows(x, us), nk.gather_rows(x, vs)
    rows = nk.add(left, right) if w.shape[0] == x.shape[1] else nk.concat_cols([left, right])
    return nk.matmul(rows, w)


@pytest.mark.parametrize("lam", [0.8, 0.3], ids=["own-rows", "dominant-partner"])
def test_per_drug_route_matches_the_pair_route(monkeypatch, lam):
    # 96 training pairs over 60 drugs repeat drugs; below lam = 0.5 the views
    # read each row's Mixup partner, so their pairs are permuted
    model, graph, pairs, labels = desk_batch(size=96)
    model.config = model.config.replace(mixup=True)
    with nk.no_grad():
        embeddings = nk.parameter(model.drug_embeddings(graph).data)
    monkeypatch.setattr(model, "drug_embeddings", lambda graph: embeddings)

    def run():
        model.zero_grad()
        embeddings.zero_grad()
        with nk.Tape() as tape:
            result = model.forward(graph, pairs, labels=labels,
                                   dropout_rng=np.random.default_rng(1),
                                   mixup_rng=FixedBeta(lam, seed=2))
        tape.backward(result.loss_total)
        grads = {name: p.grad for name, p in model.params.items()
                 if p.grad is not None}
        grads["embeddings"] = embeddings.grad
        return result.probabilities.data, grads

    per_drug_probs, per_drug = run()
    monkeypatch.setattr(nk, "pair_linear", pair_route)
    pair_probs, pair = run()
    assert np.abs(per_drug_probs - pair_probs).max() <= 1e-12 * np.abs(pair_probs).max()
    assert set(per_drug) == set(pair)
    checked = [name for name in pair if name.endswith(".fc.w") or ".adj" in name]
    assert len(checked) == 4 + 4 * model.config.dsc_heads   # encoders, views
    for name, grad in pair.items():
        scale = np.abs(grad).max()
        assert np.abs(per_drug[name] - grad).max() <= 1e-12 * scale, name
