"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities. Run with `pytest tests/test_acceptance.py -s` to see
the lines; tolerances are pinned here, not configurable.
"""

import itertools
import os
import time

import numpy as np
import pytest

from hmgrl import cli
from hmgrl import numkit as nk
from hmgrl.config import apply_preset
from hmgrl.evaluate import compute_metrics, make_splits
from hmgrl.model import (
    DdiDataset,
    one_hot,
    predict,
    save_model,
    train_fold,
)
from hmgrl.mvdsc import loss_graph_cut, loss_orthogonality
from hmgrl.oracle import (
    FdConfig,
    metric_oracle,
    micro_gradcheck,
    ncut_objective,
    ncut_trace_form,
    spectral_cluster_oracle,
)
from hmgrl.synth import SynthSpec, generate


def _dataset(seed, **kw):
    spec = SynthSpec(seed=seed, **kw)
    table, id_triples = generate(spec)
    triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
    return DdiDataset(table, triples, max(r for _, _, r in triples) + 1)


def test_criterion_1_gradient_integrity(monkeypatch, capsys):
    # micro setup: 12 drugs, 4 event types, batch of 8, every width 8, 1 hop;
    # run as `hmgrl gradcheck` with no flags, which must check this very case
    case = {}

    def recorded(config, seeds, fd):
        case.update(config=config, seeds=seeds, fd=fd)
        case["report"] = micro_gradcheck(config, seeds, fd)
        return case["report"]

    monkeypatch.setattr(cli, "micro_gradcheck", recorded)
    started = time.perf_counter()
    code = cli.main(["gradcheck"])
    elapsed = time.perf_counter() - started
    report = case["report"]
    assert case["config"] == apply_preset("micro")
    assert case["config"].propagation_hops == 1
    assert case["seeds"] == (7, 3, 5, 11)  # data, model, bias nudge, FD sample
    assert case["fd"] == FdConfig(h=1e-5, rel_tol=1e-4, abs_tol=1e-7, sample_count=6,
                          full_sweep_size=64)
    bad = {k: v for k, v in report.items() if not v["ok"]}
    worst = max(v["max_rel_err"] for v in report.values())
    assert not bad, f"gradient mismatches: {bad}"
    assert code == 0
    table = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in table[1:-1]] == list(report)
    assert all(row.endswith("  yes") for row in table[1:-1])
    assert table[-1] == f"{len(report)} parameters checked, 0 failures"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {len(report)} parameters, worst rel err "
          f"{worst:.2e} <= 1e-4, runtime {elapsed:.1f}s < 60s")


def test_criterion_2_loss_bounds():
    rng = np.random.default_rng(21)
    lo = hi = 0.0
    trials = 0
    for _ in range(220):
        k = int(rng.integers(2, 9))
        c = int(rng.integers(1, min(k, 4) + 1))
        weights = rng.dirichlet(np.ones(4))
        a = np.zeros((k, k))
        for w in weights:
            p = np.eye(k)[rng.permutation(k)]
            a += w * (p + p.T) / 2.0
        f = nk.relu(nk.constant(rng.normal(size=(k, c))))
        loss, skipped = loss_graph_cut([f], [nk.constant(a)])
        if skipped:
            continue
        value = loss.item()
        assert -1.0 - 1e-9 <= value <= 1e-9
        lo, hi = min(lo, value), max(hi, value)
        l_or, _ = loss_orthogonality([f])
        assert l_or.item() >= 0.0
        trials += 1
    assert trials >= 200

    # block-diagonal row-stochastic adjacency + indicator assignments -> -1
    a_blocks = np.zeros((4, 4))
    a_blocks[:2, :2] = 0.5
    a_blocks[2:, 2:] = 0.5
    f_ind = nk.constant(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]]))
    at_min, _ = loss_graph_cut([f_ind], [nk.constant(a_blocks)])
    assert at_min.item() == pytest.approx(-1.0, abs=1e-9)

    # orthogonal assignments across every connected pair -> 0
    a_bipartite = nk.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f_orth = nk.constant(np.eye(2))
    at_max, _ = loss_graph_cut([f_orth], [a_bipartite])
    assert at_max.item() == pytest.approx(0.0, abs=1e-9)

    # orthonormal-scaled construction -> orthogonality loss 0
    f_scaled = nk.constant(np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    l_or0, _ = loss_orthogonality([f_scaled])
    assert l_or0.item() == pytest.approx(0.0, abs=1e-9)
    print(f"\nACCEPTANCE 2 PASS: {trials} randomized instances in "
          f"[{lo:.6f}, {hi:.6f}] within [-1-1e-9, 1e-9]; extremes hit -1 and 0; "
          f"orthogonality loss >= 0 with 0 on the orthonormal construction")


def _all_partitions(n, max_clusters):
    seen = set()
    for labels in itertools.product(range(max_clusters), repeat=n):
        remap, canon = {}, []
        for x in labels:
            remap.setdefault(x, len(remap))
            canon.append(remap[x])
        key = tuple(canon)
        if key not in seen:
            seen.add(key)
            yield np.array(canon)


def test_criterion_3_classical_spectral_consistency():
    rng = np.random.default_rng(31)
    checked = 0
    worst = 0.0
    for k in (4, 5, 6):
        a = rng.random((k, k))
        a = (a + a.T) / 2 + 0.05
        np.fill_diagonal(a, 0.0)
        for labels in _all_partitions(k, 3):
            # established relation: the trace form counts each edge twice
            diff = abs(ncut_trace_form(a, labels) - 2.0 * ncut_objective(a, labels))
            worst = max(worst, diff)
            assert diff <= 1e-9
            checked += 1

    blocks = np.zeros((8, 8))
    sizes, start = [3, 3, 2], 0
    for s in sizes:
        sub = rng.random((s, s)) * 0.5 + 0.5
        sub = (sub + sub.T) / 2
        np.fill_diagonal(sub, 0.0)
        blocks[start:start + s, start:start + s] = sub
        start += s
    f, eigvals, labels = spectral_cluster_oracle(blocks, 3)
    assert np.abs(eigvals - 1.0).max() <= 1e-9
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-9)
    truth = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    mapping = {}
    for t, got in zip(truth, labels):
        mapping.setdefault(t, got)
        assert mapping[t] == got
    assert len(set(mapping.values())) == 3
    print(f"\nACCEPTANCE 3 PASS: {checked} (graph, partition) cases agree to "
          f"{worst:.2e} <= 1e-9; 3-block eigenvalues all 1 +- 1e-9, blocks recovered")


def test_criterion_4_metric_correctness():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(10, 501))
        r = int(rng.integers(2, 11))
        labels = np.eye(r)[rng.integers(0, r, size=k)]
        logits = rng.normal(size=(k, r))
        if rng.random() < 0.3:
            logits = np.round(logits, 1)
        scores = np.exp(logits)
        scores /= scores.sum(axis=1, keepdims=True)
        report = compute_metrics(scores, labels)
        aupr, auc = metric_oracle(scores.ravel(), labels.ravel() > 0.5)
        worst = max(worst, abs(report.aupr - aupr), abs(report.auc - auc))
        assert report.aupr == pytest.approx(aupr, abs=1e-9)
        assert report.auc == pytest.approx(auc, abs=1e-9)

    perfect_labels = np.eye(5)[[0, 1, 2, 3, 4, 0, 2]]
    perfect = compute_metrics(perfect_labels.astype(float), perfect_labels)
    for value in (perfect.aupr, perfect.auc, perfect.acc, perfect.f1,
                  perfect.precision, perfect.recall):
        assert value == pytest.approx(1.0, abs=1e-12)
    print(f"\nACCEPTANCE 4 PASS: 50 random sets match the threshold-enumeration "
          f"oracle to {worst:.2e} <= 1e-9; perfect predictions score 1.0 on all six")


def test_criterion_5_learnability():
    started = time.perf_counter()
    data = _dataset(0)  # defaults: 60 drugs, 8 events, ~500 interactions
    assert data.n_drugs == 60 and 450 <= len(data.triples) <= 550
    cfg = apply_preset("small")
    assert cfg.epochs <= 300
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=5, seed=0)

    def accuracy(model, graph, trips):
        pairs = [(u, v) for u, v, _ in trips]
        truth = np.array([r for _, _, r in trips])
        pred, _ = predict(model, graph, pairs)
        return float((pred == truth).mean())

    train_accs, test_accs = [], []
    for i, fold in enumerate(plan.folds):
        model, graph, _ = train_fold(cfg, data, fold, fold_index=i)
        train_accs.append(accuracy(model, graph, fold.train))
        test_accs.append(accuracy(model, graph, fold.test))
        del model  # the next fold trains without this one alive
    elapsed = time.perf_counter() - started
    assert min(train_accs) >= 0.99, f"train accuracies {train_accs}"
    held_out = float(np.mean(test_accs))
    assert held_out >= 0.70, f"held-out accuracies {test_accs}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 5 PASS: train acc min {min(train_accs):.4f} >= 0.99, "
          f"held-out mean {held_out:.4f} >= 0.70, runtime {elapsed:.0f}s < 600s")


def test_criterion_6_split_protocol_laws():
    # fold sizes differ by at most 1; at full published scale 37264 -> 7452/7453
    full = [len(part) for part in np.array_split(np.arange(37264), 5)]
    assert sorted(set(full)) == [7452, 7453]

    rng = np.random.default_rng(61)
    data = _dataset(3, n_drugs=30, n_events=4, density=0.35)
    plan1 = make_splits(data.triples, data.n_drugs, task=1, n_folds=5, seed=5)
    sizes = [len(f.test) for f in plan1.folds]
    assert max(sizes) - min(sizes) <= 1
    collected = sorted(tuple(t) for f in plan1.folds for t in f.test)
    assert collected == sorted(tuple(t) for t in data.triples)

    plan2 = make_splits(data.triples, data.n_drugs, task=2, n_folds=5, seed=5)
    for fold in plan2.folds:
        for u, v, _ in fold.test:
            assert (u in fold.new_drugs) != (v in fold.new_drugs)

    plan3 = make_splits(data.triples, data.n_drugs, task=3, n_folds=5, seed=5)
    for f2, f3 in zip(plan2.folds, plan3.folds):
        assert f2.train == f3.train
        train_drugs = {d for u, v, _ in f3.train for d in (u, v)}
        test_drugs = {d for u, v, _ in f3.test for d in (u, v)}
        assert not (train_drugs & test_drugs)
    print("\nACCEPTANCE 6 PASS: task-1 folds partition the interactions "
          "(sizes within +-1, 37264 -> 7452/7453); task-2 tests have exactly one "
          "new drug; task-3 train/test drugs disjoint with task-2 train shared")


def test_criterion_7_determinism(tmp_path):
    data = _dataset(5, n_drugs=12, n_events=3, density=0.5, targets_size=10,
                    enzymes_size=8, substructures_size=12, smiles_length=(10, 24))
    cfg = apply_preset("micro").replace(epochs=3, mixup=True, dropout_rate=0.2)
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=3, seed=2)

    results = []
    for name in ("one", "two"):
        model, graph, records = train_fold(cfg, data, plan.folds[0], fold_index=0)
        path = tmp_path / f"{name}.ckpt"
        save_model(path, model)
        pairs = [(u, v) for u, v, _ in plan.folds[0].test]
        labels = one_hot([r for _, _, r in plan.folds[0].test], data.n_relations)
        _, probs = predict(model, graph, pairs)
        report = compute_metrics(probs, labels)
        results.append((records, path.read_bytes(), report.as_dict()))

    (rec_a, ckpt_a, rep_a), (rec_b, ckpt_b, rep_b) = results
    assert ckpt_a == ckpt_b, "checkpoints are not bit-equal"
    assert len(rec_a) == len(rec_b)
    for ra, rb in zip(rec_a, rec_b):
        assert abs(ra.loss_ce - rb.loss_ce) <= 1e-12
        assert abs(ra.loss_dsc - rb.loss_dsc) <= 1e-12
        assert abs(ra.loss_total - rb.loss_total) <= 1e-12
    for key in ("AUPR", "AUC", "ACC", "F1", "Precision", "Recall"):
        assert abs(rep_a[key] - rep_b[key]) <= 1e-12
    print("\nACCEPTANCE 7 PASS: repeated seeded runs give bit-equal checkpoints, "
          "train records and metric reports equal within 1e-12")


@pytest.mark.skipif("HMGRL_DATASET1_DIR" not in os.environ,
                    reason="optional extended run: set HMGRL_DATASET1_DIR to a "
                           "directory holding drugs.tsv and ddis.tsv for the "
                           "572-drug/65-event dataset")
def test_criterion_8_optional_extended_dataset1():
    root = os.environ["HMGRL_DATASET1_DIR"]
    data = DdiDataset.load(os.path.join(root, "drugs.tsv"),
                           os.path.join(root, "ddis.tsv"))
    cfg = apply_preset("d1-task1")
    plan = make_splits(data.triples, data.n_drugs, task=1, n_folds=5, seed=0)
    auprs = []
    for i, fold in enumerate(plan.folds):
        model, graph, _ = train_fold(cfg, data, fold, fold_index=i)
        pairs = [(u, v) for u, v, _ in fold.test]
        labels = one_hot([r for _, _, r in fold.test], data.n_relations)
        _, probs = predict(model, graph, pairs)
        del model  # the next fold trains without this one alive
        auprs.append(compute_metrics(probs, labels).aupr)
    mean_aupr = float(np.mean(auprs))
    assert mean_aupr >= 0.96
    print(f"\nACCEPTANCE 8 PASS: dataset-1 task-1 5-fold AUPR {mean_aupr:.4f} >= 0.96")
