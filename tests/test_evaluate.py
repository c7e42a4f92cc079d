import numpy as np
import pytest

from hmgrl.errors import ParameterError, ValidationError
from hmgrl.evaluate import (
    MetricReport,
    _curve_areas,
    compute_metrics,
    make_splits,
    summarize_reports,
)
from hmgrl.oracle import metric_oracle


def random_triples(rng, n_drugs, n_events, count):
    triples = set()
    while len(triples) < count:
        u, v = rng.integers(0, n_drugs, size=2)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        triples.add(key)
    return [(int(u), int(v), int(rng.integers(0, n_events))) for u, v in sorted(triples)]


def test_task1_folds_partition_interactions():
    rng = np.random.default_rng(0)
    triples = random_triples(rng, 30, 5, 123)
    plan = make_splits(triples, 30, task=1, n_folds=5, seed=3)
    sizes = [len(f.test) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == len(triples)
    seen = []
    for fold in plan.folds:
        seen.extend(map(tuple, fold.test))
        assert len(fold.train) + len(fold.test) == len(triples)
        together = set(map(tuple, fold.train)) | set(map(tuple, fold.test))
        assert together == set(map(tuple, triples))
    assert sorted(seen) == sorted(map(tuple, triples))


def test_task2_every_test_pair_has_exactly_one_new_drug():
    rng = np.random.default_rng(1)
    triples = random_triples(rng, 25, 4, 100)
    plan = make_splits(triples, 25, task=2, n_folds=5, seed=7)
    for fold in plan.folds:
        assert fold.new_drugs
        for u, v, _ in fold.test:
            assert (u in fold.new_drugs) != (v in fold.new_drugs)
        for u, v, _ in fold.train:
            assert u not in fold.new_drugs and v not in fold.new_drugs


def test_task3_train_test_drug_sets_disjoint_and_shared_train_with_task2():
    rng = np.random.default_rng(2)
    triples = random_triples(rng, 25, 4, 110)
    plan2 = make_splits(triples, 25, task=2, n_folds=5, seed=11)
    plan3 = make_splits(triples, 25, task=3, n_folds=5, seed=11)
    for f2, f3 in zip(plan2.folds, plan3.folds):
        assert f2.new_drugs == f3.new_drugs
        assert f2.train == f3.train  # same fold, same seed -> identical train
        train_drugs = {d for u, v, _ in f3.train for d in (u, v)}
        test_drugs = {d for u, v, _ in f3.test for d in (u, v)}
        assert not (train_drugs & test_drugs)
        for u, v, _ in f3.test:
            assert u in f3.new_drugs and v in f3.new_drugs


def test_splits_deterministic():
    rng = np.random.default_rng(3)
    triples = random_triples(rng, 20, 3, 60)
    for task in (1, 2, 3):
        a = make_splits(triples, 20, task=task, n_folds=5, seed=9)
        b = make_splits(triples, 20, task=task, n_folds=5, seed=9)
        for fa, fb in zip(a.folds, b.folds):
            assert fa.train == fb.train and fa.test == fb.test
        c = make_splits(triples, 20, task=task, n_folds=5, seed=10)
        assert any(fa.test != fc.test for fa, fc in zip(a.folds, c.folds))


def test_splits_parameter_validation():
    with pytest.raises(ParameterError):
        make_splits([], 4, task=4)
    with pytest.raises(ParameterError):
        make_splits([], 4, task=1, n_folds=1)


def test_perfect_predictions_score_one_everywhere():
    labels = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    report = compute_metrics(labels.astype(float), labels)
    for value in (report.aupr, report.auc, report.acc, report.f1,
                  report.precision, report.recall):
        assert value == pytest.approx(1.0, abs=1e-12)


def test_constant_scores_give_tiebreak_class_and_half_auc():
    rng = np.random.default_rng(4)
    k, r = 40, 4
    labels = np.eye(r)[rng.integers(0, r, size=k)]
    scores = np.full((k, r), 1.0 / r)
    report = compute_metrics(scores, labels)
    assert report.acc == pytest.approx(labels[:, 0].mean())  # argmax tie -> class 0
    assert report.auc == pytest.approx(0.5, abs=1e-12)
    macro = compute_metrics(scores, labels, macro_curves=True)
    assert macro.auc == pytest.approx(0.5, abs=1e-12)


def test_curve_areas_match_oracle_on_50_random_sets():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(10, 501))
        r = int(rng.integers(2, 11))
        labels = np.eye(r)[rng.integers(0, r, size=k)]
        logits = rng.normal(size=(k, r))
        if rng.random() < 0.3:
            logits = np.round(logits, 1)  # force score ties
        scores = np.exp(logits)
        scores /= scores.sum(axis=1, keepdims=True)
        report = compute_metrics(scores, labels)
        aupr, auc = metric_oracle(scores.ravel(), labels.ravel() > 0.5)
        assert report.aupr == pytest.approx(aupr, abs=1e-9)
        assert report.auc == pytest.approx(auc, abs=1e-9)


def stable_sort_curve_areas(scores, positives):
    """Reference: the descending sweep over a stable sort, which keeps every
    tie group in input order."""
    n, n_pos = len(scores), int(positives.sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(positives[order])[ends]
    recall, precision = tp / n_pos, tp / (ends + 1)
    aupr = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    starts = np.append(0, ends[:-1] + 1)
    midranks = ((n - 1 - ends) + (n - 1 - starts)) / 2.0 + 1.0
    rank_sum = (np.diff(tp, prepend=0) * midranks).sum()
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return float(aupr), float(auc)


def test_curve_areas_are_those_of_a_stable_sort_to_the_bit():
    # the sweep reads counts only at tie-group ends, so the order inside a
    # group is free; scores drawn from few levels make large tie groups
    rng = np.random.default_rng(37)
    sizes = [150_000, 200_000] + [int(n) for n in np.geomspace(10, 200_000, 100)]
    for n in sizes:
        levels = int(rng.choice([2, 7, 100, 10_000]))
        scores = rng.integers(0, levels, size=n) / levels
        positives = rng.random(n) < rng.uniform(0.01, 0.5)
        positives[:2] = True, False
        assert _curve_areas(scores, positives) == stable_sort_curve_areas(
            scores, positives), n


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(6)
    k, r = 30, 5
    labels = np.eye(r)[rng.integers(0, r, size=k)]
    scores = rng.dirichlet(np.ones(r), size=k)
    perm = rng.permutation(k)
    a = compute_metrics(scores, labels)
    b = compute_metrics(scores[perm], labels[perm])
    assert a.as_dict() == b.as_dict()


def test_absent_classes_skipped_in_macro():
    labels = np.eye(5)[[0, 1, 0, 1]]  # classes 2..4 never appear
    scores = np.eye(5)[[0, 1, 1, 1]] * 0.9 + 0.02
    report = compute_metrics(scores, labels)
    assert report.skipped_classes == (2, 3, 4)
    # macro means over the two present classes only
    # class 0: P=1, R=0.5; class 1: P=2/3, R=1
    assert report.precision == pytest.approx((1.0 + 2.0 / 3.0) / 2)
    assert report.recall == pytest.approx(0.75)


def loop_macro_prf(true_class, pred_class):
    """Reference: (F1, precision, recall) macro-averaged over the present
    classes, each class counted by three boolean passes."""
    precisions, recalls, f1s = [], [], []
    for c in sorted(set(true_class.tolist())):
        tp = int(((pred_class == c) & (true_class == c)).sum())
        fp = int(((pred_class == c) & (true_class != c)).sum())
        fn = int(((pred_class != c) & (true_class == c)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return float(np.mean(f1s)), float(np.mean(precisions)), float(np.mean(recalls))


def test_macro_prf_from_the_confusion_matrix_matches_the_loop_to_the_bit():
    rng = np.random.default_rng(43)
    for _ in range(200):
        r = int(rng.integers(2, 70))
        k = int(rng.integers(2, 3001))
        present = rng.choice(r, size=int(rng.integers(1, r + 1)), replace=False)
        true_class = rng.choice(present, size=k)
        # few score levels make argmax ties; the boost makes true positives
        scores = rng.integers(0, 4, size=(k, r)).astype(float)
        scores[np.arange(k), true_class] += rng.integers(0, 3, size=k)
        report = compute_metrics(scores, np.eye(r)[true_class])
        assert (report.f1, report.precision, report.recall) == loop_macro_prf(
            true_class, scores.argmax(axis=1)), (r, k)


def test_single_class_labels_reject_curves():
    labels = np.tile([1.0, 0.0], (4, 1))
    scores = np.tile([0.6, 0.4], (4, 1))
    with pytest.raises(ValidationError):
        compute_metrics(scores, labels, macro_curves=True)


def test_summarize_reports():
    reports = [MetricReport(0.8, 0.9, 0.7, 0.6, 0.65, 0.55),
               MetricReport(0.9, 1.0, 0.8, 0.7, 0.75, 0.65)]
    out = summarize_reports(reports)
    assert out["summary"]["AUPR"]["mean"] == pytest.approx(0.85)
    assert out["summary"]["AUC"]["std"] == pytest.approx(0.05)
    assert len(out["folds"]) == 2
