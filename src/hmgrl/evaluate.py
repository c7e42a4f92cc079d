"""Fold generation for the three prediction settings and the six metrics.

Setting 1 partitions interactions; settings 2 and 3 partition drugs, so the
held-out fold contains cold-start drugs. Metrics: curve areas micro-averaged
one-vs-rest (flag for macro), accuracy micro, F1/precision/recall macro over
classes present in the labels. Ties in ranking use midranks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError


@dataclass
class Fold:
    train: list       # index triples (u, v, r)
    test: list
    new_drugs: set = field(default_factory=set)  # empty for task 1


@dataclass
class SplitPlan:
    task: int
    n_folds: int
    seed: int
    folds: list


def make_splits(triples, n_drugs: int, task: int, n_folds: int = 5,
                seed: int = 0) -> SplitPlan:
    """Deterministic fold plan.

    Task 1: interactions are shuffled and partitioned; each fold tests on its
    share and trains on the rest. Tasks 2/3: drugs are partitioned; the held
    fold's drugs are "new". Train = interactions between known drugs (same
    set for both tasks); task 2 tests interactions with exactly one new drug,
    task 3 those with two.
    """
    if task not in (1, 2, 3):
        raise ParameterError(f"task must be 1, 2 or 3, got {task}")
    if n_folds < 2:
        raise ParameterError(f"need at least 2 folds, got {n_folds}")
    triples = list(triples)
    rng = np.random.default_rng(seed)
    folds = []
    if task == 1:
        order = rng.permutation(len(triples))
        shares = np.array_split(order, n_folds)
        for i in range(n_folds):
            test_idx = set(shares[i].tolist())
            fold = Fold(
                train=[triples[j] for j in range(len(triples)) if j not in test_idx],
                test=[triples[j] for j in sorted(test_idx)],
            )
            folds.append(fold)
    else:
        drug_order = rng.permutation(n_drugs)
        drug_shares = np.array_split(drug_order, n_folds)
        for i in range(n_folds):
            new_drugs = set(drug_shares[i].tolist())
            train = [t for t in triples
                     if t[0] not in new_drugs and t[1] not in new_drugs]
            if task == 2:
                test = [t for t in triples
                        if (t[0] in new_drugs) != (t[1] in new_drugs)]
            else:
                test = [t for t in triples
                        if t[0] in new_drugs and t[1] in new_drugs]
            if not test:
                warnings.warn(f"fold {i}: no test interactions for task {task}")
            folds.append(Fold(train=train, test=test, new_drugs=new_drugs))
    return SplitPlan(task=task, n_folds=n_folds, seed=seed, folds=folds)


@dataclass
class MetricReport:
    aupr: float
    auc: float
    acc: float
    f1: float
    precision: float
    recall: float
    averaging: str = "micro-curves/macro-prf"
    skipped_classes: tuple = ()

    def as_dict(self) -> dict:
        return {
            "AUPR": self.aupr, "AUC": self.auc, "ACC": self.acc,
            "F1": self.f1, "Precision": self.precision, "Recall": self.recall,
            "averaging": self.averaging,
            "skipped_classes": list(self.skipped_classes),
        }


def _curve_areas(scores: np.ndarray, positives: np.ndarray) -> tuple[float, float]:
    """(AUPR, AUC) from one descending sweep over the tie groups of scores.

    AUPR steps the precision-recall curve at each distinct-score threshold;
    AUC is the Mann-Whitney statistic with midranks for ties.
    """
    n = len(scores)
    n_pos = int(positives.sum())
    if n_pos == 0:
        raise ValidationError("curve areas undefined without positives")
    if n_pos == n:
        raise ValidationError("curve areas undefined without negatives")
    # counts are read only at tie-group ends, so the order inside a group
    # is free: numpy's default (SIMD) sort gives the same areas to the bit
    order = np.argsort(-scores)
    s = scores[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last index per group
    tp = np.cumsum(positives[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # summed in group order, as a running sum over the thresholds would be
    aupr = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    starts = np.append(0, ends[:-1] + 1)
    midranks = ((n - 1 - ends) + (n - 1 - starts)) / 2.0 + 1.0  # ascending, 1-based
    rank_sum = (np.diff(tp, prepend=0) * midranks).sum()  # exact half-integers
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return float(aupr), float(auc)


def compute_metrics(scores: np.ndarray, labels: np.ndarray,
                    macro_curves: bool = False) -> MetricReport:
    """Six metrics from K x R probability rows and K x R one-hot labels.

    Curve areas are computed one-vs-rest: micro (flattened) by default,
    per-class macro with `macro_curves`. Classes absent from the labels are
    skipped in macro averages and reported.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValidationError(f"scores {scores.shape} vs labels {labels.shape}")
    k, r = scores.shape
    true_class = labels.argmax(axis=1)
    pred_class = scores.argmax(axis=1)
    # confusion[t, p]: pairs of true class t predicted as p
    confusion = np.bincount(true_class * r + pred_class, minlength=r * r).reshape(r, r)
    actual = confusion.sum(axis=1)
    present = np.flatnonzero(actual).tolist()
    skipped = tuple(np.flatnonzero(actual == 0).tolist())

    if macro_curves:
        areas, curve_skipped = [], []
        for c in present:
            pos = true_class == c
            if pos.all() or not pos.any():
                curve_skipped.append(c)
                continue
            areas.append(_curve_areas(scores[:, c], pos))
        if not areas:
            raise ValidationError("macro curves undefined: single-class labels")
        if curve_skipped:
            warnings.warn(f"macro curves skipped single-class events {curve_skipped}")
        aupr = float(np.mean([a for a, _ in areas]))
        auc = float(np.mean([a for _, a in areas]))
        averaging = "macro-curves/macro-prf"
    else:
        flat_scores = scores.ravel()
        flat_pos = labels.ravel() > 0.5
        aupr, auc = _curve_areas(flat_scores, flat_pos)
        averaging = "micro-curves/macro-prf"

    acc = float((pred_class == true_class).mean())

    # macro precision, recall and F1 over the present classes, 0 at a 0 denominator
    tp, predicted = np.diag(confusion)[present], confusion.sum(axis=0)[present]
    recalls = tp / actual[present]
    precisions = np.divide(tp, predicted, out=np.zeros(len(tp)), where=predicted > 0)
    both = precisions + recalls
    f1s = np.divide(2 * precisions * recalls, both, out=np.zeros(len(tp)), where=both > 0)

    return MetricReport(
        aupr=float(aupr), auc=float(auc), acc=acc,
        f1=float(np.mean(f1s)), precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        averaging=averaging, skipped_classes=skipped,
    )


def summarize_reports(reports) -> dict:
    """Per-fold rows plus mean and standard deviation per metric."""
    keys = ("AUPR", "AUC", "ACC", "F1", "Precision", "Recall")
    rows = [r.as_dict() for r in reports]
    summary = {}
    for key in keys:
        vals = np.array([row[key] for row in rows])
        summary[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return {"folds": rows, "summary": summary}
