"""Independent verification tools.

Nothing here enters a training path: finite-difference gradient estimates
and the pinned micro case they check, a classical eigendecomposition-based
clustering routine with its cut objective, and quadratic-cost
threshold-enumeration curve areas. These are the second route for every
dual-route check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import NumericError, ParameterError, PartitionError, ValidationError
from .graphcore import RelGraph
from .model import HmgrlModel, one_hot
from .synth import SynthSpec, generate


@dataclass
class FdConfig:
    h: float = 1e-5
    rel_tol: float = 1e-4
    abs_tol: float = 1e-7
    sample_count: int = 16   # coords checked per tensor above the full-sweep size
    full_sweep_size: int = 64

    def __post_init__(self):
        if self.h <= 0:
            raise ParameterError("finite-difference step must be > 0")
        if self.sample_count < 1:
            raise ParameterError(f"sample count must be >= 1, got {self.sample_count}")


def _central_difference(f, x: np.ndarray, idx, h: float) -> float:
    """(f(x + h e_idx) - f(x - h e_idx)) / 2h for scalar f of the array x,
    which is mutated in place and then restored. A non-finite f value raises
    NumericError."""
    orig = x[idx]
    x[idx] = orig + h
    f_plus = f()
    x[idx] = orig - h
    f_minus = f()
    x[idx] = orig
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NumericError(f"f not finite near coordinate {idx}")
    return (f_plus - f_minus) / (2.0 * h)


def gradcheck(loss_fn, params: dict, config: FdConfig | None = None,
              rng: np.random.Generator | None = None) -> dict[str, dict]:
    """Compare analytic gradients against central differences.

    loss_fn() must rebuild the forward graph from the current parameter
    values and return a 1x1 loss tensor. Tensors with at most
    config.full_sweep_size or config.sample_count entries are swept fully;
    larger ones on config.sample_count deterministically sampled coordinates.

    Returns per-parameter records {max_rel_err, checked, ok}. A non-finite
    analytic entry makes max_rel_err NaN and fails the check; a non-finite
    loss near a checked coordinate raises NumericError.
    """
    from .numkit import Tape

    config = config or FdConfig()
    rng = rng or np.random.default_rng(0)

    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    def eval_loss() -> float:
        from .numkit import no_grad

        with no_grad():
            return loss_fn().item()

    report = {}
    for name, p in params.items():
        size = p.data.size
        if size <= max(config.full_sweep_size, config.sample_count):
            coords = list(np.ndindex(p.data.shape))
        else:
            flat = rng.choice(size, size=config.sample_count, replace=False)
            coords = [np.unravel_index(i, p.data.shape) for i in sorted(flat)]
        errors = []
        for idx in coords:
            try:
                fd = _central_difference(eval_loss, p.data, idx, config.h)
            except NumericError as err:
                raise NumericError(f"{name}: {err}") from None
            an = analytic[name][idx]
            errors.append(abs(fd - an) / max(abs(fd), abs(an), config.abs_tol))
        max_rel = float(np.max(errors, initial=0.0))   # NaN propagates
        report[name] = {
            "max_rel_err": max_rel,
            "checked": len(coords),
            "ok": max_rel <= config.rel_tol,
        }
    return report


# (data, model, nudge, FD sample) seeds of the pinned micro gradient check
GRADCHECK_SEEDS = (7, 3, 5, 11)


def micro_gradcheck(config: RunConfig, seeds, fd: FdConfig) -> dict[str, dict]:
    """gradcheck of every parameter of a `config` model on a 12-drug,
    4-event synthetic set, scoring a batch of 8 pairs with no RNG given, so
    mixup and dropout stay off; `seeds` as in GRADCHECK_SEEDS. The nudge
    moves zero-initialized biases off the relu kink."""
    data_seed, model_seed, nudge_seed, fd_seed = seeds
    table, id_triples = generate(SynthSpec(
        seed=data_seed, n_drugs=12, n_events=4, density=0.5, targets_size=10,
        enzymes_size=8, substructures_size=12, smiles_length=(10, 24)))
    triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
    n_relations = max(r for _, _, r in triples) + 1
    model = HmgrlModel(config, table, n_relations, seed=model_seed)
    nudge = np.random.default_rng(nudge_seed)
    for p in model.params.values():
        p.data += nudge.normal(scale=0.02, size=p.data.shape)
    graph = RelGraph.from_triples(len(table), n_relations, triples)
    batch = triples[:8]
    pairs = [(u, v) for u, v, _ in batch]
    labels = one_hot([r for _, _, r in batch], n_relations)

    def loss():
        return model.forward(graph, pairs, labels=labels).loss_total

    return gradcheck(loss, model.params, fd, rng=np.random.default_rng(fd_seed))


# ------------------------------------------------------------- cut objective

def _check_symmetric_nonneg(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got {a.shape}")
    if (a < 0).any():
        raise ValidationError("adjacency entries must be nonnegative")
    if not np.array_equal(a, a.T):
        raise ValidationError("adjacency must be symmetric")
    return a


def ncut_objective(a: np.ndarray, labels) -> float:
    """(1/2) sum_i cut(S_i, complement)/vol(S_i) over the hard partition.

    vol(S_i) is the degree sum over S_i. A cluster with zero volume is legal
    only when it is also cut-free (contributes 0); otherwise the ratio is
    undefined and raises.
    """
    a = _check_symmetric_nonneg(a)
    labels = np.asarray(labels)
    if labels.shape != (a.shape[0],):
        raise PartitionError(f"labels shape {labels.shape} != ({a.shape[0]},)")
    total = 0.0
    degrees = a.sum(axis=1)
    for c in np.unique(labels):
        mask = labels == c
        if not mask.any():
            raise PartitionError(f"cluster {c} is empty")
        cut = a[np.ix_(mask, ~mask)].sum()
        vol = degrees[mask].sum()
        if vol == 0.0:
            if cut != 0.0:
                raise PartitionError(f"cluster {c} has zero volume but nonzero cut")
            continue
        total += cut / vol
    return 0.5 * total


def ncut_trace_form(a: np.ndarray, labels) -> float:
    """tr(F^T D^{-1/2} L D^{-1/2} F) on volume-normalized hard indicators.

    F columns are D^{1/2} 1_S / sqrt(vol(S)), so F^T F = I_C. The value
    equals sum_i cut(S_i)/vol(S_i), i.e. exactly twice ncut_objective.
    """
    a = _check_symmetric_nonneg(a)
    labels = np.asarray(labels)
    degrees = a.sum(axis=1)
    if (degrees == 0).any():
        raise ValidationError("trace form needs strictly positive degrees")
    clusters = np.unique(labels)
    f = np.zeros((a.shape[0], clusters.size))
    for j, c in enumerate(clusters):
        mask = labels == c
        vol = degrees[mask].sum()
        f[mask, j] = np.sqrt(degrees[mask]) / np.sqrt(vol)
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.diag(degrees) - a
    mid = d_inv_sqrt[:, None] * lap * d_inv_sqrt[None, :]
    return float(np.trace(f.T @ mid @ f))


# --------------------------------------------------- eigendecomposition path

def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns (eigenvalues desc, eigenvectors as columns). Self-contained and
    deterministic; adequate for oracle duty at K <= 64.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValidationError("jacobi_eigh needs a symmetric matrix")
    n = a.shape[0]
    m = a.copy()
    vecs = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt((m ** 2).sum() - (np.diag(m) ** 2).sum())
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) < tol * 1e-3:
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot_p = c * m[:, p] - s * m[:, q]
                rot_q = s * m[:, p] + c * m[:, q]
                m[:, p], m[:, q] = rot_p, rot_q
                rot_p = c * m[p, :] - s * m[q, :]
                rot_q = s * m[p, :] + c * m[q, :]
                m[p, :], m[q, :] = rot_p, rot_q
                vec_p = c * vecs[:, p] - s * vecs[:, q]
                vec_q = s * vecs[:, p] + c * vecs[:, q]
                vecs[:, p], vecs[:, q] = vec_p, vec_q
    eigvals = np.diag(m).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], vecs[:, order]


def spectral_cluster_oracle(a: np.ndarray, n_clusters: int):
    """Classical spectral clustering on E = D^{-1/2} A D^{-1/2}.

    Returns (F: orthonormal columns for the top-C eigenvalues, those
    eigenvalues, hard labels via per-row argmax of F).
    """
    a = _check_symmetric_nonneg(a)
    k = a.shape[0]
    if not 1 <= n_clusters <= k:
        raise ParameterError(f"cluster count {n_clusters} out of range 1..{k}")
    degrees = a.sum(axis=1)
    if (degrees == 0).any():
        raise ValidationError("isolated zero-degree node; oracle undefined")
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    e = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
    eigvals, eigvecs = jacobi_eigh(e)
    f = eigvecs[:, :n_clusters]
    # fix sign per column so the output is unique: largest-|entry| positive
    for j in range(f.shape[1]):
        lead = np.argmax(np.abs(f[:, j]))
        if f[lead, j] < 0:
            f[:, j] = -f[:, j]
    labels = np.argmax(f, axis=1)
    return f, eigvals[:n_clusters], labels


# ------------------------------------------------------------- metric oracle

def metric_oracle(scores: np.ndarray, positives: np.ndarray) -> tuple[float, float]:
    """Exact PR and ROC areas by exhaustive threshold enumeration.

    scores: 1-D; positives: same-length booleans. Every distinct score is a
    threshold (predict positive at score >= t); each threshold's confusion
    counts are recomputed from scratch, O(n * #thresholds). Returns
    (area under PR by step integration, area under ROC by trapezoid).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = np.asarray(positives, dtype=bool).ravel()
    if scores.shape != positives.shape:
        raise ValidationError("scores/labels length mismatch")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("need at least one positive and one negative")

    pr_points = [(0.0, 1.0)]    # (recall, precision); precision at R=0 unused
    roc_points = [(0.0, 0.0)]   # (fpr, tpr)
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = int((predicted & positives).sum())
        fp = int((predicted & ~positives).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp) if tp + fp else 1.0
        pr_points.append((recall, precision))
        roc_points.append((fp / n_neg, tp / n_pos))

    aupr = 0.0
    prev_r = 0.0
    for r, p in pr_points[1:]:
        aupr += (r - prev_r) * p
        prev_r = r
    auc = 0.0
    prev_fpr, prev_tpr = 0.0, 0.0
    for fpr, tpr in roc_points[1:]:
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_fpr, prev_tpr = fpr, tpr
    return aupr, auc
