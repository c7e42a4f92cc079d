"""Multi-view differentiable spectral clustering over a batch of drug pairs.

Four views share one construction: learned multi-head adjacencies over a
per-view source (the comprehensive features, or the summed pair sequences of
one descriptor kind, projected per drug), relu graph-cut assignments, a
residual output mix, and two unsupervised regularizers derived from the
normalized-cut objective.
No eigendecomposition happens here; the classical route lives in `oracle`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .errors import BatchSizeError, ShapeError
from .featurize import DESCRIPTOR_KINDS

VIEW_ORDER = ("comprehensive", *DESCRIPTOR_KINDS)


@dataclass
class DscView:
    """Weights for one clustering view."""

    prefix: str
    n_heads: int
    params: dict

    @classmethod
    def build(cls, rng, prefix: str, source_dim: int, feature_dim: int,
              n_clusters: int, n_heads: int, proj_dim: int) -> "DscView":
        params = {}
        for m in range(n_heads):
            params[f"{prefix}.adj{m}"] = nk.xavier_uniform(rng, source_dim, proj_dim)
            params[f"{prefix}.assign{m}"] = nk.xavier_uniform(rng, feature_dim, n_clusters)
        params[f"{prefix}.mix"] = nk.xavier_uniform(rng, n_heads * n_clusters, feature_dim)
        return cls(prefix, n_heads, params)


def _check_pairs(k: int) -> None:
    """A clustering view clusters its batch, so it needs at least 2 pairs."""
    if k < 2:
        raise BatchSizeError(f"need at least 2 pairs, got {k}")


def dsc_adjacency(projected) -> nk.Tensor:
    """One head from its projected pairs: Gram matrix, row softmax.

    Rows sum to 1, so the degree matrix of the result is the identity.
    """
    projected = nk.as_tensor(projected)
    _check_pairs(projected.shape[0])
    return nk.softmax_rows(nk.matmul(projected, nk.transpose(projected)))


def graph_cut_assign(adjacency, features, weight) -> nk.Tensor:
    """relu(A @ (features @ W)): nonnegative soft cluster assignments.
    Projecting first makes the K x K product cost K^2 C flops, not K^2 d."""
    return nk.relu(nk.matmul(adjacency, nk.matmul(features, weight)))


def dsc_output(assignments, features, mix_weight) -> nk.Tensor:
    """Concatenate head assignments, mix, and add the features back."""
    stacked = nk.concat_cols(assignments)
    return nk.relu(nk.add(nk.matmul(stacked, mix_weight), features))


def _is_degenerate(assignment: nk.Tensor) -> bool:
    return not assignment.data.any()


def loss_graph_cut(assignments, adjacencies):
    """-(1/M) sum_m tr(F^T A F) / tr(F^T F); post-softmax degrees are 1 so
    the degree matrix drops out. All-zero heads are skipped (0/0 guard);
    returns (1x1 tensor, skipped-head count)."""
    if len(assignments) != len(adjacencies):
        raise ShapeError("head counts differ between assignments and adjacencies")
    n_heads = len(assignments)
    total = None
    skipped = 0
    for f, a in zip(assignments, adjacencies):
        if _is_degenerate(f):
            skipped += 1
            continue
        num = nk.sum_all(nk.mul(f, nk.matmul(a, f)))   # tr(F^T A F)
        den = nk.sum_all(nk.mul(f, f))                 # tr(F^T F)
        term = nk.div(num, den)
        total = term if total is None else nk.add(total, term)
    if total is None:
        return nk.constant([[0.0]]), skipped
    return nk.scale(total, -1.0 / n_heads), skipped


def loss_orthogonality(assignments):
    """(1/M) sum_m || F^T F / ||F^T F||_F - I_C / sqrt(C) ||_F.

    Zero at (and only at) a scaled orthonormal Gram; all-zero heads are
    skipped as in the cut loss. Returns (1x1 tensor, skipped-head count).
    """
    n_heads = len(assignments)
    total = None
    skipped = 0
    for f in assignments:
        if _is_degenerate(f):
            skipped += 1
            continue
        n_clusters = f.shape[1]
        gram = nk.matmul(nk.transpose(f), f)
        normed = nk.div(gram, nk.frobenius_norm(gram))
        target = nk.constant(np.eye(n_clusters) / np.sqrt(n_clusters))
        term = nk.frobenius_norm(nk.sub(normed, target))
        total = term if total is None else nk.add(total, term)
    if total is None:
        return nk.constant([[0.0]]), skipped
    return nk.scale(total, 1.0 / n_heads), skipped


@dataclass
class MvdscResult:
    representation: nk.Tensor       # K x (4 * feature width)
    regularizer: nk.Tensor | None   # 1x1, mean of per-view gc + or losses
    diagnostics: dict = field(default_factory=dict)  # per view: losses, skips


def view_forward(view: DscView, project, features, keep_adjacencies: bool):
    """One view end to end, one head at a time: project(W_adj) gives the
    head's K x P projected pairs, then adjacency, then assignment. While a
    tape records, a head's K x K adjacency is built whole and serves both the
    assignment and the graph-cut loss. Otherwise the head is
    relu(softmax_gram_matmul(projected, features @ W_assign)), which never
    holds more than a tile of it, and the adjacency is built only if
    `keep_adjacencies` asks for it, for the loss; else the list is empty."""
    _check_pairs(features.shape[0])
    taping = nk.recording([features, *view.params.values()])
    assignments, adjacencies = [], []
    for m in range(view.n_heads):
        projected = project(view.params[f"{view.prefix}.adj{m}"])
        w_assign = view.params[f"{view.prefix}.assign{m}"]
        if taping:
            a = dsc_adjacency(projected)
            assignments.append(graph_cut_assign(a, features, w_assign))
            adjacencies.append(a)
            continue
        assignments.append(nk.relu(nk.softmax_gram_matmul(
            projected, nk.matmul(features, w_assign))))
        if keep_adjacencies:
            adjacencies.append(dsc_adjacency(projected))
    output = dsc_output(assignments, features, view.params[f"{view.prefix}.mix"])
    return output, assignments, adjacencies


def mvdsc_forward(features, descriptors: dict, us, vs, views: dict,
                  regularize: bool = True) -> MvdscResult:
    """Run the four views and merge them in fixed order.

    features: K x d tensor (comprehensive pair features), the comprehensive
    view's source. A descriptor view's source is the summed pair row
    M[us] + M[vs] of its kind's per-drug matrix M = descriptors[kind], read
    only through its projection (M @ W_adj)[us] + (M @ W_adj)[vs], so no
    K x T block is built. With `regularize` false no loss is formed, so the
    result carries no regularizer and no diagnostics.
    """
    outputs = []
    diagnostics = {}
    reg_total = None
    for kind in VIEW_ORDER:
        project = (functools.partial(nk.matmul, features) if kind == "comprehensive"
                   else functools.partial(nk.pair_linear, descriptors[kind], us=us, vs=vs))
        output, assignments, adjacencies = view_forward(
            views[kind], project, features, keep_adjacencies=regularize)
        outputs.append(output)
        if not regularize:
            continue
        # both losses skip the same all-zero heads
        l_gc, skipped = loss_graph_cut(assignments, adjacencies)
        l_or, _ = loss_orthogonality(assignments)
        reg_view = nk.add(l_gc, l_or)
        reg_total = reg_view if reg_total is None else nk.add(reg_total, reg_view)
        diagnostics[kind] = {
            "graph_cut": l_gc.item(),
            "orthogonality": l_or.item(),
            "degenerate_heads": skipped,
        }
    return MvdscResult(
        representation=nk.concat_cols(outputs),
        regularizer=(nk.scale(reg_total, 1.0 / len(VIEW_ORDER))
                     if regularize else None),
        diagnostics=diagnostics,
    )
