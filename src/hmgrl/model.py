"""End-to-end model assembly, losses, Mixup, training loop, and prediction.

The training loop follows the batch procedure: refresh the graph embeddings
inside every batch (gradients flow end to end through them), assemble the
five per-pair feature sources, run the four clustering views, decode, and
take one optimizer step on cross-entropy plus the weighted regularizer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .config import RunConfig
from .encoders import CnnBlock, EncoderBlock
from .errors import (
    BatchSizeError,
    DataError,
    NumericError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from .evaluate import Fold
from .featurize import (
    DESCRIPTOR_KINDS,
    DrugTable,
    encode_smiles_table,
    read_drug_table,
)
from .graphcore import (
    RelGraph,
    dds_propagate,
    fuse_ragse,
    read_ddi_file,
    rgcn_forward,
)
from .mvdsc import VIEW_ORDER, DscView, mvdsc_forward

@dataclass
class DdiDataset:
    """Drug table plus resolved (u, v, event) index triples."""

    table: DrugTable
    triples: list
    n_relations: int

    @classmethod
    def load(cls, drug_table_path, ddi_path) -> "DdiDataset":
        table = read_drug_table(drug_table_path)
        triples = read_ddi_file(ddi_path, table)
        if not triples:
            raise DataError("dataset has no interactions", path=ddi_path)
        n_relations = max(r for _, _, r in triples) + 1
        return cls(table, triples, n_relations)

    @property
    def n_drugs(self) -> int:
        return len(self.table)


@dataclass
class TrainRecord:
    epoch: int
    batch: int
    loss_ce: float
    loss_dsc: float
    loss_total: float
    view_diagnostics: dict
    degenerate_heads: int
    wall_time: float


@dataclass
class ForwardResult:
    probabilities: nk.Tensor
    regularizer: nk.Tensor | None   # None (and no diagnostics) without labels
    view_diagnostics: dict
    loss_ce: nk.Tensor | None = None
    loss_total: nk.Tensor | None = None


class _NoDraws:
    """Stands in for the initializer's Generator when every parameter comes
    from given arrays: a draw is a zero-stride view, so no random numbers are
    made before the arrays replace the parameters."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(np.float64(0.0), size)


class HmgrlModel:
    """All named parameters; the drug table's arrays are read in place. The
    parameters are a seeded initialization, or the given named `arrays`
    themselves (a checkpoint's), checked by load_arrays; then none is drawn."""

    def __init__(self, config: RunConfig, table: DrugTable, n_relations: int,
                 seed=0, arrays: dict[str, np.ndarray] | None = None):
        self.config = config
        self.table = table
        self.n_relations = n_relations
        self.n_drugs = len(table)

        init_rng = np.random.default_rng(seed) if arrays is None else _NoDraws()

        # constant table-level features
        self.dds = table.similarity_graph
        self.smiles_index = encode_smiles_table(table.smiles)  # N x 100

        d_in = self.dds.stacked.shape[1]
        d_embed = config.embed_dim
        d_att = config.attention_dim
        d_emb_out = config.embedding_encoder_dim
        # the SMILES CNN and each descriptor kind's encoder give d_att columns
        self.feature_dim = (1 + len(DESCRIPTOR_KINDS)) * d_att + d_emb_out

        self.params: dict[str, nk.Tensor] = {}

        # the relational layer maps the stacked similarities (3N) to d'; its
        # weights keep the `rgcn0.` names that saved checkpoints hold
        for r in range(n_relations):
            self.params[f"rgcn0.rel{r}"] = nk.xavier_uniform(init_rng, d_in, d_embed)
        self.params["rgcn0.self"] = nk.xavier_uniform(init_rng, d_in, d_embed)

        for kind in DESCRIPTOR_KINDS:
            self.params[f"fuse.{kind}"] = nk.xavier_uniform(init_rng, d_embed, d_embed)

        self.cnn = CnnBlock.build(init_rng, "cnn", config.cnn_channels,
                                  config.cnn_kernels, d_att)
        self.params.update(self.cnn.params)

        enc_kw = dict(token_count=config.token_count, token_dim=config.token_dim,
                      n_heads=config.attn_heads)
        # the embedding-pair encoder, then one per descriptor kind
        self.encoders = {"embedding": EncoderBlock.build(
            init_rng, "enc_emb", in_dim=2 * d_embed, out_dim=d_emb_out, **enc_kw)}
        for kind in DESCRIPTOR_KINDS:
            self.encoders[kind] = EncoderBlock.build(
                init_rng, f"enc_{kind[:3]}", in_dim=2 * self.n_drugs,
                out_dim=d_att, **enc_kw)
        for enc in self.encoders.values():
            self.params.update(enc.params)

        self.views = {}
        for kind in VIEW_ORDER:
            src_dim = (self.feature_dim if kind == "comprehensive"
                       else getattr(table, kind).shape[1])
            self.views[kind] = DscView.build(
                init_rng, f"dsc_{kind[:4]}", src_dim, self.feature_dim,
                n_clusters=config.dsc_clusters, n_heads=config.dsc_heads,
                proj_dim=config.effective_dsc_proj_dim)
            self.params.update(self.views[kind].params)

        hidden = config.decoder_hidden
        self.params["decoder.fc1.w"] = nk.xavier_uniform(
            init_rng, len(VIEW_ORDER) * self.feature_dim, hidden)
        self.params["decoder.fc1.b"] = nk.parameter(np.zeros((1, hidden)))
        self.params["decoder.fc2.w"] = nk.xavier_uniform(init_rng, hidden, n_relations)
        self.params["decoder.fc2.b"] = nk.parameter(np.zeros((1, n_relations)))
        if arrays is not None:
            self.load_arrays(arrays)

    # ------------------------------------------------------------- plumbing

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt the given arrays as parameter data, without copying them."""
        if set(arrays) != set(self.params):
            missing = set(self.params) - set(arrays)
            extra = set(arrays) - set(self.params)
            raise ValidationError(f"checkpoint mismatch: missing={sorted(missing)}"
                                  f" extra={sorted(extra)}")
        for name, arr in arrays.items():
            if arr.shape != self.params[name].data.shape:
                raise ShapeError(f"{name}: checkpoint shape {arr.shape} != "
                                 f"{self.params[name].data.shape}")
            self.params[name].data = arr

    # -------------------------------------------------------------- forward

    def drug_embeddings(self, graph: RelGraph) -> nk.Tensor:
        """Graph pass: relational aggregation, similarity propagation, fusion."""
        x = rgcn_forward(graph, nk.constant(self.dds.stacked),
                         [self.params[f"rgcn0.rel{r}"] for r in range(self.n_relations)],
                         self.params["rgcn0.self"])
        channels = dds_propagate(self.dds, x, self.config.propagation_hops)
        return fuse_ragse(channels, [self.params[f"fuse.{kind}"]
                                     for kind in DESCRIPTOR_KINDS])

    def comprehensive_features(self, embeddings: nk.Tensor, us: np.ndarray,
                               vs: np.ndarray) -> nk.Tensor:
        """The five source encodings side by side: SMILES, embedding pair,
        then each descriptor kind's similarity pair in DESCRIPTOR_KINDS order."""
        parts = [self.cnn.forward(self.smiles_index, us, vs),
                 self.encoders["embedding"].forward(embeddings, us, vs)]
        for kind, sims in self.dds.similarities.items():
            parts.append(self.encoders[kind].forward(sims, us, vs))
        return nk.concat_cols(parts)

    def decode(self, representation: nk.Tensor,
               dropout_rng: np.random.Generator | None) -> nk.Tensor:
        hidden = nk.relu(nk.add_rowvec(
            nk.matmul(representation, self.params["decoder.fc1.w"]),
            self.params["decoder.fc1.b"]))
        if dropout_rng is not None:
            hidden = nk.dropout(hidden, self.config.dropout_rate, dropout_rng)
        logits = nk.add_rowvec(nk.matmul(hidden, self.params["decoder.fc2.w"]),
                               self.params["decoder.fc2.b"])
        return nk.softmax_rows(logits)

    def forward(self, graph: RelGraph, pairs, labels: np.ndarray | None = None,
                dropout_rng: np.random.Generator | None = None,
                mixup_rng: np.random.Generator | None = None) -> ForwardResult:
        """Score a batch of drug pairs. Each layer that reads a pair's two
        drugs runs on per-drug rows, gathered by the pairs' two index vectors.
        Training is passing the RNGs: dropout runs given `dropout_rng`, and
        mixup given config.mixup, `labels` and `mixup_rng`."""
        pairs = _pair_array(pairs)
        in_range = ((pairs >= 0) & (pairs < self.n_drugs)).all(axis=1)
        bad = ~in_range | (pairs[:, 0] == pairs[:, 1])
        if bad.any():
            k = int(np.argmax(bad))
            reason = ("a pair must join two distinct drugs" if in_range[k] else
                      f"drug index out of range 0..{self.n_drugs - 1}")
            raise ValidationError(f"pair ({pairs[k, 0]}, {pairs[k, 1]}): {reason}")
        if len(pairs) < 2:  # the clustering views cluster the query batch
            raise BatchSizeError(f"need at least 2 pairs, got {len(pairs)}")
        us, vs = pairs[:, 0], pairs[:, 1]
        embeddings = self.drug_embeddings(graph)
        features = self.comprehensive_features(embeddings, us, vs)

        labels_used = labels
        if self.config.mixup and labels is not None and mixup_rng is not None:
            features, labels_used, dominant = mixup_batch(features, labels, mixup_rng)
            us, vs = us[dominant], vs[dominant]  # only the views read them on

        # without labels no loss is formed, so the views skip their regularizers
        descriptors = {kind: getattr(self.table, kind) for kind in DESCRIPTOR_KINDS}
        clustered = mvdsc_forward(features, descriptors, us, vs, self.views,
                                  regularize=labels_used is not None)
        probs = self.decode(clustered.representation, dropout_rng)

        result = ForwardResult(probabilities=probs,
                               regularizer=clustered.regularizer,
                               view_diagnostics=clustered.diagnostics)
        if labels_used is not None:
            result.loss_ce = loss_ce(probs, labels_used)
            result.loss_total = total_loss(result.loss_ce, clustered.regularizer,
                                           self.config.regularizer_weight)
        return result


def _pair_array(pairs) -> np.ndarray:
    """K x 2 drug indices of a pair list or array, as np.intp; a ragged
    list, another shape or an entry that is not an integer (a float, a
    string, a bool) is a ValidationError naming it."""
    try:
        arr = np.asarray(pairs)
    except ValueError:   # numpy refuses an inhomogeneous nesting
        raise ValidationError("pairs must be K x 2 drug indices, got a ragged "
                              "list") from None
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"pairs must be K x 2 drug indices, got shape {arr.shape}")
    kind = arr.dtype.kind
    if kind in "ui" and arr is not pairs and not {bool, np.bool_}.isdisjoint(
            map(type, itertools.chain.from_iterable(pairs))):  # a list's bools read as ints
        kind = "b"
    if kind not in "ui":
        what = {"b": "booleans", "f": "floats", "U": "strings", "O": "objects"}.get(
            kind, arr.dtype.name)
        raise ValidationError(f"pairs must hold integer drug indices, not {what}")
    return arr.astype(np.intp, copy=False)


# ------------------------------------------------------------------- losses

def loss_ce(probabilities: nk.Tensor, labels: np.ndarray) -> nk.Tensor:
    """Cross entropy against (possibly mixed) label distributions, summed
    over the batch; log clamped at 1e-12."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != probabilities.shape:
        raise ShapeError(f"labels {labels.shape} vs probabilities "
                         f"{probabilities.shape}")
    picked = nk.mul(nk.constant(labels), nk.log_clamped(probabilities))
    return nk.scale(nk.sum_all(picked), -1.0)


def total_loss(ce: nk.Tensor, regularizer: nk.Tensor, weight: float) -> nk.Tensor:
    return nk.add(ce, nk.scale(regularizer, float(weight)))


def mixup_batch(features: nk.Tensor, labels: np.ndarray, rng: np.random.Generator):
    """Convexly mix features and labels with a random permutation partner.

    One lambda ~ Beta(1, 1) per batch. Returns (mixed features, mixed
    labels, dominant): the integer sequence sources are not convex-combinable,
    so the clustering views read the sequences of the batch rows `dominant`,
    each row's lambda-dominant partner.
    """
    k = features.shape[0]
    if k < 2:
        raise ParameterError("mixup needs at least 2 pairs")
    lam = float(rng.beta(1.0, 1.0))
    perm = rng.permutation(k)
    mixed = nk.add(nk.scale(features, lam),
                   nk.scale(nk.gather_rows(features, perm), 1.0 - lam))
    mixed_labels = lam * labels + (1.0 - lam) * labels[perm]
    return mixed, mixed_labels, (np.arange(k) if lam >= 0.5 else perm)


def one_hot(classes, n_classes: int) -> np.ndarray:
    classes = np.asarray(classes, dtype=np.intp)
    out = np.zeros((len(classes), n_classes))
    out[np.arange(len(classes)), classes] = 1.0
    return out


# ------------------------------------------------------------------ training

def _batches(n_items: int, batch_size: int, order: np.ndarray):
    """Contiguous slices of the shuffled order; a trailing slice of fewer
    than 2 items is merged into the previous batch."""
    edges = list(range(0, n_items, batch_size))
    slices = [order[lo:lo + batch_size] for lo in edges]
    if len(slices) > 1 and len(slices[-1]) < 2:
        slices[-2] = np.concatenate([slices[-2], slices[-1]])
        slices.pop()
    return slices


def train_fold(config: RunConfig, dataset: DdiDataset, fold: Fold,
               fold_index: int = 0, log_fn=None):
    """Train one fold from scratch; returns (model, graph, records), the
    model holding no gradients.

    The relational graph is built from the fold's training interactions
    only; held-out edges never enter the adjacency.
    """
    if len(fold.train) < 2:
        raise ValidationError("training fold needs at least 2 interactions")

    graph = RelGraph.from_triples(dataset.n_drugs, dataset.n_relations, fold.train)
    ss = np.random.SeedSequence((config.seed, fold_index))
    model_seed, shuffle_seed, dropout_seed, mixup_seed = ss.spawn(4)
    model = HmgrlModel(config, dataset.table, dataset.n_relations,
                       seed=model_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)
    mixup_rng = np.random.default_rng(mixup_seed)

    state = nk.OptimizerState(lr=config.learning_rate, rectified=config.rectified)
    pair_array = np.array([(u, v) for u, v, _ in fold.train], dtype=np.intp)
    label_array = one_hot([r for _, _, r in fold.train], dataset.n_relations)

    records = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(pair_array))
        for batch_no, batch_idx in enumerate(_batches(len(pair_array),
                                                      config.batch_size, order)):
            start = time.perf_counter()
            model.zero_grad()
            with nk.Tape() as tape:
                result = model.forward(graph, pair_array[batch_idx],
                                       labels=label_array[batch_idx],
                                       dropout_rng=dropout_rng, mixup_rng=mixup_rng)
            total = result.loss_total
            if not np.isfinite(total.item()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {batch_no}: "
                    f"ce={result.loss_ce.item()!r} "
                    f"dsc={result.regularizer.item()!r}")
            tape.backward(total)
            nk.adam_step(model.params, state)
            record = TrainRecord(
                epoch=epoch, batch=batch_no,
                loss_ce=result.loss_ce.item(),
                loss_dsc=result.regularizer.item(),
                loss_total=total.item(),
                view_diagnostics=result.view_diagnostics,
                degenerate_heads=sum(d["degenerate_heads"]
                                     for d in result.view_diagnostics.values()),
                wall_time=time.perf_counter() - start,
            )
            records.append(record)
            if log_fn is not None:
                log_fn(record)
    model.zero_grad()  # the last step's gradients are spent
    return model, graph, records


def predict(model: HmgrlModel, graph: RelGraph, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic inference: (argmax event types, probability rows)."""
    with nk.no_grad():
        result = model.forward(graph, pairs)
    probs = result.probabilities.data
    return probs.argmax(axis=1), probs


def score_checkpoint(checkpoint, table: DrugTable, ddi_path, train_triples,
                     pairs) -> tuple[np.ndarray, np.ndarray]:
    """predict's (argmax event types, probability rows) for `pairs`, from a
    saved model over the graph of its training interactions, read from
    `ddi_path`. The graph has the checkpoint's event types; an interaction
    of any other type is a DataError naming `ddi_path`."""
    model, _ = load_model(checkpoint, table)
    try:
        graph = RelGraph.from_triples(len(table), model.n_relations, train_triples)
    except ValidationError as err:
        raise DataError(str(err), path=ddi_path) from None
    return predict(model, graph, pairs)


# ---------------------------------------------------------------- checkpoint

def save_model(path, model: HmgrlModel, extra_meta: dict | None = None) -> None:
    meta = {"config": model.config.as_dict(),
            "n_drugs": model.n_drugs,
            "n_relations": model.n_relations}
    if extra_meta:
        meta.update(extra_meta)
    nk.save_checkpoint(path, model.named_arrays(), meta)


def load_model(path, table: DrugTable) -> tuple[HmgrlModel, dict]:
    """Rebuild a saved model; any defect of the file is a DataError naming it."""
    arrays, meta = nk.load_checkpoint(path)
    for key in ("n_drugs", "n_relations"):
        value = meta.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise DataError(f"meta {key} must be a positive integer, got {value!r}",
                            path=path)
    if not isinstance(meta.get("config"), dict):
        raise DataError("meta record has no config object", path=path)
    try:
        config = RunConfig.from_dict(meta["config"])
    except ParameterError as err:
        raise DataError(f"bad config in meta record: {err}", path=path) from None
    if meta["n_drugs"] != len(table):
        raise DataError(f"checkpoint built for {meta['n_drugs']} drugs, "
                        f"table has {len(table)}", path=path)
    if meta["n_relations"] > len(arrays):  # every relation owns rgcn weights
        raise DataError(f"meta n_relations={meta['n_relations']} exceeds the "
                        f"{len(arrays)} tensors stored", path=path)
    try:
        model = HmgrlModel(config, table, meta["n_relations"], arrays=arrays)
    except (ValidationError, ShapeError) as err:
        raise DataError(str(err), path=path) from None
    return model, meta
