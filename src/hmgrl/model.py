"""End-to-end model assembly, losses, Mixup, training loop, and prediction.

The training loop follows the batch procedure: refresh the graph embeddings
inside every batch (gradients flow end to end through them), assemble the
five per-pair feature sources, run the four clustering views, decode, and
take one optimizer step on cross-entropy plus the weighted regularizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .config import RunConfig
from .encoders import CnnBlock, EncoderBlock, assemble_comprehensive
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
    DrugTable,
    encode_smiles,
    pair_attribute_sequence,
    read_drug_table,
)
from .graphcore import (
    DDSGraph,
    RelGraph,
    dds_propagate,
    fuse_ragse,
    read_ddi_file,
    rgcn_forward,
)
from .mvdsc import VIEW_ORDER, DscView, mvdsc_forward

# Pairs per block of the per-pair stack (CNN, encoders, assembly). The CNN's
# per-offset buffers for 128 pairs stay in cache: its forward over 2,614 pairs
# at the graph benchmark's dims took ~480 ms in blocks of 128 against ~740 ms
# whole (2-core x86 box). Blocks of 32-64 gained only ~10-40 ms more and would
# split the `small` preset's 128-pair training batches, which now run as one.
PAIR_BLOCK = 128


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
            raise ValidationError("dataset has no interactions")
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

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch, "batch": self.batch,
            "loss_ce": self.loss_ce, "loss_dsc": self.loss_dsc,
            "loss_total": self.loss_total,
            "view_diagnostics": self.view_diagnostics,
            "degenerate_heads": self.degenerate_heads,
            "wall_time": self.wall_time,
        }


@dataclass
class ForwardResult:
    probabilities: nk.Tensor
    regularizer: nk.Tensor | None   # None (and no diagnostics) without labels
    view_diagnostics: dict
    loss_ce: nk.Tensor | None = None
    loss_total: nk.Tensor | None = None
    labels_used: np.ndarray | None = None


class HmgrlModel:
    """All named parameters plus the table-level constant features."""

    def __init__(self, config: RunConfig, table: DrugTable, n_relations: int,
                 seed=0):
        self.config = config
        self.table = table
        self.n_relations = n_relations
        self.n_drugs = len(table)

        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        init_rng = np.random.default_rng(seed)

        # constant table-level features
        self.dds = DDSGraph.from_table(table)
        self.initial_features = np.hstack(   # N x 3N
            [self.dds.targets, self.dds.enzymes, self.dds.substructures])
        self.smiles_index = np.stack([encode_smiles(s) for s in table.smiles])  # N x 100

        d_in = self.initial_features.shape[1]
        d_embed = config.embed_dim
        d_att = config.attention_dim
        d_emb_out = config.embedding_encoder_dim
        self.feature_dim = 4 * d_att + d_emb_out

        self.params: dict[str, nk.Tensor] = {}

        # relational layers: first maps 3N -> d', deeper ones d' -> d'
        self.rgcn_layers = []
        for layer in range(config.rgcn_depth):
            fan_in = d_in if layer == 0 else d_embed
            rel = [nk.xavier_uniform(init_rng, fan_in, d_embed)
                   for _ in range(n_relations)]
            own = nk.xavier_uniform(init_rng, fan_in, d_embed)
            for r, w in enumerate(rel):
                self.params[f"rgcn{layer}.rel{r}"] = w
            self.params[f"rgcn{layer}.self"] = own
            self.rgcn_layers.append((rel, own))

        for name in ("targets", "enzymes", "substructures"):
            self.params[f"fuse.{name}"] = nk.xavier_uniform(init_rng, d_embed, d_embed)

        self.cnn = CnnBlock.build(init_rng, "cnn", config.cnn_channels,
                                  config.cnn_kernels, d_att)
        self.params.update(self.cnn.params)

        enc_kw = dict(token_count=config.token_count, token_dim=config.token_dim,
                      n_heads=config.attn_heads, ffn_enabled=config.ffn_enabled,
                      positional=config.positional_tokens)
        self.enc_embedding = EncoderBlock.build(init_rng, "enc_emb",
                                                in_dim=2 * d_embed,
                                                out_dim=d_emb_out, **enc_kw)
        self.enc_targets = EncoderBlock.build(init_rng, "enc_tar",
                                              in_dim=2 * self.n_drugs,
                                              out_dim=d_att, **enc_kw)
        self.enc_enzymes = EncoderBlock.build(init_rng, "enc_enz",
                                              in_dim=2 * self.n_drugs,
                                              out_dim=d_att, **enc_kw)
        self.enc_substructures = EncoderBlock.build(init_rng, "enc_sub",
                                                    in_dim=2 * self.n_drugs,
                                                    out_dim=d_att, **enc_kw)
        for enc in (self.enc_embedding, self.enc_targets, self.enc_enzymes,
                    self.enc_substructures):
            self.params.update(enc.params)

        seq_dims = {
            "targets": table.targets.shape[1],
            "enzymes": table.enzymes.shape[1],
            "substructures": table.substructures.shape[1],
        }
        self.views = {}
        for kind in VIEW_ORDER:
            src_dim = self.feature_dim if kind == "comprehensive" else seq_dims[kind]
            self.views[kind] = DscView.build(
                init_rng, f"dsc_{kind[:4]}", kind, src_dim, self.feature_dim,
                n_clusters=config.dsc_clusters, n_heads=config.dsc_heads,
                proj_dim=config.effective_dsc_proj_dim)
            self.params.update(self.views[kind].params)

        hidden = config.decoder_hidden
        self.params["decoder.fc1.w"] = nk.xavier_uniform(
            init_rng, 4 * self.feature_dim, hidden)
        self.params["decoder.fc1.b"] = nk.parameter(np.zeros((1, hidden)))
        self.params["decoder.fc2.w"] = nk.xavier_uniform(init_rng, hidden, n_relations)
        self.params["decoder.fc2.b"] = nk.parameter(np.zeros((1, n_relations)))

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
        x = nk.constant(self.initial_features)
        for rel, own in self.rgcn_layers:
            x = rgcn_forward(graph, x, rel, own)
        channels = dds_propagate(self.dds, x, self.config.propagation_hops)
        return fuse_ragse(channels, self.params["fuse.targets"],
                          self.params["fuse.enzymes"],
                          self.params["fuse.substructures"])

    def comprehensive_features(self, embeddings: nk.Tensor, us: np.ndarray,
                               vs: np.ndarray) -> nk.Tensor:
        """Per-pair features in blocks of PAIR_BLOCK pairs, stacked in order.
        Every layer here maps each pair's row on its own, so the blocking
        changes no value; a batch of at most PAIR_BLOCK pairs is one block."""
        blocks = [self._pair_block(embeddings, us[lo:lo + PAIR_BLOCK],
                                   vs[lo:lo + PAIR_BLOCK])
                  for lo in range(0, len(us), PAIR_BLOCK)]
        return blocks[0] if len(blocks) == 1 else nk.concat_rows(blocks)

    def _pair_block(self, embeddings: nk.Tensor, us: np.ndarray,
                    vs: np.ndarray) -> nk.Tensor:
        h_smi = self.cnn.forward(np.hstack([self.smiles_index[us],
                                            self.smiles_index[vs]]))
        emb_pair = nk.concat_cols([nk.gather_rows(embeddings, us),
                                   nk.gather_rows(embeddings, vs)])
        h_emb = self.enc_embedding.forward(emb_pair)

        def similarity_rows(sims):
            return nk.constant(np.hstack([sims[us], sims[vs]]))

        h_tar = self.enc_targets.forward(similarity_rows(self.dds.targets))
        h_enz = self.enc_enzymes.forward(similarity_rows(self.dds.enzymes))
        h_sub = self.enc_substructures.forward(
            similarity_rows(self.dds.substructures))
        return assemble_comprehensive(h_smi, h_emb, h_tar, h_enz, h_sub)

    def decode(self, representation: nk.Tensor, training: bool,
               dropout_rng: np.random.Generator | None) -> nk.Tensor:
        hidden = nk.relu(nk.add_rowvec(
            nk.matmul(representation, self.params["decoder.fc1.w"]),
            self.params["decoder.fc1.b"]))
        if training and self.config.dropout_rate > 0:
            if dropout_rng is None:
                raise ParameterError("training decode needs a dropout RNG")
            hidden = nk.dropout(hidden, self.config.dropout_rate, dropout_rng,
                                training=True)
        logits = nk.add_rowvec(nk.matmul(hidden, self.params["decoder.fc2.w"]),
                               self.params["decoder.fc2.b"])
        return nk.softmax_rows(logits)

    def forward(self, graph: RelGraph, pairs, labels: np.ndarray | None = None,
                training: bool = False,
                dropout_rng: np.random.Generator | None = None,
                mixup_rng: np.random.Generator | None = None) -> ForwardResult:
        """Score a batch of drug pairs; each per-pair input is gathered from
        the per-drug tables by the pairs' two index vectors."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
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

        seq_sources = {name: pair_attribute_sequence(mat[us], mat[vs])
                       for name, mat in (("targets", self.table.targets),
                                         ("enzymes", self.table.enzymes),
                                         ("substructures", self.table.substructures))}
        labels_used = labels
        if training and self.config.mixup and labels is not None:
            if mixup_rng is None:
                raise ParameterError("mixup needs an RNG")
            features, labels_used, seq_sources = mixup_batch(
                features, labels, seq_sources, mixup_rng, self.config.mixup_alpha)

        # without labels no loss is formed, so the views skip their regularizers
        clustered = mvdsc_forward(features, seq_sources, self.views,
                                  regularize=labels_used is not None)
        probs = self.decode(clustered.representation, training, dropout_rng)

        result = ForwardResult(probabilities=probs,
                               regularizer=clustered.regularizer,
                               view_diagnostics=clustered.diagnostics,
                               labels_used=labels_used)
        if labels_used is not None:
            result.loss_ce = loss_ce(probs, labels_used)
            result.loss_total = total_loss(result.loss_ce, clustered.regularizer,
                                           self.config.regularizer_weight)
        return result


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


def mixup_batch(features: nk.Tensor, labels: np.ndarray, seq_sources: dict,
                rng: np.random.Generator, alpha: float = 1.0):
    """Convexly mix features and labels with a random permutation partner.

    One lambda ~ Beta(alpha, alpha) per batch. The integer sequence sources
    are not convex-combinable, so the clustering views receive the sequences
    of the lambda-dominant partner.
    """
    k = features.shape[0]
    if k < 2:
        raise ParameterError("mixup needs at least 2 pairs")
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(k)
    mixed = nk.add(nk.scale(features, lam),
                   nk.scale(nk.gather_rows(features, perm), 1.0 - lam))
    mixed_labels = lam * labels + (1.0 - lam) * labels[perm]
    if lam >= 0.5:
        dominant = seq_sources
    else:
        dominant = {name: mat[perm] for name, mat in seq_sources.items()}
    return mixed, mixed_labels, dominant


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
    """Train one fold from scratch; returns (model, graph, records).

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

    state = nk.OptimizerState(lr=config.learning_rate, beta1=config.adam_beta1,
                              beta2=config.adam_beta2, eps=config.adam_eps,
                              rectified=config.rectified)
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
                                       training=True, dropout_rng=dropout_rng,
                                       mixup_rng=mixup_rng)
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
    return model, graph, records


def predict(model: HmgrlModel, graph: RelGraph, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic inference: (argmax event types, probability rows)."""
    with nk.no_grad():
        result = model.forward(graph, pairs, training=False)
    probs = result.probabilities.data
    return probs.argmax(axis=1), probs


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
    model = HmgrlModel(config, table, meta["n_relations"], seed=0)
    try:
        model.load_arrays(arrays)
    except (ValidationError, ShapeError) as err:
        raise DataError(str(err), path=path) from None
    return model, meta
