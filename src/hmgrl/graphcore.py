"""Multi-relational interaction graph, similarity graph, and the
relation-aware embedding passes built on them.

The interaction graph holds one symmetric edge list per event type
(training edges only); the similarity graph holds one dense
attribute-similarity adjacency per descriptor kind, the three side by side
in one block. Both are immutable after construction; the similarity graph
only caches the adjacency powers that propagation asks for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .errors import DataError, ValidationError
from .featurize import (DESCRIPTOR_KINDS, DrugTable, cosine_similarity_matrix,
                        read_text_lines)


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """D^{-1/2} A D^{-1/2}; zero-degree rows/cols map to zero, not inf."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got {a.shape}")
    if (a < 0).any():
        raise ValidationError("adjacency entries must be nonnegative")
    if not np.allclose(a, a.T, atol=0.0):
        raise ValidationError("adjacency must be symmetric")
    degrees = a.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


@dataclass
class RelGraph:
    """Per-relation edge lists over N drugs.

    Built from undirected interactions (u, v, r): each is stored as the two
    directed edges u->v and v->u of relation r, sorted by (rel, dst, src),
    and duplicates collapse to one edge. Derived per edge: its weight
    A_r[dst, src] / R_dst, with A_r the normalized adjacency of relation r
    and R_dst the number of relations the destination takes part in; and
    `local`, the position of its source among the relation's active drugs
    `sources[source_offsets[r]:source_offsets[r + 1]]` (sorted).
    """

    n_drugs: int
    n_relations: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    rel: np.ndarray = field(repr=False)
    relation_counts: np.ndarray = field(init=False, repr=False)  # R_v per node
    weights: np.ndarray = field(init=False, repr=False)
    local: np.ndarray = field(init=False, repr=False)
    sources: np.ndarray = field(init=False, repr=False)
    source_offsets: np.ndarray = field(init=False, repr=False)
    edge_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, n_rel = self.n_drugs, self.n_relations
        u, v, r = (np.asarray(a, dtype=np.int64).ravel()
                   for a in (self.src, self.dst, self.rel))
        bad_drug = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad_event = (r < 0) | (r >= n_rel)
        bad = bad_drug | bad_event | (u == v)
        if bad.any():
            k = int(np.argmax(bad))
            triple = (int(u[k]), int(v[k]), int(r[k]))
            if bad_drug[k]:
                raise ValidationError(f"triple {triple}: drug index out of range "
                                      f"0..{n - 1}")
            if bad_event[k]:
                raise ValidationError(f"triple {triple}: event type out of range "
                                      f"0..{n_rel - 1}")
            raise ValidationError(f"triple {triple}: self-interaction not allowed")

        # one sorted key per directed edge: (rel, dst, src)
        keys = np.unique(np.concatenate([(r * n + v) * n + u, (r * n + u) * n + v]))
        self.rel, rest = np.divmod(keys, n * n)
        self.dst, self.src = np.divmod(rest, n)
        self.edge_offsets = np.searchsorted(self.rel, np.arange(n_rel + 1))

        degrees = np.bincount(self.rel * n + self.dst, minlength=n_rel * n)
        in_relation = degrees.reshape(n_rel, n) > 0
        self.relation_counts = in_relation.sum(axis=0).astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1))
        self.weights = (inv_sqrt[self.rel * n + self.dst] * inv_sqrt[self.rel * n + self.src]
                        / self.relation_counts[self.dst])

        active = np.unique(self.rel * n + self.src)   # (rel, drug), sorted
        self.sources = active % n
        self.source_offsets = np.searchsorted(active // n, np.arange(n_rel + 1))
        self.local = (np.searchsorted(active, self.rel * n + self.src)
                      - self.source_offsets[self.rel])

    @classmethod
    def from_triples(cls, n_drugs: int, n_relations: int, triples) -> "RelGraph":
        """triples: iterable of (u, v, r) integer index triples, u != v."""
        t = np.array(list(triples), dtype=np.int64).reshape(-1, 3)
        return cls(n_drugs, n_relations, t[:, 0], t[:, 1], t[:, 2])

    def new_drug_mask(self) -> np.ndarray:
        """Drugs with no edge in any relation (cold-start nodes)."""
        return self.relation_counts == 0


@dataclass
class DDSGraph:
    """Dense similarity adjacencies, one per descriptor kind, keyed in
    DESCRIPTOR_KINDS order. They are held once, side by side in the N x 3N
    block `stacked` (the relational layer's input); `similarities[kind]` is
    a column view of it. `power` caches each normalized adjacency's powers,
    so every model on the table shares them."""

    similarities: dict[str, np.ndarray]
    stacked: np.ndarray = field(init=False, repr=False)
    normalized: dict = field(init=False, repr=False)
    powers: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if tuple(self.similarities) != DESCRIPTOR_KINDS:
            raise ValidationError(f"similarities must be keyed {DESCRIPTOR_KINDS} in "
                                  f"order, got {tuple(self.similarities)}")
        checked = []
        for name, sim in self.similarities.items():
            m = np.asarray(sim, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"{name}: similarity matrix must be square")
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValidationError(f"{name}: similarity matrix must be symmetric")
            if m.min() < -1e-12 or m.max() > 1 + 1e-12:
                raise ValidationError(f"{name}: similarities must lie in [0, 1]")
            checked.append(m)
        self.stacked = np.hstack(checked)
        self.similarities = dict(zip(DESCRIPTOR_KINDS, np.hsplit(self.stacked, len(checked))))
        self.normalized = {name: normalize_adjacency(m)
                           for name, m in self.similarities.items()}

    def power(self, kind: str, hops: int) -> np.ndarray:
        """A_hat^hops of one kind (hops >= 1), computed on first use with
        hops - 1 GEMMs, A_hat (A_hat (... A_hat)), and kept; 1 is A_hat."""
        if hops == 1:
            return self.normalized[kind]
        if (kind, hops) not in self.powers:
            a_hat = p = self.normalized[kind]
            for _ in range(hops - 1):
                p = a_hat @ p
            self.powers[kind, hops] = p
        return self.powers[kind, hops]

    @classmethod
    def from_table(cls, table: DrugTable) -> "DDSGraph":
        """Dense: every pair of drugs is linked by its attribute similarity."""
        return cls({kind: cosine_similarity_matrix(getattr(table, kind))
                    for kind in DESCRIPTOR_KINDS})


# ------------------------------------------------------------- forward passes

def rgcn_forward(graph: RelGraph, x, rel_weights, self_weight) -> nk.Tensor:
    """One relational convolution over the interaction graph.

    Per node v: relu(sum_r sum_{u in N_r(v)} A_r[v, u] / R_v * x_u W_r
    + x_v W_self). Each relation transforms only its active drugs and
    scatters the messages along its edges, so the work scales with the
    (drug, relation) pairs that have an edge, not with R * N^2. Nodes in
    no relation (R_v = 0) keep only the self term. The relation sum is one
    tape record (nk.relation_sum), which reads the graph's edge arrays in
    place; x is a constant input, so only the weights get gradients.
    """
    total = nk.relation_sum(x, rel_weights, graph)
    return nk.relu(nk.add(total, nk.matmul(x, self_weight)))


def dds_propagate(dds: DDSGraph, embeddings, hops: int):
    """Diffuse embeddings over each similarity channel for `hops` rounds.

    Returns one channel result per descriptor kind, in DESCRIPTOR_KINDS
    order; 0 hops returns the input unchanged in every channel. The hops
    are linear, so each channel is one product with the cached power
    A_hat^hops (DDSGraph.power), not `hops` products.
    """
    if hops < 0:
        raise ValidationError(f"hop count must be >= 0, got {hops}")
    embeddings = nk.as_tensor(embeddings)
    if hops == 0:
        return (embeddings,) * len(dds.normalized)
    return tuple(nk.matmul(nk.constant(dds.power(kind, hops)), embeddings)
                 for kind in dds.normalized)


def fuse_ragse(channels, weights) -> nk.Tensor:
    """Blend the propagated channels into the final drug embeddings:
    relu(sum_i channels[i] @ weights[i]), summed left to right."""
    return nk.relu(functools.reduce(nk.add, (
        nk.matmul(ch, w) for ch, w in zip(channels, weights, strict=True))))


# ------------------------------------------------------------------ file I/O

def write_ddi_file(path, triples) -> None:
    """One interaction per line: drug_id_a <TAB> drug_id_b <TAB> event_type."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a, b, r in triples:
            fh.write(f"{a}\t{b}\t{r}\n")


# Event types are 0..EVENT_TYPES - 1. The model owns a relation weight per
# type up to the largest, so a stray large type would size it; dataset 1 has
# 65 types.
EVENT_TYPES = 1000


def read_ddi_file(path, table: DrugTable) -> list[tuple[int, int, int]]:
    """Index triples (u, v, event) of a drug_a<TAB>drug_b<TAB>event file, its
    drug ids resolved against the table; each defect names its line, and a
    pair listed twice (in either order, of any type) names both lines."""
    triples, first_line = [], {}
    for line_no, line in read_text_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"expected 3 tab-separated fields, got {len(fields)}",
                            path, line_no)
        try:
            event = int(fields[2])
        except ValueError:
            raise DataError(f"bad event type {fields[2]!r}", path, line_no) from None
        if event < 0:
            raise DataError(f"event type must be >= 0, got {event}", path, line_no)
        if event >= EVENT_TYPES:
            raise DataError(f"event type must be below {EVENT_TYPES}, got {event}",
                            path, line_no)
        if fields[0] == fields[1]:
            raise DataError("self-interaction not allowed", path, line_no)
        u = table.lookup(fields[0], path, line_no)
        v = table.lookup(fields[1], path, line_no)
        seen = first_line.setdefault((u, v) if u < v else (v, u), line_no)
        if seen != line_no:
            raise DataError(f"pair {fields[0]}, {fields[1]} is already listed on "
                            f"line {seen}", path, line_no)
        triples.append((u, v, event))
    return triples
