"""Synthetic dataset generator with planted interaction rules.

Drugs get a latent class; descriptor sequences are noisy copies of
class prototypes and SMILES strings embed a class motif, so attributes carry
the class signal. The event type of a pair is a fixed function of the two
classes, which makes the task learnable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .featurize import DESCRIPTOR_KINDS, SMILES_POSITIONS, DrugTable
from .graphcore import EVENT_TYPES

_SMILES_BASE = "CNOPSFcno123()=#-"
FLIP_PROB = 0.06  # chance that a descriptor bit differs from its class prototype's


@dataclass
class SynthSpec:
    seed: int = 0
    n_drugs: int = 60
    n_events: int = 8
    density: float = 0.28          # fraction of all unordered pairs
    n_classes: int = 4
    targets_size: int = 24
    enzymes_size: int = 16
    substructures_size: int = 32
    smiles_length: tuple = (18, 40)

    def __post_init__(self):
        if self.n_drugs < 4:
            raise ParameterError("need at least 4 drugs")
        if not 2 <= self.n_events <= EVENT_TYPES:
            raise ParameterError(f"n_events must be in 2..{EVENT_TYPES}, got {self.n_events}")
        for name in (f"{kind}_size" for kind in DESCRIPTOR_KINDS):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not math.isfinite(self.density):
            raise ParameterError(f"density must be finite, got {self.density!r}")
        max_pairs = self.n_drugs * (self.n_drugs - 1) // 2
        self.n_pairs = round(self.density * max_pairs)
        if not 0 < self.n_pairs <= max_pairs:
            raise ParameterError(f"density {self.density} gives {self.n_pairs} pairs, "
                                 f"feasible range is 1..{max_pairs}")
        if self.n_drugs < 2 * self.n_classes:
            raise ParameterError(f"{self.n_drugs} drugs are too few for "
                                 f"{self.n_classes} classes of at least 2 drugs")
        rule_slots = self.n_classes * (self.n_classes + 1) // 2
        if rule_slots < self.n_events:
            raise ParameterError(f"{self.n_classes} classes give {rule_slots} class "
                                 f"pairs, too few for {self.n_events} events")


def generate(spec: SynthSpec) -> tuple[DrugTable, list]:
    """Returns (drug table, drug-id triples)."""
    rng = np.random.default_rng(spec.seed)

    classes = rng.integers(0, spec.n_classes, size=spec.n_drugs)
    for c in range(spec.n_classes):  # every class needs members for the rules
        if (classes == c).sum() < 2:
            classes[rng.choice(np.flatnonzero(classes != c), size=2, replace=False)] = c

    def class_attribute(size):
        protos = rng.integers(0, 2, size=(spec.n_classes, size))
        rows = protos[classes]
        flips = rng.random(rows.shape) < FLIP_PROB
        rows = np.where(flips, 1 - rows, rows)
        for i in range(spec.n_drugs):  # all-zero descriptor rows carry no signal
            if not rows[i].any():
                rows[i, rng.integers(0, size)] = 1
        return rows

    descriptors = {kind: class_attribute(getattr(spec, f"{kind}_size"))
                   for kind in DESCRIPTOR_KINDS}

    motifs = ["".join(rng.choice(list(_SMILES_BASE), size=8))
              for _ in range(spec.n_classes)]
    smiles = []
    lo, hi = spec.smiles_length
    for i in range(spec.n_drugs):
        length = int(rng.integers(lo, hi + 1))
        body = "".join(rng.choice(list(_SMILES_BASE), size=length))
        pos = int(rng.integers(0, max(1, length - 8)))
        s = (body[:pos] + motifs[classes[i]] + body[pos:])[:SMILES_POSITIONS]
        smiles.append(s)

    table = DrugTable(ids=[f"SYN{i:04d}" for i in range(spec.n_drugs)],
                      smiles=smiles, **descriptors)

    # symmetric class-pair rule table covering every event at least once
    slots = [(a, b) for a in range(spec.n_classes) for b in range(a, spec.n_classes)]
    rule = {}
    order = rng.permutation(len(slots))
    for rank, slot_idx in enumerate(order):
        a, b = slots[slot_idx]
        event = rank if rank < spec.n_events else int(rng.integers(0, spec.n_events))
        rule[(a, b)] = rule[(b, a)] = event

    all_pairs = [(u, v) for u in range(spec.n_drugs) for v in range(u + 1, spec.n_drugs)]
    chosen = rng.choice(len(all_pairs), size=spec.n_pairs, replace=False)
    triples = []
    for idx in sorted(chosen):
        u, v = all_pairs[idx]
        if rng.random() < 0.5:  # stored orientation is arbitrary
            u, v = v, u
        triples.append((table.ids[u], table.ids[v],
                        rule[(int(classes[u]), int(classes[v]))]))
    return table, triples
