"""Spans around the calls into each hmgrl layer, recorded from outside the package.

The traced run replaces the public functions the benchmark and the package
call with timing wrappers, at the attribute where the caller looks each name
up (``hmgrl.model.rgcn_forward``, not only ``hmgrl.graphcore.rgcn_forward``).
Spans stay in memory until the run ends. Nothing under ``src/`` changes, and
the untraced run installs no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int            # index of the enclosing span, -1 at top level
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []     # targets absent from this version
        self.paused = False              # wrappers call through unrecorded
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls inside the block run unrecorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Route owner.attr through a span. `name` is a string or a function of
        the call's (args, kwargs); `note(span, args, kwargs, result)` adds
        counters after the call returns."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **s.attrs}) + "\n")


# ------------------------------------------------------------ instrumentation

def _array_bytes(obj) -> int:
    """Bytes of every ndarray reachable through dicts/attributes, from shapes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(v) for v in vars(obj).values())
    return 0


def install(tracer: Tracer, hmgrl) -> None:
    """Wrap every public function the per-layer metrics are taken from."""
    M, G, E, nk = hmgrl.model, hmgrl.graphcore, hmgrl.evaluate, hmgrl.numkit
    enc = hmgrl.encoders

    def note_bytes(key):
        def note(span, args, kwargs, result):
            span.attrs[key] = _array_bytes(result)
        return note

    def note_params(span, args, kwargs, result):
        params = getattr(args[0], "params", {})
        span.attrs["param_count"] = sum(p.data.size for p in params.values())

    def note_tape(span, args, kwargs, result):
        span.attrs["tape_records"] = len(args[0])

    def note_optimizer(span, args, kwargs, result):
        state = args[1]
        span.attrs["state_bytes"] = (_array_bytes(getattr(state, "m", {}))
                                     + _array_bytes(getattr(state, "v", {})))

    def note_checkpoint(span, args, kwargs, result):
        span.attrs["payload_bytes"] = _array_bytes(dict(args[1]))

    def metrics_name(args, kwargs):
        macro = kwargs.get("macro_curves", args[2] if len(args) > 2 else False)
        return "evaluate.metrics_macro" if macro else "evaluate.metrics_micro"

    targets = [
        (M.DdiDataset, "load", "featurize.load", None),
        (G.DDSGraph, "from_table", "featurize.similarity", None),
        (G.RelGraph, "from_triples", "graphcore.relgraph_build", note_bytes("adjacency_bytes")),
        (M, "rgcn_forward", "graphcore.rgcn.fwd", None),
        (M, "dds_propagate", "graphcore.dds.fwd", None),
        (M, "fuse_ragse", "graphcore.fuse.fwd", None),
        (enc.CnnBlock, "forward", "encoders.cnn.fwd", None),
        (enc.EncoderBlock, "forward", "encoders.attn.fwd", None),
        (M, "mvdsc_forward", "mvdsc.fwd", None),
        (M.HmgrlModel, "__init__", "model.init", note_params),
        (M.HmgrlModel, "pair_constants", "model.pair_constants", note_bytes("bytes")),
        (M.HmgrlModel, "decode", "model.decode.fwd", None),
        (M.HmgrlModel, "forward", "model.forward", None),
        (M, "train_fold", "model.train_fold", None),
        (M, "predict", "model.predict", None),
        (M, "save_model", "model.save_model", None),
        (M, "load_model", "model.load_model", None),
        (nk.Tape, "backward", "numkit.backward", note_tape),
        (nk, "adam_step", "numkit.adam", note_optimizer),
        (nk, "save_checkpoint", "numkit.checkpoint.save", note_checkpoint),
        (nk, "load_checkpoint", "numkit.checkpoint.load", None),
        (E, "make_splits", "evaluate.split", None),
        (E, "compute_metrics", metrics_name, None),
    ]
    for owner, attr, name, note in targets:
        tracer.wrap(owner, attr, name, note)


# ----------------------------------------------------------------- per layer

# Per-operation metrics: span time (or a counter) summed inside one primary
# operation, a training step or a fold evaluation, then the median over
# operations. Zero where the layer never runs inside the primary operation.
PER_OP = {
    "graphcore.rgcn.fwd_ms": "graphcore.rgcn.fwd",
    "graphcore.dds.fwd_ms": "graphcore.dds.fwd",
    "graphcore.fuse.fwd_ms": "graphcore.fuse.fwd",
    "encoders.cnn.fwd_ms": "encoders.cnn.fwd",
    "encoders.attn.fwd_ms": "encoders.attn.fwd",
    "mvdsc.fwd_ms": "mvdsc.fwd",
    "model.decode.fwd_ms": "model.decode.fwd",
    "numkit.backward_ms": "numkit.backward",
    "numkit.adam_ms": "numkit.adam",
}

# Per-call metrics: median duration over every call in the run.
PER_CALL = {
    "featurize.load_ms": "featurize.load",
    "featurize.similarity_ms": "featurize.similarity",
    "graphcore.relgraph_build_ms": "graphcore.relgraph_build",
    "model.init_ms": "model.init",
    "model.predict_ms": "model.predict",
    "numkit.checkpoint.save_ms": "numkit.checkpoint.save",
    "numkit.checkpoint.load_ms": "numkit.checkpoint.load",
    "evaluate.split_ms": "evaluate.split",
    "evaluate.metrics_micro_ms": "evaluate.metrics_micro",
    "evaluate.metrics_macro_ms": "evaluate.metrics_macro",
}

# Computed sizes: (span name, counter); the median over the spans carrying it.
SIZES = {
    "graphcore.adjacency_bytes": ("graphcore.relgraph_build", "adjacency_bytes"),
    "numkit.param_count": ("model.init", "param_count"),
    "numkit.optimizer_state_bytes": ("numkit.adam", "state_bytes"),
    "numkit.checkpoint_bytes": ("numkit.checkpoint.save", "payload_bytes"),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _child_seconds(spans: list[Span]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return child


def per_layer(tracer: Tracer, ops: list[tuple[float, float]], op_span: str,
              extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics over the primary operations `ops` (start, end).

    `op_span` names the parent of an operation's top-level spans:
    ``model.train_fold`` for training steps, the benchmark's own
    ``bench.eval_fold`` span for fold evaluations. Returns (metrics, samples).
    """
    spans = tracer.spans
    child_seconds = _child_seconds(spans)

    def self_ms(i):
        return (spans[i].seconds - child_seconds[i]) * 1e3

    starts = np.array([s.start for s in spans])
    order = np.argsort(starts, kind="stable")
    sorted_starts = starts[order]
    per_op_rows = []
    for lo, hi in ops:
        idx = order[np.searchsorted(sorted_starts, lo):np.searchsorted(sorted_starts, hi)]
        row = {m: 0.0 for m in PER_OP}
        row["model.forward.self_ms"] = 0.0
        row["numkit.tape_records"] = 0.0
        top = 0.0
        for i in idx:
            s = spans[i]
            for metric, name in PER_OP.items():
                if s.name == name:
                    row[metric] += s.seconds * 1e3
            if s.name == "model.forward":
                row["model.forward.self_ms"] += self_ms(i)
            if s.name == "numkit.backward":
                row["numkit.tape_records"] += s.attrs.get("tape_records", 0)
            if s.parent >= 0 and spans[s.parent].name == op_span:
                top += s.seconds
        length = hi - lo
        row["model.step.self_ms"] = ((length - top) * 1e3
                                     if op_span == "model.train_fold" else 0.0)
        row["trace.top_level_coverage"] = top / length if length > 0 else 0.0
        per_op_rows.append(row)

    metrics, samples = {}, {}
    for metric in per_op_rows[0] if per_op_rows else ():
        metrics[metric] = _median([row[metric] for row in per_op_rows])
        samples[metric] = len(per_op_rows)
    for metric, name in PER_CALL.items():
        durations = [s.seconds * 1e3 for s in spans if s.name == name]
        metrics[metric] = _median(durations)
        samples[metric] = len(durations)
    # per-fold training constants only: calls made directly by train_fold
    fold_consts = [s for s in spans if s.name == "model.pair_constants"
                   and s.parent >= 0 and spans[s.parent].name == "model.train_fold"]
    metrics["model.pair_constants_ms"] = _median([s.seconds * 1e3 for s in fold_consts])
    metrics["model.pair_constants_bytes"] = _median([s.attrs["bytes"] for s in fold_consts])
    samples["model.pair_constants_ms"] = samples["model.pair_constants_bytes"] = len(fold_consts)
    for metric, (name, key) in SIZES.items():
        values = [s.attrs[key] for s in spans if s.name == name and key in s.attrs]
        metrics[metric] = _median(values)
        samples[metric] = len(values)
    for metric, (value, count) in extra.items():
        metrics[metric] = value
        samples[metric] = count
    return metrics, samples


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_s"):
        return "pairs/s"
    if metric.endswith(("_share", "_coverage", "_acc")):
        return "fraction"
    return "count"


def self_time_lines(tracer: Tracer) -> list[str]:
    """Per span name: calls, total and self milliseconds over the whole run."""
    spans = tracer.spans
    child = _child_seconds(spans)
    table: dict[str, list] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds * 1e3
        row[2] += (s.seconds - child[i]) * 1e3
    lines = [f"{'span':32s} {'calls':>6s} {'total_ms':>11s} {'self_ms':>11s}"]
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:32s} {calls:6d} {total:11.1f} {own:11.1f}")
    return lines
