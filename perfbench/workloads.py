"""The three benchmark workloads and the end-to-end metrics they yield.

Every workload is closed loop: one caller in one process, each operation
starting when the previous one ends. Each drives the public functions that
``hmgrl train`` and ``hmgrl eval`` call. Every run reports every end-to-end
metric, so each workload runs its primary phase for the run's seconds plus a
short pass of the other phase:

- desk-train: the desk shape, trained for a fixed 12 epochs and then scored
  5 times, repeated until the seconds are used (at least 3 cycles).
- graph-train: the paper's graph size, training steps for the seconds, then
  one fold evaluation.
- graph-eval: the same data, 5 timed training steps, then fold evaluations
  (``eval --macro-auc`` body) for the seconds.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

clock = time.perf_counter

DESK_EPOCHS = 12        # held-out accuracy 0.90-1.0 on all 29 seeds tried
DESK_MIN_CYCLES = 3
DESK_EVALS_PER_CYCLE = 5  # a desk fold evaluation takes only ~90 ms
GRAPH_SETUP_REPS = 3
BURST_STEPS = 5         # graph-eval training steps after the warm-up step
ACC_FLOOR = 0.70        # acceptance 5's held-out floor
ORACLE_ROWS = 120       # the oracle is O(n^2) in the flattened scores
PROB_SUM_TOL = 1e-9
ORACLE_TOL = 1e-9

GRAPH_SPEC = dict(n_drugs=572, n_events=65, targets_size=1162, enzymes_size=202,
                  substructures_size=881, density=0.05, n_classes=12)
GRAPH_CONFIG = dict(embed_dim=64, propagation_hops=3, attention_dim=64,
                    embedding_encoder_dim=256, dsc_heads=3, dsc_clusters=16,
                    dsc_proj_dim=32)


@dataclass
class Shape:
    spec: dict              # SynthSpec fields besides the seed
    task: int
    config: dict            # overrides of the `small` preset


SHAPES = {
    "desk": Shape(spec={}, task=1, config=dict(epochs=DESK_EPOCHS)),
    # epochs is a ceiling only: the benchmark stops training by time or steps
    "graph": Shape(spec=GRAPH_SPEC, task=2, config=dict(GRAPH_CONFIG, epochs=1000)),
}


class _Stop(Exception):
    """Raised from the training callback to end train_fold early."""


@dataclass
class Run:
    """Measurements and failure accounting of one benchmark run."""

    hmgrl: object
    seed: int
    seconds: float
    workdir: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup: list = field(default_factory=list)       # seconds per set-up
    steps: list = field(default_factory=list)       # (seconds, pairs) per timed step
    evals: list = field(default_factory=list)       # dicts per fold evaluation
    step_ops: list = field(default_factory=list)    # (start, end) per timed step
    eval_ops: list = field(default_factory=list)    # (start, end) per fold eval
    primary: str = "steps"                          # which of the two per-layer
                                                    # metrics are taken over
    first_probs: np.ndarray | None = None

    def outcome(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    # ---------------------------------------------------------------- inputs

    def write_inputs(self, shape: Shape) -> tuple[Path, Path]:
        """Seeded synthetic drug table and interactions, written as TSV files.
        Not timed: set-up starts when the benchmark reads them back."""
        synth, featurize, graphcore = (self.hmgrl.synth, self.hmgrl.featurize,
                                       self.hmgrl.graphcore)
        table, triples = synth.generate(synth.SynthSpec(seed=self.seed, **shape.spec))
        drugs, ddis = self.workdir / "drugs.tsv", self.workdir / "ddis.tsv"
        featurize.write_drug_table(drugs, table)
        graphcore.write_ddi_file(ddis, triples)
        return drugs, ddis

    def config(self, shape: Shape):
        cfg = self.hmgrl.config.apply_preset("small")
        return cfg.replace(task=shape.task, seed=self.seed, **shape.config)

    def load_fold(self, shape: Shape, paths):
        """DdiDataset.load plus fold 0 of the 5-fold plan: set-up work."""
        M, E = self.hmgrl.model, self.hmgrl.evaluate
        dataset = M.DdiDataset.load(*paths)
        plan = E.make_splits(dataset.triples, dataset.n_drugs, task=shape.task,
                             n_folds=5, seed=self.seed)
        return dataset, plan.folds[0]

    # -------------------------------------------------------------- training

    def step_callback(self, cfg, n_train, stamps, stop):
        """log_fn for train_fold: a step is the interval between consecutive
        callbacks; the first callback ends set-up plus the warm-up step."""
        sizes = epoch_batch_sizes(n_train, cfg.batch_size)

        def log_fn(record):
            stamps.append(clock())
            finite = all(math.isfinite(x) for x in
                         (record.loss_total, record.loss_ce, record.loss_dsc))
            if len(stamps) > 1:
                self.steps.append((stamps[-1] - stamps[-2], sizes[record.batch]))
                self.step_ops.append((stamps[-2], stamps[-1]))
                self.outcome(finite, f"non-finite loss at epoch {record.epoch} "
                                     f"batch {record.batch}")
            elif not finite:
                self.outcome(False, "non-finite loss in the warm-up step")
            if stop(len(stamps) - 1, stamps):
                raise _Stop
        return log_fn

    def train_until(self, shape, paths, reps: int, stop) -> None:
        """`reps` set-ups, each reading the TSV files, splitting and calling
        train_fold up to its first callback; the last one keeps stepping
        until stop(timed_steps, stamps) is true."""
        cfg = self.config(shape)
        for rep in range(reps):
            last = rep == reps - 1
            start = clock()
            dataset, fold = self.load_fold(shape, paths)
            stamps: list[float] = []
            log_fn = self.step_callback(
                cfg, len(fold.train), stamps,
                stop if last else (lambda n, _stamps: True))
            try:
                self.hmgrl.model.train_fold(cfg, dataset, fold, 0, log_fn=log_fn)
            except _Stop:
                pass
            self.setup.append(stamps[0] - start)
            self.outcome(True, "")
            del dataset, fold
            gc.collect()

    # ------------------------------------------------------------ evaluation

    def eval_fold(self, ckpt, dataset, fold, reference: dict) -> float:
        """One `eval --macro-auc` fold body, from checkpoint load to both
        metric reports, then its output checks. Returns held-out accuracy."""
        M, G, E = self.hmgrl.model, self.hmgrl.graphcore, self.hmgrl.evaluate
        pairs = [(u, v) for u, v, _ in fold.test]
        truth = np.array([r for _, _, r in fold.test])
        labels = M.one_hot(truth, dataset.n_relations)
        span = self.tracer.begin("bench.eval_fold") if self.tracer else None
        start = clock()
        model, _ = M.load_model(ckpt, dataset.table)
        graph = G.RelGraph.from_triples(dataset.n_drugs, dataset.n_relations, fold.train)
        before_predict = clock()
        pred, probs = M.predict(model, graph, pairs)
        after_predict = clock()
        micro = E.compute_metrics(probs, labels)
        macro = E.compute_metrics(probs, labels, macro_curves=True)
        end = clock()
        if span:
            self.tracer.end(span)
        self.eval_ops.append((start, end))
        acc = float((pred == truth).mean())
        self.evals.append({"seconds": end - start, "pairs": len(pairs),
                           "predict_seconds": after_predict - before_predict,
                           "acc": acc,
                           "distinct_share": np.unique(probs).size / probs.size})
        problems = self.check_eval(model, probs, labels, micro, macro, reference)
        self.outcome(not problems, "; ".join(problems))
        return acc

    def check_eval(self, model, probs, labels, micro, macro, reference) -> list:
        problems = []
        if not np.isfinite(probs).all():
            problems.append("non-finite probabilities")
        elif np.abs(probs.sum(axis=1) - 1.0).max() > PROB_SUM_TOL:
            problems.append("probability rows do not sum to 1")
        for report in (micro, macro):
            values = (report.auc, report.aupr, report.acc, report.f1)
            if not all(0.0 <= x <= 1.0 for x in values):
                problems.append(f"metric outside [0, 1]: {report.as_dict()}")
        if self.first_probs is None:
            self.first_probs = probs
            with self.tracer.pause() if self.tracer else contextlib.nullcontext():
                problems += self.check_once(model, probs, labels, reference)
        elif not np.array_equal(probs, self.first_probs):
            problems.append("scores of the same checkpoint changed between runs")
        return problems

    def check_once(self, model, probs, labels, reference) -> list:
        """Round trip and oracle checks; not part of the timed fold body."""
        problems = []
        saved = model.named_arrays()
        if set(saved) != set(reference) or not all(
                saved[k].dtype == reference[k].dtype
                and np.array_equal(saved[k], reference[k]) for k in saved):
            problems.append("checkpoint round trip is not bit-exact")
        rows = slice(0, ORACLE_ROWS)
        sub = self.hmgrl.evaluate.compute_metrics(probs[rows], labels[rows])
        aupr, auc = self.hmgrl.oracle.metric_oracle(probs[rows].ravel(),
                                                    labels[rows].ravel() > 0.5)
        if abs(sub.aupr - aupr) > ORACLE_TOL or abs(sub.auc - auc) > ORACLE_TOL:
            problems.append(f"micro AUC/AUPR differ from the oracle: "
                            f"{sub.auc}/{sub.aupr} vs {auc}/{aupr}")
        return problems

    def save(self, model, ckpt) -> dict:
        self.hmgrl.model.save_model(ckpt, model)
        return {k: v.copy() for k, v in model.named_arrays().items()}


# -------------------------------------------------------------- the workloads

def desk_train(run: Run) -> dict:
    """Train the desk shape for DESK_EPOCHS and score fold 0, repeatedly."""
    shape = SHAPES["desk"]
    paths = run.write_inputs(shape)
    cfg = run.config(shape)
    ckpt = run.workdir / "fold0.ckpt"
    accuracies = []
    deadline = clock() + run.seconds
    while len(accuracies) < DESK_MIN_CYCLES or clock() < deadline:
        start = clock()
        dataset, fold = run.load_fold(shape, paths)
        stamps: list[float] = []
        log_fn = run.step_callback(cfg, len(fold.train), stamps, lambda n, s: False)
        model, _, _ = run.hmgrl.model.train_fold(cfg, dataset, fold, 0, log_fn=log_fn)
        run.setup.append(stamps[0] - start)
        run.outcome(True, "")
        reference = run.save(model, ckpt)
        del model
        for _ in range(DESK_EVALS_PER_CYCLE):
            acc = run.eval_fold(ckpt, dataset, fold, reference)
        accuracies.append(acc)
        run.outcome(accuracies[-1] >= ACC_FLOOR and accuracies[-1] == accuracies[0],
                    f"held-out accuracy {accuracies[-1]} (floor {ACC_FLOOR}, "
                    f"first cycle {accuracies[0]})")
    return {"model.heldout_acc": (accuracies[-1], len(accuracies))}


def graph_train(run: Run) -> dict:
    """Training steps on the graph shape for the seconds, then one fold eval."""
    shape = SHAPES["graph"]
    paths = run.write_inputs(shape)
    run.train_until(shape, paths, GRAPH_SETUP_REPS,
                    lambda n, stamps: stamps[-1] >= stamps[0] + run.seconds)
    acc = _eval_initial_model(run, shape, paths, evals=1)
    return {"model.heldout_acc": (acc, 1)}


def graph_eval(run: Run) -> dict:
    """A short training burst, then fold evaluations of a seeded initial
    model's checkpoint for the seconds."""
    shape = SHAPES["graph"]
    paths = run.write_inputs(shape)
    run.train_until(shape, paths, 1, lambda n, stamps: n >= BURST_STEPS)
    run.setup.clear()       # graph-eval's set-up is the evaluation set-up below
    run.primary = "evals"
    acc = _eval_initial_model(run, shape, paths, evals=None, setup_reps=GRAPH_SETUP_REPS)
    return {"model.heldout_acc": (acc, len(run.evals))}


def _eval_initial_model(run: Run, shape, paths, evals, setup_reps=1) -> float:
    """Set up (read, split, init the seeded model, write its checkpoint) and
    evaluate fold 0: `evals` times, or for the run's seconds when None."""
    cfg = run.config(shape)
    ckpt = run.workdir / "initial.ckpt"
    for _ in range(setup_reps):
        start = clock()
        dataset, fold = run.load_fold(shape, paths)
        model = run.hmgrl.model.HmgrlModel(cfg, dataset.table, dataset.n_relations,
                                           seed=cfg.seed)
        reference = run.save(model, ckpt)
        del model
        if run.primary == "evals":      # setup_s times the primary phase only
            run.setup.append(clock() - start)
        run.outcome(True, "")
        gc.collect()
    deadline = clock() + run.seconds
    done = 0
    while (done < evals) if evals else (done == 0 or clock() < deadline):
        acc = run.eval_fold(ckpt, dataset, fold, reference)
        done += 1
    return acc


WORKLOADS = {"desk-train": desk_train, "graph-train": graph_train,
             "graph-eval": graph_eval}


# ------------------------------------------------------------------- metrics

def epoch_batch_sizes(n_items: int, batch_size: int) -> list[int]:
    """Pairs per step within an epoch, by train_fold's documented batching:
    contiguous slices of batch_size, a trailing slice under 2 pairs merged
    into the one before."""
    sizes = [min(batch_size, n_items - lo) for lo in range(0, n_items, batch_size)]
    if len(sizes) > 1 and sizes[-1] < 2:
        sizes[-2] += sizes.pop()
    return sizes


def tail(values) -> tuple[float, float]:
    """(highest percentile with at least ten samples beyond it, its value);
    the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k]


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The end-to-end metrics plus notes on their sample counts."""
    times = [s for s, _ in run.steps]
    pairs = sum(p for _, p in run.steps)
    pct, tail_s = tail(times)
    evals = run.evals
    metrics = {
        "train_pairs_per_s": (pairs / sum(times), "pairs/s"),
        "train_step_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "train_step_tail_ms": (tail_s * 1e3, "ms"),
        "eval_fold_s": (statistics.median(e["seconds"] for e in evals), "s"),
        "predict_pairs_per_s": (statistics.median(e["pairs"] / e["predict_seconds"]
                                                  for e in evals), "pairs/s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"train steps timed: {len(times)} ({pairs} pairs); "
             f"train_step_tail_ms is p{pct:.1f} of {len(times)} steps",
             f"fold evaluations: {len(evals)} of {evals[0]['pairs']} held-out pairs; "
             f"held-out accuracy {evals[-1]['acc']}",
             f"set-ups: {len(run.setup)}"]
    return metrics, notes

