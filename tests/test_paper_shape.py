"""Smoke test at the published dims: the `d1-task1` preset on a 572-drug,
65-event synthetic set trains two steps and then predicts in one process,
under a bound on that process's peak RSS. It runs in a child process, so
the peak is the run's own and not the test session's.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

PEAK_RSS_BOUND_MB = 3200
PREDICT_PAIRS = 128

CHILD = f"""
import json, resource, time
import numpy as np
from hmgrl import numkit as nk
from hmgrl.config import apply_preset
from hmgrl.evaluate import make_splits
from hmgrl.graphcore import RelGraph
from hmgrl.model import DdiDataset, HmgrlModel, one_hot, predict
from hmgrl.synth import SynthSpec, generate

spec = SynthSpec(n_drugs=572, n_events=65, targets_size=1162, enzymes_size=202,
                 substructures_size=881, n_classes=12, density=0.05)
table, id_triples = generate(spec)
triples = [(table.lookup(a), table.lookup(b), r) for a, b, r in id_triples]
data = DdiDataset(table, triples, max(r for _, _, r in triples) + 1)
cfg = apply_preset("d1-task1")
fold = make_splits(data.triples, data.n_drugs, task=1, n_folds=5, seed=0).folds[0]
graph = RelGraph.from_triples(data.n_drugs, data.n_relations, fold.train)
model = HmgrlModel(cfg, data.table, data.n_relations, seed=0)
state = nk.OptimizerState(lr=cfg.learning_rate, rectified=cfg.rectified)
pairs = np.array([(u, v) for u, v, _ in fold.train])
labels = one_hot([r for _, _, r in fold.train], data.n_relations)
rng = np.random.default_rng(0)
losses, seconds = [], []
for step in range(2):   # train_fold's step, on a seeded batch
    start = time.perf_counter()
    batch = rng.choice(len(pairs), size=cfg.batch_size, replace=False)
    model.zero_grad()
    with nk.Tape() as tape:
        result = model.forward(graph, pairs[batch], labels=labels[batch],
                               dropout_rng=rng, mixup_rng=rng)
    tape.backward(result.loss_total)
    nk.adam_step(model.params, state)
    losses.append(result.loss_total.item())
    seconds.append(time.perf_counter() - start)
model.zero_grad()
_, probs = predict(model, graph, [(u, v) for u, v, _ in fold.test[:{PREDICT_PAIRS}]])
print(json.dumps({{
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "losses": losses, "step_seconds": seconds,
    "predicted": len(probs),
    "row_sum_error": float(np.abs(probs.sum(axis=1) - 1.0).max()),
}}))
"""


def test_paper_shape_trains_and_predicts_within_the_memory_bound():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr[-2000:]
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert all(math.isfinite(x) for x in report["losses"]), report
    assert report["predicted"] == PREDICT_PAIRS
    assert report["row_sum_error"] <= 1e-9, report
    assert report["peak_rss_mb"] < PEAK_RSS_BOUND_MB, report
