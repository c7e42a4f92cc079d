"""hmgrl benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's ``src/``, never from an installed copy. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``). Inputs, checkpoints and traces go under ``.perfbench_out/``
in the checkout. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_hmgrl():
    """Import hmgrl from this checkout's src/ or exit 2."""
    src = ROOT / "src"
    if not (src / "hmgrl" / "__init__.py").is_file():
        fail(f"no hmgrl sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import hmgrl
    import hmgrl.config
    import hmgrl.encoders
    import hmgrl.evaluate
    import hmgrl.model
    import hmgrl.oracle
    import hmgrl.synth

    if Path(hmgrl.__file__).resolve().parent != (src / "hmgrl").resolve():
        fail(f"imported hmgrl from {hmgrl.__file__}, not {src}")
    return hmgrl


def machine_record() -> list[str]:
    """nproc, numpy and the BLAS library with its thread count."""
    blas, threads = "unknown", "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                count = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and count is not None:
                    config.restype, count.restype = ctypes.c_char_p, ctypes.c_int
                    blas, threads = config().decode().strip(), count()
    return [f"nproc {os.cpu_count()}", f"python {sys.version.split()[0]}",
            f"numpy {np.__version__}", f"blas {blas}", f"blas threads {threads}"]


def declared_metrics(trace: bool) -> dict | None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    hmgrl = import_hmgrl()
    import tracing
    import workloads

    # macro curves warn once per skipped single-class event; not a failure
    warnings.filterwarnings("ignore", message="macro curves skipped")
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(hmgrl, args.seed, args.seconds, workdir, tracer)
    extra = {}
    try:
        if tracer:
            tracing.install(tracer, hmgrl)
        extra = workloads.WORKLOADS[args.workload](run)
    except Exception:           # any failure is one failed operation, reported
        traceback.print_exc()
        run.outcome(False, "exception: " + traceback.format_exc(limit=1).strip())
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    lines = machine_record()
    metrics = {}
    if run.steps and run.evals and run.setup:
        e2e, notes = workloads.end_to_end(run)
        lines += notes
        if tracer:
            extra["trace.train_pairs_per_s"] = (e2e["train_pairs_per_s"][0], len(run.steps))
            extra["evaluate.distinct_score_share"] = (
                statistics.median(e["distinct_share"] for e in run.evals), len(run.evals))
            ops = run.step_ops if run.primary == "steps" else run.eval_ops
            op_span = "model.train_fold" if run.primary == "steps" else "bench.eval_fold"
            layer, samples = tracing.per_layer(tracer, ops, op_span, extra)
            metrics = {k: (v, tracing.unit_of(k)) for k, v in layer.items()}
            lines += [f"{k} = {v:.6g} {tracing.unit_of(k)}  (n={samples[k]})"
                      for k, v in layer.items()]
            lines += tracing.self_time_lines(tracer)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
            if tracer.missing:
                lines.append("not traced (absent): " + ", ".join(tracer.missing))
        else:
            metrics = e2e
    declared = declared_metrics(bool(args.trace))
    if metrics and declared is not None and {k: u for k, (_, u) in metrics.items()} != declared:
        run.outcome(False, "reported metrics differ from BENCHMARK.json")
    for line in lines + [f"FAILED: {p}" for p in run.problems]:
        print(line)
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in ("desk-train", "graph-train", "graph-eval"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in out[:-1]:
            print("   " + line)
        result = json.loads(out[-1]) if out and out[-1].startswith("{") else None
        if result is None:
            status = 1
            continue
        for metric, m in result["metrics"].items():
            print(f"   {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-train", "graph-train", "graph-eval", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
