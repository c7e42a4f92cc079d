"""Command-line surface: synth, split, train, eval, predict, gradcheck.

Every run is reproducible from (config echo, seed, dataset files). Run
directories follow run/<timestamp>/{config,checkpoint,log,metrics}; training
logs are JSON-lines, one record per batch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .config import PRESETS, RunConfig, apply_preset, load_config, save_config
from .errors import DataError, HmgrlError, NumericError, ParameterError
from .evaluate import compute_metrics, make_splits, summarize_reports
from .featurize import read_drug_table, read_text_lines, write_drug_table
from .graphcore import read_ddi_file, write_ddi_file
from .model import DdiDataset, one_hot, save_model, score_checkpoint, train_fold
from .oracle import GRADCHECK_SEEDS, FdConfig, micro_gradcheck
from .synth import SynthSpec, generate

EXIT_USAGE = ParameterError.exit_code   # bad flags, bad config, bad hyperparameters
EXIT_DATA = DataError.exit_code         # missing/malformed files, unknown ids
EXIT_NUMERIC = NumericError.exit_code   # non-finite loss, degenerate batches


def _run_dir(base: str | None) -> Path:
    if base:
        path = Path(base)
    else:
        path = Path("run") / time.strftime("%Y%m%d-%H%M%S")
    for sub in ("config", "checkpoint", "log", "metrics"):
        (path / sub).mkdir(parents=True, exist_ok=True)
    return path


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(args.config)
    if args.preset:
        cfg = apply_preset(args.preset, cfg)
    overrides = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, f"opt_{field.name}", None)
        if value is not None:
            overrides[field.name] = value
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per scalar config field, plus --folds / --only-folds."""
    parser.add_argument("--config", help="JSON config file to start from")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named hyperparameter preset")
    parser.add_argument("--folds", dest="opt_n_folds", type=int, default=None,
                        help="number of cross-validation folds")
    parser.add_argument("--only-folds", default=None,
                        help="comma-separated fold indices to train")
    defaults = RunConfig()
    for field in dataclasses.fields(RunConfig):
        if field.name in ("n_folds", "folds", "drug_table", "ddi_file", "preset"):
            continue
        default = getattr(defaults, field.name)
        flag = "--" + field.name.replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(flag, dest=f"opt_{field.name}",
                                action=argparse.BooleanOptionalAction, default=None)
        elif isinstance(default, (int, float, str)):
            parser.add_argument(flag, dest=f"opt_{field.name}",
                                type=type(default), default=None)


def cmd_synth(args) -> int:
    n_classes = 4   # the fewest classes whose class pairs cover every event
    while n_classes * (n_classes + 1) // 2 < args.events:
        n_classes += 1
    spec = SynthSpec(seed=args.seed, n_drugs=args.drugs, n_events=args.events,
                     n_classes=n_classes,
                     density=args.density, targets_size=args.targets,
                     enzymes_size=args.enzymes,
                     substructures_size=args.substructures)
    table, triples = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_drug_table(out / "drugs.tsv", table)
    write_ddi_file(out / "ddis.tsv", triples)
    # round-trip well-formedness check before declaring success
    reloaded = read_drug_table(out / "drugs.tsv")
    assert reloaded.ids == table.ids
    read_ddi_file(out / "ddis.tsv", reloaded)
    print(f"wrote {len(table)} drugs, {len(triples)} interactions to {out}")
    return 0


def cmd_split(args) -> int:
    dataset = DdiDataset.load(args.drugs, args.ddis)
    plan = make_splits(dataset.triples, dataset.n_drugs, task=args.task,
                       n_folds=args.folds, seed=args.seed)
    payload = {
        "task": plan.task, "n_folds": plan.n_folds, "seed": plan.seed,
        "folds": [{
            "train": [list(t) for t in fold.train],
            "test": [list(t) for t in fold.test],
            "new_drugs": sorted(fold.new_drugs),
        } for fold in plan.folds],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote split plan to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _load_folds(cfg: RunConfig):
    """(dataset, plan, kept, skipped) for the config's selected folds. A fold
    with fewer than 2 test pairs is skipped: the clustering views cluster the
    query batch, so it cannot be scored."""
    selected = list(cfg.folds) if cfg.folds else list(range(cfg.n_folds))
    for index in selected:
        if not 0 <= index < cfg.n_folds:
            raise ParameterError(f"fold index {index} out of range for "
                                 f"n_folds={cfg.n_folds}")
    dataset = DdiDataset.load(cfg.drug_table, cfg.ddi_file)
    plan = make_splits(dataset.triples, dataset.n_drugs, task=cfg.task,
                       n_folds=cfg.n_folds, seed=cfg.seed)
    kept = [i for i in selected if len(plan.folds[i].test) >= 2]
    skipped = [i for i in selected if i not in kept]
    for i in skipped:
        print(f"fold {i}: skipped, {len(plan.folds[i].test)} test pairs "
              f"(scoring needs at least 2)")
    if not kept:
        raise DataError(f"no selected fold has the 2 test pairs scoring needs "
                        f"(skipped folds {skipped})")
    return dataset, plan, kept, skipped


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if args.drugs:
        cfg = cfg.replace(drug_table=args.drugs)
    if args.ddis:
        cfg = cfg.replace(ddi_file=args.ddis)
    if args.only_folds is not None:
        try:
            folds = tuple(int(x) for x in args.only_folds.split(","))
        except ValueError:
            raise ParameterError(f"--only-folds needs comma-separated integers, "
                                 f"got {args.only_folds!r}") from None
        cfg = cfg.replace(folds=folds)
    if not cfg.drug_table or not cfg.ddi_file:
        raise ParameterError("train needs --drugs and --ddis (or config entries)")
    dataset, plan, fold_indices, _ = _load_folds(cfg)
    run_dir = _run_dir(args.out)
    save_config(run_dir / "config" / "config.json", cfg)
    for fold_index in fold_indices:
        log_path = run_dir / "log" / f"fold{fold_index}.jsonl"
        with open(log_path, "w", encoding="utf-8") as log:
            def log_fn(record, _log=log):
                _log.write(json.dumps(dataclasses.asdict(record), sort_keys=True)
                           + "\n")

            model, _, records = train_fold(cfg, dataset, plan.folds[fold_index],
                                           fold_index=fold_index, log_fn=log_fn)
        save_model(run_dir / "checkpoint" / f"fold{fold_index}.ckpt", model,
                   extra_meta={"fold": fold_index})
        del model  # the next fold trains without this one alive
        print(f"fold {fold_index}: {len(records)} batches, "
              f"final loss {records[-1].loss_total:.6f}")
    print(f"run directory: {run_dir}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg = load_config(run_dir / "config" / "config.json")
    if args.macro_auc:
        cfg = cfg.replace(macro_auc=True)
    dataset, plan, fold_indices, skipped = _load_folds(cfg)
    reports = []
    for fold_index in fold_indices:
        fold = plan.folds[fold_index]
        ckpt = run_dir / "checkpoint" / f"fold{fold_index}.ckpt"
        if not ckpt.exists():
            raise DataError(f"missing checkpoint for fold {fold_index}", path=ckpt)
        _, probs = score_checkpoint(ckpt, dataset.table, cfg.ddi_file, fold.train,
                                    [(u, v) for u, v, _ in fold.test])
        events = [r for _, _, r in fold.test]
        if max(events) >= probs.shape[1]:
            raise DataError(f"event type {max(events)} is not among the "
                            f"checkpoint's 0..{probs.shape[1] - 1}", path=cfg.ddi_file)
        report = compute_metrics(probs, one_hot(events, probs.shape[1]),
                                 macro_curves=cfg.macro_auc)
        reports.append(report)
        print(f"fold {fold_index}: " + "  ".join(
            f"{k}={v:.4f}" for k, v in list(report.as_dict().items())[:6]))
    summary = summarize_reports(reports)
    summary["skipped_folds"] = skipped
    summary["config"] = cfg.as_dict()
    out_path = run_dir / "metrics" / "metrics.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    means = summary["summary"]
    print("mean±std: " + "  ".join(
        f"{k}={v['mean']:.4f}±{v['std']:.4f}" for k, v in means.items()))
    print(f"wrote {out_path}")
    return 0


def cmd_predict(args) -> int:
    table = read_drug_table(args.drugs)
    pairs = []
    for line_no, line in read_text_lines(args.pairs):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError("expected 'drug_a<TAB>drug_b'", args.pairs, line_no)
        u, v = (table.lookup(d, args.pairs, line_no) for d in fields)
        if u == v:
            raise DataError("a pair must join two distinct drugs", args.pairs, line_no)
        pairs.append((u, v))
    if len(pairs) < 2:  # the clustering views cluster the query batch
        raise DataError(f"need at least 2 pairs, got {len(pairs)}", args.pairs)
    pred, probs = score_checkpoint(args.checkpoint, table, args.train_ddis,
                                   read_ddi_file(args.train_ddis, table), pairs)
    lines = []
    for (u, v), cls, row in zip(pairs, pred, probs):
        lines.append("\t".join([table.ids[u], table.ids[v], str(int(cls))]
                               + [f"{p:.12g}" for p in row]))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(pairs)} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed
    seeds = GRADCHECK_SEEDS if seed is None else (seed, seed, seed + 1, seed + 2)
    report = micro_gradcheck(apply_preset(args.preset), seeds,
                             FdConfig(sample_count=args.samples))
    width = max(len(name) for name in report)
    print(f"{'parameter'.ljust(width)}  checked  max_rel_err  ok")
    for name, rec in report.items():
        print(f"{name.ljust(width)}  {rec['checked']:7d}  {rec['max_rel_err']:.3e}  "
              f"{'yes' if rec['ok'] else 'NO'}")
    failures = sum(not rec["ok"] for rec in report.values())
    print(f"{len(report)} parameters checked, {failures} failures")
    return 0 if failures == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmgrl",
        description="Multi-relational drug interaction event prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-rule synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drugs", type=int, default=60)
    p.add_argument("--events", type=int, default=8)
    p.add_argument("--density", type=float, default=0.28)
    p.add_argument("--targets", type=int, default=24)
    p.add_argument("--enzymes", type=int, default=16)
    p.add_argument("--substructures", type=int, default=32)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="emit a deterministic fold plan")
    p.add_argument("--drugs", required=True)
    p.add_argument("--ddis", required=True)
    p.add_argument("--task", type=int, default=1)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train selected folds into a run directory")
    p.add_argument("--drugs")
    p.add_argument("--ddis")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a trained run on its test folds")
    p.add_argument("--run", required=True)
    p.add_argument("--macro-auc", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="predict event types for listed pairs")
    p.add_argument("--drugs", required=True)
    p.add_argument("--train-ddis", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check every named parameter")
    p.add_argument("--preset", choices=sorted(PRESETS), default="micro")
    p.add_argument("--seed", type=int,
                   help="data and model seed N, nudge N+1, sample N+2 "
                        "(default: the pinned seeds 7, 3, 5, 11)")
    p.add_argument("--samples", type=int, default=6)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HmgrlError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # a path that cannot be read or written as a file
        where = "" if err.filename is None else f"{err.filename}: "
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
