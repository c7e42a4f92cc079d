import dataclasses
import json
import shutil

import numpy as np
import pytest

from hmgrl.cli import EXIT_DATA, EXIT_USAGE, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run_cli("synth", "--out", out, "--seed", 5, "--drugs", 12,
                   "--events", 3, "--density", 0.5, "--targets", 10,
                   "--enzymes", 8, "--substructures", 12) == 0
    return out


def test_synth_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("synth", "--out", out, "--seed", 9, "--drugs", 10,
                       "--events", 3, "--density", 0.4) == 0
    assert (a / "drugs.tsv").read_bytes() == (b / "drugs.tsv").read_bytes()
    assert (a / "ddis.tsv").read_bytes() == (b / "ddis.tsv").read_bytes()
    c = tmp_path / "c"
    assert run_cli("synth", "--out", c, "--seed", 10, "--drugs", 10,
                   "--events", 3, "--density", 0.4) == 0
    assert (a / "ddis.tsv").read_bytes() != (c / "ddis.tsv").read_bytes()


def test_synth_infeasible_density(tmp_path):
    assert run_cli("synth", "--out", tmp_path / "x", "--density", 2.0) == EXIT_USAGE


@pytest.mark.parametrize("flags, field", [
    (["--targets", 0], "targets_size"),
    (["--enzymes", -1], "enzymes_size"),
    (["--substructures", 0], "substructures_size"),
    (["--density", "nan"], "density"),
], ids=["targets-zero", "enzymes-negative", "substructures-zero", "density-nan"])
def test_synth_bad_spec_is_usage_error_naming_field(tmp_path, capsys, flags, field):
    assert run_cli("synth", "--out", tmp_path / "x", *flags) == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_split_task_laws(synth_dir, tmp_path):
    out = tmp_path / "plan.json"
    assert run_cli("split", "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--task", 2,
                   "--seed", 3, "--out", out) == 0
    plan = json.loads(out.read_text())
    assert plan["task"] == 2 and len(plan["folds"]) == 5
    for fold in plan["folds"]:
        new = set(fold["new_drugs"])
        for u, v, _ in fold["test"]:
            assert (u in new) != (v in new)


def test_train_eval_predict_cycle(synth_dir, tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--preset", "micro",
                   "--epochs", 2, "--folds", 3, "--only-folds", "0,1",
                   "--seed", 1, "--out", run_dir) == 0
    assert (run_dir / "config" / "config.json").exists()
    assert (run_dir / "checkpoint" / "fold0.ckpt").exists()
    assert (run_dir / "checkpoint" / "fold1.ckpt").exists()
    log_lines = (run_dir / "log" / "fold0.jsonl").read_text().splitlines()
    assert log_lines
    record = json.loads(log_lines[0])
    assert {"epoch", "batch", "loss_ce", "loss_dsc", "loss_total"} <= record.keys()

    assert run_cli("eval", "--run", run_dir) == 0
    metrics = json.loads((run_dir / "metrics" / "metrics.json").read_text())
    assert set(metrics["summary"]) == {"AUPR", "AUC", "ACC", "F1",
                                       "Precision", "Recall"}
    assert metrics["config"]["preset"] == "micro"  # config echoed into artifact

    pairs = tmp_path / "pairs.tsv"
    drugs = [line.split("\t")[0] for line
             in (synth_dir / "drugs.tsv").read_text().splitlines()[1:]]
    pairs.write_text(f"{drugs[0]}\t{drugs[1]}\n{drugs[2]}\t{drugs[3]}\n")
    pred_out = tmp_path / "pred.tsv"
    assert run_cli("predict", "--drugs", synth_dir / "drugs.tsv",
                   "--train-ddis", synth_dir / "ddis.tsv",
                   "--checkpoint", run_dir / "checkpoint" / "fold0.ckpt",
                   "--pairs", pairs, "--out", pred_out) == 0
    lines = pred_out.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[0].split("\t")
    probs = np.array([float(x) for x in fields[3:]])
    assert len(probs) == 3  # three event types
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert int(fields[2]) == int(np.argmax(probs))


def test_train_eval_rerun_is_deterministic(synth_dir, tmp_path):
    outputs = []
    for name in ("r1", "r2"):
        run_dir = tmp_path / name
        assert run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                       "--ddis", synth_dir / "ddis.tsv", "--preset", "micro",
                       "--epochs", 2, "--folds", 3, "--only-folds", "0",
                       "--seed", 7, "--out", run_dir) == 0
        assert run_cli("eval", "--run", run_dir) == 0
        outputs.append(run_dir)
    a, b = outputs
    assert ((a / "checkpoint" / "fold0.ckpt").read_bytes()
            == (b / "checkpoint" / "fold0.ckpt").read_bytes())
    logs_a = [json.loads(x) for x in (a / "log" / "fold0.jsonl").read_text().splitlines()]
    logs_b = [json.loads(x) for x in (b / "log" / "fold0.jsonl").read_text().splitlines()]
    for ra, rb in zip(logs_a, logs_b):
        for key in ("loss_ce", "loss_dsc", "loss_total"):
            assert abs(ra[key] - rb[key]) <= 1e-12
    ma = json.loads((a / "metrics" / "metrics.json").read_text())["summary"]
    mb = json.loads((b / "metrics" / "metrics.json").read_text())["summary"]
    assert ma == mb


@pytest.mark.filterwarnings("ignore:fold .* no test interactions")
def test_eval_skips_folds_too_small_to_score(tmp_path, capsys):
    # task 3 on a sparse 20-drug set leaves test folds of [0, 0, 1, 0, 2] pairs
    data = tmp_path / "d"
    assert run_cli("synth", "--out", data, "--drugs", 20, "--density", 0.15,
                   "--events", 4) == 0
    train = ["train", "--drugs", data / "drugs.tsv", "--ddis", data / "ddis.tsv",
             "--preset", "micro", "--task", 3, "--epochs", 1]
    run_dir = tmp_path / "run"
    skip_line = "fold 2: skipped, 1 test pairs (scoring needs at least 2)"
    assert run_cli(*train, "--out", run_dir) == 0
    assert skip_line in capsys.readouterr().out
    # a fold that eval cannot score is not trained: no log, no checkpoint
    assert sorted(p.name for p in (run_dir / "checkpoint").iterdir()) == ["fold4.ckpt"]
    assert sorted(p.name for p in (run_dir / "log").iterdir()) == ["fold4.jsonl"]
    assert run_cli("eval", "--run", run_dir) == 0
    assert skip_line in capsys.readouterr().out
    metrics = json.loads((run_dir / "metrics" / "metrics.json").read_text())
    assert metrics["skipped_folds"] == [0, 1, 2, 3]
    assert len(metrics["folds"]) == 1
    only_small = tmp_path / "small"
    assert run_cli(*train, "--only-folds", "0,2", "--out", only_small) == EXIT_DATA
    assert "no selected fold has the 2 test pairs" in capsys.readouterr().err
    assert not only_small.exists()


def test_missing_file_exit_code(tmp_path):
    assert run_cli("train", "--drugs", tmp_path / "absent.tsv",
                   "--ddis", tmp_path / "absent2.tsv") == EXIT_DATA


@pytest.mark.parametrize("kind, bad_line, message", [
    ("drugs", b"DX\tCC\t0\t1", "expected 5 tab-separated fields, got 4"),
    ("drugs", b"DX\tCC\tx\t1\t0", "bad descriptor index 'x'"),
    ("drugs", b"DX\tCC\t10\t1\t0", "descriptor index 10 out of range 0..9"),
    ("drugs", b"DX\tCC\t0\t-1\t0", "descriptor index -1 out of range 0..7"),
    ("drugs", b"DX\tC\xffC\t0\t1\t0", "not UTF-8"),
    ("ddis", b"SYN0000\tSYN0002", "expected 3 tab-separated fields, got 2"),
    ("ddis", b"SYN0000\tSYN0002\tx", "bad event type 'x'"),
    ("ddis", b"SYN0000\tSYN0002\t-1", "event type must be >= 0, got -1"),
    ("ddis", b"SYN0003\tSYN0003\t0", "self-interaction"),
    ("ddis", b"SYN0000\tNOPE\t0", "unknown drug id 'NOPE'"),
    ("ddis", b"SYN0000\tSYN\xe90002\t0", "not UTF-8"),
    ("pairs", b"SYN0000", "expected 'drug_a<TAB>drug_b'"),
    ("pairs", b"NOPE\tSYN0001", "unknown drug id 'NOPE'"),
    ("pairs", b"\xff\xfe\tSYN0001", "not UTF-8"),
    ("drugs", None, "Is a directory"),   # None: the path is a directory
    ("ddis", None, "Is a directory"),
    ("pairs", None, "Is a directory"),
], ids=["drugs-fields", "drugs-bad-index", "drugs-index-past-end",
        "drugs-negative-index", "drugs-not-utf8", "ddis-fields", "ddis-bad-event",
        "ddis-negative-event", "ddis-self", "ddis-unknown-id", "ddis-not-utf8",
        "pairs-fields", "pairs-unknown-id", "pairs-not-utf8", "drugs-directory",
        "ddis-directory", "pairs-directory"])
def test_malformed_data_line_names_file_and_line(synth_dir, tmp_path, capsys,
                                                 kind, bad_line, message):
    files = {"drugs": (synth_dir / "drugs.tsv").read_bytes(),
             "ddis": (synth_dir / "ddis.tsv").read_bytes(),
             "pairs": b"SYN0000\tSYN0001\nSYN0002\tSYN0003\n"}
    paths = {}
    for name, blob in files.items():
        paths[name] = tmp_path / f"{name}.tsv"
        if name != kind:
            paths[name].write_bytes(blob)
        elif bad_line is None:
            paths[name].mkdir()
        else:
            head = blob.split(b"\n", 2)  # the bad line becomes line 3
            paths[name].write_bytes(head[0] + b"\n" + head[1] + b"\n" + bad_line
                                    + b"\n" + head[2])
    if kind == "pairs":  # the pairs file is read before the checkpoint
        code = run_cli("predict", "--drugs", paths["drugs"], "--train-ddis",
                       paths["ddis"], "--checkpoint", tmp_path / "absent.ckpt",
                       "--pairs", paths["pairs"])
    else:
        code = run_cli("split", "--drugs", paths["drugs"], "--ddis", paths["ddis"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    where = f"{paths[kind]}: " if bad_line is None else f"{paths[kind]}:3: "
    assert where in err and message in err


@pytest.mark.parametrize("text, message", [
    (b"{bad", "Expecting property name"),
    (b"[1, 2]", "one JSON object"),
    (b'{"seed": "\xff"}', "can't decode"),
    (b'{"batch_size": "big"}', "'batch_size' must be of type int, got 'big'"),
    (b'{"learning_rate": true}', "'learning_rate' must be of type float"),
    (b'{"mixup": 1}', "'mixup' must be of type bool"),
    (b'{"cnn_kernels": [3, "5"]}', "'cnn_kernels' must be of type tuple"),
    (b'{"no_such_key": 1}', "unknown config keys"),
    (b'{"ffn_enabled": false}', "'ffn_enabled' is retired"),
    (b'{"positional_tokens": true}', "'positional_tokens' is retired"),
    (b'{"adam_beta1": 0.5}', "'adam_beta1' is retired"),
    (b'{"rgcn_depth": true}', "'rgcn_depth' is retired"),   # 1, but not an int
    (None, "No such file or directory"),   # None: the file does not exist
], ids=["not-json", "not-object", "not-utf8", "int-field", "float-field",
        "bool-field", "tuple-field", "unknown-key", "retired-ffn-off",
        "retired-positional-on", "retired-beta1-half", "retired-depth-true",
        "missing"])
def test_bad_config_file_is_usage_error_naming_it(synth_dir, tmp_path, capsys,
                                                  text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_bytes(text)
    assert run_cli("train", "--config", cfg, "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--out", tmp_path / "x") == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(cfg) in err and message in err
    run_config = tmp_path / "run" / "config" / "config.json"  # a run's own echo
    run_config.parent.mkdir(parents=True)
    if text is not None:
        run_config.write_bytes(text)
    assert run_cli("eval", "--run", tmp_path / "run") == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(run_config) in err and message in err


# (flags or config-file entries, the field the error must name)
OUT_OF_DOMAIN = [
    (["--epochs", 0], "epochs"),
    (["--embed-dim", 0], "embed_dim"),
    (["--attention-dim", 0], "attention_dim"),
    (["--embedding-encoder-dim", 0], "embedding_encoder_dim"),
    (["--dsc-heads", 0], "dsc_heads"),
    (["--dsc-clusters", 0], "dsc_clusters"),
    (["--token-count", 0], "token_count"),
    (["--token-dim", 0], "token_dim"),
    (["--attn-heads", 0], "attn_heads"),
    (["--attn-heads", 3], "attn_heads"),   # does not divide micro's token_dim 8
    (["--decoder-hidden", 0], "decoder_hidden"),
    (["--dsc-proj-dim", -1], "dsc_proj_dim"),
    (["--propagation-hops", -1], "propagation_hops"),
    (["--learning-rate", "nan"], "learning_rate"),
    (["--learning-rate", "inf"], "learning_rate"),
    (["--learning-rate", 0], "learning_rate"),
    (["--regularizer-weight", "nan"], "regularizer_weight"),
    (["--regularizer-weight", -0.5], "regularizer_weight"),
    (["--batch-size", 1], "batch_size"),
    (["--dropout-rate", 1.0], "dropout_rate"),
    ({"dropout_rate": 1.0}, "dropout_rate"),
    ({"cnn_channels": [4, 0, 6]}, "cnn_channels"),
    ({"cnn_kernels": [3, 5, -7]}, "cnn_kernels"),
    ({"cnn_channels": [], "cnn_kernels": []}, "cnn_channels"),
    ({"rgcn_depth": 0}, "rgcn_depth"),   # retired keys hold one value
    ({"mixup_alpha": 0}, "mixup_alpha"),
    ({"adam_eps": 0}, "adam_eps"),
    ({"adam_beta1": 1}, "adam_beta1"),
    ({"adam_beta2": 1}, "adam_beta2"),
    ({"adam_beta2": float("nan")}, "adam_beta2"),
]


def _domain_row_id(flags) -> str:
    if isinstance(flags, dict):
        return "file-" + "-".join(f"{k}={v}" for k, v in flags.items())
    return "-".join(str(f).removeprefix("--") for f in flags)


@pytest.mark.parametrize("flags, field", OUT_OF_DOMAIN,
                         ids=[_domain_row_id(flags) for flags, _ in OUT_OF_DOMAIN])
def test_config_value_out_of_domain_is_usage_error_naming_field(
        synth_dir, tmp_path, capsys, flags, field):
    if isinstance(flags, dict):   # tuple and retired fields have no flag: a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        flags = ["--config", cfg]
    else:
        flags = ["--preset", "micro", *flags]
    run_dir = tmp_path / "run"
    assert run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--out", run_dir,
                   *flags) == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not run_dir.exists()  # rejected before any work


def test_unknown_preset_is_usage_error(synth_dir, capsys):
    with pytest.raises(SystemExit):  # argparse rejects the choice itself
        run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                "--ddis", synth_dir / "ddis.tsv", "--preset", "nope")


def test_published_preset_values():
    from hmgrl.config import apply_preset

    cfg = apply_preset("d1-task1")
    assert (cfg.batch_size, cfg.learning_rate, cfg.dropout_rate,
            cfg.epochs) == (512, 2e-5, 0.3, 120)
    assert (cfg.embed_dim, cfg.propagation_hops) == (500, 0)
    assert (cfg.attention_dim, cfg.embedding_encoder_dim) == (200, 1500)
    assert (cfg.dsc_heads, cfg.dsc_clusters, cfg.regularizer_weight) == (5, 200, 0.2)
    cfg2 = apply_preset("d1-task2")
    assert (cfg2.task, cfg2.batch_size, cfg2.learning_rate) == (2, 1024, 5e-6)
    assert (cfg2.propagation_hops, cfg2.dsc_clusters, cfg2.regularizer_weight) == (3, 400, 0.5)
    d2 = apply_preset("d2-task1")
    assert (d2.epochs, d2.dsc_clusters) == (150, 400)


def test_config_file_roundtrip(tmp_path):
    from hmgrl.config import RunConfig, load_config, save_config

    cfg = RunConfig(seed=5, batch_size=64, mixup=True, folds=(0, 2))
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_stored_config_with_retired_keys_loads(tmp_path):
    from hmgrl.config import RunConfig, apply_preset, load_config

    cfg = apply_preset("small").replace(seed=3)
    stored = {**cfg.as_dict(), "ffn_enabled": True, "positional_tokens": False,
              "rgcn_depth": 1, "adam_beta1": 0.9, "adam_beta2": 0.999,
              "adam_eps": 1e-8, "mixup_alpha": 1.0}
    assert RunConfig.from_dict(stored) == cfg
    assert RunConfig.from_dict({**stored, "mixup_alpha": 1}) == cfg  # an int 1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(stored))
    assert load_config(path) == cfg


# Every RunConfig field but the data paths and the fold selection, each with
# an in-domain change from the micro preset and the flags it is read under.
# A dict row holds config-file entries:
# the tuple fields have no flag, and --preset would overwrite `preset`. Each
# change must alter the parameter set, the predictions, the first training
# loss, the eval report or the preset echoed into metrics.json.
KNOBS = [
    (["--task", 2], []),
    (["--folds", 4], []),
    (["--seed", 2], []),
    ({"preset": ""}, []),
    (["--batch-size", 4], []),
    (["--learning-rate", 0.01], []),
    (["--dropout-rate", 0.3], []),
    (["--epochs", 2], []),
    (["--embed-dim", 6], []),
    (["--propagation-hops", 2], []),
    (["--attention-dim", 6], []),
    (["--embedding-encoder-dim", 6], []),
    (["--dsc-heads", 3], []),
    (["--dsc-clusters", 3], []),
    (["--regularizer-weight", 0.5], []),
    ({"cnn_channels": [4, 5, 7]}, []),
    ({"cnn_kernels": [3, 5, 5]}, []),
    (["--token-count", 3], []),
    (["--token-dim", 4], []),
    (["--attn-heads", 1], []),
    (["--dsc-proj-dim", 2], []),
    (["--decoder-hidden", 12], []),
    (["--rectified"], []),
    (["--mixup"], []),
    (["--macro-auc"], []),
]


@pytest.fixture(scope="module")
def micro_run_outputs(synth_dir, tmp_path_factory):
    """flags -> what one micro train, predict and eval with them produce.
    A dict of config-file entries replaces `--preset micro` by a config file
    holding the micro values updated by the entries."""
    from hmgrl.config import apply_preset
    from hmgrl.numkit import load_checkpoint

    cache = {}

    def outputs(flags):
        key = json.dumps(flags, sort_keys=True, default=str)
        if key not in cache:
            run_dir = tmp_path_factory.mktemp("knob")
            if isinstance(flags, dict):
                cfg = run_dir / "cfg.json"
                cfg.write_text(json.dumps({**apply_preset("micro").as_dict(), **flags}))
                flags = ["--config", cfg]
            else:
                flags = ["--preset", "micro", *flags]
            assert run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                           "--ddis", synth_dir / "ddis.tsv",
                           "--epochs", 1, "--folds", 3, "--only-folds", 0,
                           "--seed", 1, "--out", run_dir / "run", *flags) == 0
            assert run_cli("eval", "--run", run_dir / "run") == 0
            ids = [line.split("\t")[0] for line
                   in (synth_dir / "drugs.tsv").read_text().splitlines()[1:5]]
            pairs = run_dir / "pairs.tsv"
            pairs.write_text(f"{ids[0]}\t{ids[1]}\n{ids[2]}\t{ids[3]}\n")
            ckpt = run_dir / "run" / "checkpoint" / "fold0.ckpt"
            assert run_cli("predict", "--drugs", synth_dir / "drugs.tsv",
                           "--train-ddis", synth_dir / "ddis.tsv", "--checkpoint",
                           ckpt, "--pairs", pairs, "--out", run_dir / "pred.tsv") == 0
            log = (run_dir / "run" / "log" / "fold0.jsonl").read_text().splitlines()
            metrics = json.loads((run_dir / "run" / "metrics" / "metrics.json").read_text())
            cache[key] = {
                "parameters": {n: a.shape for n, a in load_checkpoint(ckpt)[0].items()},
                "predictions": (run_dir / "pred.tsv").read_text(),
                "first loss": json.loads(log[0])["loss_total"],
                "eval report": metrics["summary"],
                "preset echo": metrics["config"]["preset"],
            }
        return cache[key]

    return outputs


def _knob_row_id(flags) -> str:
    return next(iter(flags)) if isinstance(flags, dict) else flags[0].removeprefix("--")


@pytest.mark.parametrize("flags, base", KNOBS,
                         ids=[_knob_row_id(flags) for flags, _ in KNOBS])
def test_in_domain_knob_change_alters_an_output(micro_run_outputs, flags, base):
    before = micro_run_outputs(base)
    if isinstance(flags, dict):  # the micro config file reproduces --preset micro
        assert micro_run_outputs({}) == before
    after = micro_run_outputs(flags if isinstance(flags, dict) else base + flags)
    assert [what for what in before if before[what] != after[what]]


def test_knob_table_covers_every_config_field():
    from hmgrl.config import RunConfig

    rows = {_knob_row_id(flags).replace("-", "_") for flags, _ in KNOBS}
    rows = {"n_folds" if row == "folds" else row for row in rows}
    # every run sets these three: --drugs, --ddis and --only-folds
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert rows == fields - {"drug_table", "ddi_file", "folds"}


@pytest.fixture(scope="module")
def event8_run(tmp_path_factory):
    """A one-epoch micro run on fold 0 of 3 of the default synthetic set
    (8 event types): (data directory, run directory, pairs file)."""
    base = tmp_path_factory.mktemp("event8")
    data, run_dir = base / "data", base / "run"
    assert run_cli("synth", "--out", data) == 0
    assert run_cli("train", "--drugs", data / "drugs.tsv", "--ddis", data / "ddis.tsv",
                   "--preset", "micro", "--epochs", 1, "--folds", 3,
                   "--only-folds", 0, "--out", run_dir) == 0
    pairs = base / "pairs.tsv"
    pairs.write_text("SYN0000\tSYN0001\nSYN0002\tSYN0003\n")
    return data, run_dir, pairs


def test_unknown_event_type_in_predict_graph_names_interaction_file(
        event8_run, tmp_path, capsys):
    data, run_dir, pairs = event8_run
    lines = (data / "ddis.tsv").read_text().splitlines()
    drug_a, drug_b, _ = lines[0].split("\t")
    ddis = tmp_path / "ddis.tsv"
    ddis.write_text(f"{drug_a}\t{drug_b}\t9\n" + "".join(f"{x}\n" for x in lines[1:]))
    code = run_cli("predict", "--drugs", data / "drugs.tsv", "--train-ddis", ddis,
                   "--checkpoint", run_dir / "checkpoint" / "fold0.ckpt",
                   "--pairs", pairs)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"{ddis}: " in err and "event type out of range 0..7" in err


def _eval_on_other_interactions(run_dir, lines, tmp_path):
    """eval's exit code for a copy of the run whose config names an
    interaction file of the given lines; (code, that file, the copy)."""
    ddis = tmp_path / "ddis.tsv"
    ddis.write_text("".join(f"{line}\n" for line in lines))
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    config = run / "config" / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "ddi_file": str(ddis)}))
    return run_cli("eval", "--run", run), ddis, run


def test_eval_scores_a_run_whose_interaction_file_lost_an_event_type(
        event8_run, tmp_path):
    # the graph takes the checkpoint's 8 event types, not the file's 7
    data, run_dir, pairs = event8_run
    lines = [x for x in (data / "ddis.tsv").read_text().splitlines()
             if not x.endswith("\t7")]
    code, ddis, run = _eval_on_other_interactions(run_dir, lines, tmp_path)
    assert code == 0
    metrics = json.loads((run / "metrics" / "metrics.json").read_text())
    assert len(metrics["folds"]) == 1
    assert run_cli("predict", "--drugs", data / "drugs.tsv", "--train-ddis", ddis,
                   "--checkpoint", run / "checkpoint" / "fold0.ckpt",
                   "--pairs", pairs) == 0


def test_eval_unknown_test_event_type_names_interaction_file(
        event8_run, tmp_path, capsys):
    from hmgrl.evaluate import make_splits
    from hmgrl.model import DdiDataset

    data, run_dir, _ = event8_run
    dataset = DdiDataset.load(data / "drugs.tsv", data / "ddis.tsv")
    plan = make_splits(dataset.triples, dataset.n_drugs, task=1, n_folds=3, seed=0)
    # a task-1 split depends only on the interaction count, so the relabelled
    # interaction stays in fold 0's test share, outside its graph
    j = dataset.triples.index(plan.folds[0].test[0])
    lines = (data / "ddis.tsv").read_text().splitlines()
    lines[j] = lines[j].rsplit("\t", 1)[0] + "\t8"
    code, ddis, _ = _eval_on_other_interactions(run_dir, lines, tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"{ddis}: event type 8 is not among the checkpoint's 0..7" in err


@pytest.mark.parametrize("flags, averaging", [
    ([], "micro-curves/macro-prf"),
    (["--macro-auc"], "macro-curves/macro-prf"),
], ids=["run-config", "macro-auc-flag"])
def test_eval_macro_auc_flag_overrides_the_run_config(event8_run, tmp_path, flags,
                                                      averaging):
    _, run_dir, _ = event8_run
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    assert run_cli("eval", "--run", run, *flags) == 0
    metrics = json.loads((run / "metrics" / "metrics.json").read_text())
    assert [fold["averaging"] for fold in metrics["folds"]] == [averaging]


def test_eval_missing_checkpoint_is_data_error_naming_it(event8_run, tmp_path, capsys):
    _, run_dir, _ = event8_run
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    ckpt = run / "checkpoint" / "fold0.ckpt"
    ckpt.unlink()
    assert run_cli("eval", "--run", run) == EXIT_DATA
    assert f"{ckpt}: missing checkpoint for fold 0" in capsys.readouterr().err


def test_eval_checkpoint_cut_inside_a_header_is_data_error_naming_it(
        event8_run, tmp_path, capsys):
    _, run_dir, _ = event8_run
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    ckpt = run / "checkpoint" / "fold0.ckpt"
    blob = ckpt.read_bytes()
    _, _, records = _checkpoint_records(blob)
    start, header_end, _ = records[1]
    ckpt.write_bytes(blob[:(start + header_end) // 2])   # no newline ends it
    assert run_cli("eval", "--run", run) == EXIT_DATA
    assert f"{ckpt}: truncated record header" in capsys.readouterr().err


@pytest.mark.parametrize("given", [(), ("drugs",), ("ddis",)],
                         ids=["neither", "drugs-only", "ddis-only"])
def test_train_without_its_data_files_is_usage_error(synth_dir, tmp_path, capsys,
                                                     given):
    files = [x for name in given for x in (f"--{name}", synth_dir / f"{name}.tsv")]
    out = tmp_path / "run"
    assert run_cli("train", *files, "--preset", "micro", "--out", out) == EXIT_USAGE
    assert "train needs --drugs and --ddis" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_an_empty_interaction_file_is_data_error_naming_it(
        synth_dir, tmp_path, capsys):
    ddis = tmp_path / "ddis.tsv"
    ddis.write_text("")
    assert run_cli("train", "--drugs", synth_dir / "drugs.tsv", "--ddis", ddis,
                   "--preset", "micro", "--out", tmp_path / "run") == EXIT_DATA
    assert f"{ddis}: dataset has no interactions" in capsys.readouterr().err


def test_synth_many_events_picks_enough_classes(tmp_path):
    from hmgrl.featurize import read_drug_table, write_drug_table
    from hmgrl.graphcore import read_ddi_file, write_ddi_file
    from hmgrl.synth import SynthSpec, generate

    assert run_cli("synth", "--out", tmp_path / "many", "--events", 65,
                   "--drugs", 200) == 0
    many = tmp_path / "many"
    events = {r for _, _, r in read_ddi_file(many / "ddis.tsv",
                                             read_drug_table(many / "drugs.tsv"))}
    assert max(events) < 65
    # 65 events need 11 classes of at least 2 drugs each
    assert run_cli("synth", "--out", tmp_path / "few", "--events", 65,
                   "--drugs", 21) == EXIT_USAGE
    # the default 8 events keep the 4-class generator, file for file
    assert run_cli("synth", "--out", tmp_path / "cli") == 0
    table, triples = generate(SynthSpec(seed=0, n_classes=4))
    write_drug_table(tmp_path / "drugs.tsv", table)
    write_ddi_file(tmp_path / "ddis.tsv", triples)
    for name in ("drugs.tsv", "ddis.tsv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("event", ["9" * 30, "200000", "1000"],
                         ids=["past-int64", "two-hundred-thousand", "first-past-bound"])
def test_event_type_past_the_bound_names_file_and_line(tmp_path, capsys, event):
    # one edited line must not size the model: past int64 it overflowed in the
    # graph build, and 200,000 allocated as many relation weights
    from hmgrl.graphcore import EVENT_TYPES

    data = tmp_path / "d"
    assert run_cli("synth", "--out", data, "--drugs", 20, "--events", 4,
                   "--density", 0.3) == 0
    ddis = data / "ddis.tsv"
    lines = ddis.read_text().splitlines()
    lines[2] = lines[2].rsplit("\t", 1)[0] + "\t" + event
    ddis.write_text("\n".join(lines) + "\n")
    run_dir = tmp_path / "run"
    code = run_cli("train", "--drugs", data / "drugs.tsv", "--ddis", ddis,
                   "--preset", "micro", "--epochs", 1, "--out", run_dir)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"{ddis}:3: event type must be below {EVENT_TYPES}, got {event}" in err
    assert not (run_dir / "checkpoint").exists()


def test_out_of_range_fold_index_is_usage_error(synth_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--preset", "micro",
                   "--folds", 3, "--only-folds", 7, "--out", run_dir)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "7" in err and "n_folds=3" in err
    assert not run_dir.exists()  # rejected before any work
    assert run_cli("train", "--drugs", synth_dir / "drugs.tsv",
                   "--ddis", synth_dir / "ddis.tsv", "--only-folds", "0,x",
                   "--out", run_dir) == EXIT_USAGE


def test_repeated_fold_index_is_usage_error(synth_dir, tmp_path, capsys):
    from hmgrl.config import apply_preset

    train = ("train", "--drugs", synth_dir / "drugs.tsv", "--ddis",
             synth_dir / "ddis.tsv", "--preset", "micro", "--folds", 3)
    run_dir = tmp_path / "run"
    assert run_cli(*train, "--only-folds", "0,0", "--out", run_dir) == EXIT_USAGE
    assert "repeat" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": [1, 2, 1]}))
    assert run_cli(*train, "--config", config, "--out", run_dir) == EXIT_USAGE
    assert not run_dir.exists()  # rejected before any work
    stored = tmp_path / "stored"
    (stored / "config").mkdir(parents=True)
    (stored / "config" / "config.json").write_text(json.dumps(
        {**apply_preset("micro").as_dict(), "folds": [0, 0]}))
    assert run_cli("eval", "--run", stored) == EXIT_USAGE


@pytest.mark.parametrize("lines", [0, 1])
def test_predict_needs_two_pairs_naming_file(synth_dir, tmp_path, capsys, lines):
    from hmgrl.config import apply_preset
    from hmgrl.model import DdiDataset, HmgrlModel, save_model

    data = DdiDataset.load(synth_dir / "drugs.tsv", synth_dir / "ddis.tsv")
    ckpt = tmp_path / "model.ckpt"
    save_model(ckpt, HmgrlModel(apply_preset("micro"), data.table, data.n_relations))
    pairs = tmp_path / "pairs.tsv"
    ids = data.table.ids
    pairs.write_text(f"{ids[0]}\t{ids[1]}\n" * lines)
    code = run_cli("predict", "--drugs", synth_dir / "drugs.tsv",
                   "--train-ddis", synth_dir / "ddis.tsv", "--checkpoint", ckpt,
                   "--pairs", pairs)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert str(pairs) in err and f"got {lines}" in err


def test_predict_self_pair_names_file_and_line(synth_dir, tmp_path, capsys):
    from hmgrl.featurize import read_drug_table

    ids = read_drug_table(synth_dir / "drugs.tsv").ids
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{ids[0]}\t{ids[1]}\n{ids[2]}\t{ids[2]}\n")
    # the checkpoint does not exist: the pairs file is rejected before it loads
    code = run_cli("predict", "--drugs", synth_dir / "drugs.tsv",
                   "--train-ddis", synth_dir / "ddis.tsv",
                   "--checkpoint", tmp_path / "missing.ckpt", "--pairs", pairs)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"{pairs}:2: a pair must join two distinct drugs" in err


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("second", ["repeat", "reverse", "relabel"])
def test_pair_listed_twice_names_both_lines(synth_dir, tmp_path, capsys, command,
                                            second):
    # a second copy of a pair could land in a test fold while the first
    # trains, and two event types would train toward two labels
    lines = (synth_dir / "ddis.tsv").read_text().splitlines()
    a, b, event = lines[0].split("\t")
    extra = {"repeat": (a, b, event), "reverse": (b, a, event),
             "relabel": (a, b, str((int(event) + 1) % 3))}[second]
    ddis = tmp_path / "ddis.tsv"
    ddis.write_text("".join(f"{x}\n" for x in [*lines, "\t".join(extra)]))
    run_dir = tmp_path / "run"
    if command == "train":
        code = run_cli("train", "--drugs", synth_dir / "drugs.tsv", "--ddis", ddis,
                       "--preset", "micro", "--epochs", 1, "--out", run_dir)
    else:  # the interactions are read before the checkpoint loads
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("SYN0000\tSYN0001\nSYN0002\tSYN0003\n")
        code = run_cli("predict", "--drugs", synth_dir / "drugs.tsv",
                       "--train-ddis", ddis, "--checkpoint", tmp_path / "absent.ckpt",
                       "--pairs", pairs)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert (f"{ddis}:{len(lines) + 1}: pair {extra[0]}, {extra[1]} is already "
            f"listed on line 1") in err
    assert not (run_dir / "checkpoint").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("bad_id, message", [
    ("repeated", "drug id 'SYN0001' is already listed on line 3"),
    ("empty", "empty drug id"),
], ids=["repeated", "empty"])
def test_bad_drug_id_names_file_and_line(synth_dir, tmp_path, capsys, command,
                                         bad_id, message):
    # the second line of a repeated id, or an empty id, is named before any work
    lines = (synth_dir / "drugs.tsv").read_text().splitlines()
    fields = lines[5].split("\t")
    fields[0] = "SYN0001" if bad_id == "repeated" else ""
    lines[5] = "\t".join(fields)
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("".join(f"{x}\n" for x in lines))
    run_dir = tmp_path / "run"
    if command == "train":
        code = run_cli("train", "--drugs", drugs, "--ddis", synth_dir / "ddis.tsv",
                       "--preset", "micro", "--epochs", 1, "--out", run_dir)
    else:  # the drug table is read before the checkpoint loads
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("SYN0000\tSYN0001\nSYN0002\tSYN0003\n")
        code = run_cli("predict", "--drugs", drugs, "--train-ddis",
                       synth_dir / "ddis.tsv", "--checkpoint", tmp_path / "absent.ckpt",
                       "--pairs", pairs)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"{drugs}:6: {message}" in err
    assert not (run_dir / "checkpoint").exists()


def test_gradcheck_rejects_a_sample_count_below_one(capsys):
    assert run_cli("gradcheck", "--samples", -1) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _checkpoint_records(blob: bytes):
    """(magic end, meta end, [(header start, header end, payload end)])."""
    from hmgrl.numkit import MAGIC

    meta_end = blob.index(b"\n", len(MAGIC)) + 1
    records, pos = [], meta_end
    while pos < len(blob):
        header_end = blob.index(b"\n", pos) + 1
        _, rows, cols = blob[pos:header_end - 1].split(b"\t")
        records.append((pos, header_end, header_end + int(rows) * int(cols) * 8))
        pos = records[-1][2]
    return len(MAGIC), meta_end, records


def _corrupt_checkpoints(blob: bytes):
    """(label, bytes) for every truncation at a record boundary, every
    corrupted header or meta field, and a non-finite tensor value."""
    magic_end, meta_end, records = _checkpoint_records(blob)
    cases = [(f"truncated at {cut}", blob[:cut])
             for cut in [0, magic_end, meta_end]
             + [end for _, header_end, payload_end in records
                for end in (header_end, payload_end)][:-1]]
    start, header_end, _ = records[0]
    name, rows, cols = blob[start:header_end - 1].split(b"\t")
    second = blob[records[1][0]:records[1][1] - 1].split(b"\t")[0]

    def with_header(fields):
        return blob[:start] + b"\t".join(fields) + b"\n" + blob[header_end:]

    bad_dims = [b"x", b"-1", b"", b"1.5", b"+1", "²".encode(),
                str(int(rows) + 1).encode(), b"99999999999"]
    cases += [(f"rows {d!r}", with_header([name, d, cols])) for d in bad_dims]
    cases += [(f"cols {d!r}", with_header([name, rows, d])) for d in bad_dims]
    cases += [(f"name {n!r}", with_header([n, rows, cols]))
              for n in (b"no.such.tensor", second, b"\xff\xfe")]
    cases += [("four fields", with_header([name, rows, cols, b"1"])),
              ("two fields", with_header([name, rows]))]

    meta = json.loads(blob[magic_end + 5:meta_end - 1])

    def with_meta(payload: bytes):
        return blob[:magic_end] + b"meta\t" + payload + b"\n" + blob[meta_end:]

    fc2_b = next(end for start, end, _ in records
                 if blob[start:end].startswith(b"decoder.fc2.b\t"))
    cases += [(f"non-finite {value} in decoder.fc2.b",
               blob[:fc2_b] + np.array([value], "<f8").tobytes() + blob[fc2_b + 8:])
              for value in (np.nan, np.inf)]
    cases += [("bad magic", b"HMGRL-CKPT v9\n" + blob[magic_end:]),
              ("meta not JSON", with_meta(b"{not json")),
              ("meta not UTF-8", with_meta(b'{"a": "\xff"}')),
              ("meta not an object", with_meta(b"[1, 2]"))]
    for key, value in [("config", None), ("n_drugs", None), ("n_relations", None),
                       ("config", "x"), ("config", {"no_such_field": 1}),
                       ("config", {**meta["config"], "batch_size": "x"}),
                       ("config", {**meta["config"], "adam_beta1": 0.5}),
                       ("config", {**meta["config"], "rgcn_depth": True}),
                       ("n_drugs", "12"), ("n_drugs", meta["n_drugs"] + 1),
                       ("n_relations", 0), ("n_relations", meta["n_relations"] + 1),
                       ("n_relations", len(records) + 1)]:
        changed = {k: v for k, v in meta.items() if k != key}
        if value is not None:
            changed[key] = value
        cases.append((f"meta {key}={value!r}",
                      with_meta(json.dumps(changed, sort_keys=True).encode())))
    return cases


def test_corrupt_checkpoint_is_data_error_naming_file(synth_dir, tmp_path, capsys):
    from hmgrl.config import apply_preset
    from hmgrl.model import DdiDataset, HmgrlModel, save_model

    data = DdiDataset.load(synth_dir / "drugs.tsv", synth_dir / "ddis.tsv")
    good = tmp_path / "good.ckpt"
    save_model(good, HmgrlModel(apply_preset("micro"), data.table, data.n_relations))
    pairs = tmp_path / "pairs.tsv"
    ids = data.table.ids
    pairs.write_text(f"{ids[0]}\t{ids[1]}\n{ids[2]}\t{ids[3]}\n")
    args = ["predict", "--drugs", synth_dir / "drugs.tsv",
            "--train-ddis", synth_dir / "ddis.tsv", "--pairs", pairs,
            "--out", tmp_path / "pred.tsv"]
    assert run_cli(*args, "--checkpoint", good) == 0
    capsys.readouterr()
    cases = _corrupt_checkpoints(good.read_bytes())
    assert len(cases) > 40
    for label, blob in cases:
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        code = run_cli(*args, "--checkpoint", bad)
        err = capsys.readouterr().err
        assert code == EXIT_DATA, label
        assert str(bad) in err, label
        if label.startswith("non-finite"):
            assert "decoder.fc2.b" in err, label
