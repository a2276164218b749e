"""Run-config parsing and the command-line workflow."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from posrec import cli, runconfig, stability
from posrec.errors import UserError
from posrec.model import Model, ModelConfig, save_checkpoint
from posrec.numeric import Rng
from posrec.runconfig import (RunConfig, build_model_config, load_run_config,
                              parse_run_config, resolve_dataset)

# ---------------------------------------------------------------------------
# run-config parsing


def test_empty_config_gives_defaults():
    rc = parse_run_config(None)
    cfg = build_model_config(rc)
    assert cfg.d == 90 and cfg.encoding.variant == "None"


def test_unknown_top_level_key_rejected():
    with pytest.raises(UserError, match="unknown key 'modle'"):
        parse_run_config({"modle": {}})


def test_unknown_model_key_rejected():
    with pytest.raises(UserError, match="unknown key 'width'"):
        parse_run_config({"model": {"width": 8}})


def test_unknown_encoding_key_rejected():
    with pytest.raises(UserError, match="unknown key 'base'"):
        parse_run_config({"encoding": {"variant": "RoPE", "base": 500}})


def test_encoding_under_model_is_pointed_at_its_section():
    with pytest.raises(UserError, match="'encoding' section"):
        parse_run_config({"model": {"encoding": "Learnt"}})


def test_encoding_accepts_plain_string():
    rc = parse_run_config({"encoding": "Rotatory"})
    assert build_model_config(rc).encoding.variant == "Rotatory"


def test_unknown_preset_lists_names():
    with pytest.raises(UserError, match="men.*beauty|beauty.*men"):
        parse_run_config({"preset": "mens"})


def test_sweep_seeds_must_be_list():
    with pytest.raises(UserError, match="list"):
        parse_run_config({"sweep": {"seeds": "1,2,3"}})


def _flags_over(argv):
    """The run config that `posrec <argv>` runs under."""
    return cli._run_config(cli.build_parser().parse_args(argv))


def test_merge_order_preset_file_flags(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"preset": "games", "model": {"epochs": 50, "d": 12, "heads": 2}}))
    cfg = build_model_config(_flags_over(["train", "--config", str(p), "--epochs", "5"]))
    assert cfg.epochs == 5            # flag beats file
    assert cfg.d == 12                # file beats preset (games: d=90)
    assert cfg.max_len == 50          # preset survives where nothing overrides
    assert cfg.dropout == 0.5
    assert cfg.nmax is None


def test_encoding_spec_gets_resolved_dims():
    rc = parse_run_config({
        "model": {"d": 16, "max_len": 9, "heads": 2, "g": 8},
        "encoding": {"variant": "RMHA4", "clip_distance": 3},
    })
    cfg = build_model_config(rc)
    stored = cfg.as_dict()
    # the dims are stored once, as model fields, not again in the encoding
    assert "model_dim" not in stored["encoding"] and "max_len" not in stored["encoding"]
    assert cfg.d == stored["d"] == 16 and cfg.max_len == stored["max_len"] == 9
    assert stored["encoding"]["clip_distance"] == 3 == cfg.encoding.clip_distance


def test_projection_activation_follows_model_activation():
    rc = parse_run_config({"model": {"activation": "silu"}, "encoding": "LearntCon"})
    assert build_model_config(rc).encoding.projection_activation == "silu"


def test_nmax_nan_in_yaml_means_unbounded(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("model:\n  nmax: .nan\n")
    cfg = build_model_config(load_run_config(p))
    assert cfg.nmax is None


@pytest.mark.parametrize("key, text, value", [("lr", "5e-3", 0.005), ("nmax", "1e-4", 1e-4)])
def test_yaml_exponent_without_a_dot_is_a_float(tmp_path, key, text, value):
    p = tmp_path / "c.yaml"
    p.write_text(f"model:\n  {key}: {text}\n")
    assert getattr(build_model_config(load_run_config(p)), key) == value


def test_override_nmax_none_beats_config(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("model:\n  nmax: 1.0e-4\n")
    cfg = build_model_config(_flags_over(["train", "--config", str(p), "--nmax", "none"]))
    assert cfg.nmax is None


def test_resolve_dataset_requires_a_source():
    with pytest.raises(UserError, match="--data"):
        resolve_dataset({})


def test_path_override_displaces_data_path(tmp_path):
    from posrec import synth
    p = tmp_path / "d.tsv"
    synth.write_dataset("random", 4, 6, 5, seed=0, path=str(p))
    c = tmp_path / "c.yaml"
    c.write_text(yaml.safe_dump({"data": {"path": str(tmp_path / "missing.tsv")}}))
    ds = resolve_dataset(_flags_over(["train", "--config", str(c), "--data", str(p)]).data)
    assert ds.num_users == 4 and ds.source == str(p)


def test_bad_yaml_is_user_error(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("model: [unclosed\n")
    with pytest.raises(UserError, match="YAML"):
        load_run_config(p)
    with pytest.raises(UserError, match="cannot read"):
        load_run_config(tmp_path / "missing.yaml")


# ---------------------------------------------------------------------------
# CLI workflow


CFG_TEMPLATE = """\
data:
  path: {data}
model:
  d: 8
  g: 16
  blocks: 1
  heads: 2
  max_len: 5
  epochs: 2
  lr: 0.001
  eval_negatives: 4
  batch_size: 16
encoding: Learnt
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.tsv"
    rc = cli.main(["synth", "--profile", "memorizable", "--users", "30",
                   "--items", "12", "--seq-len", "7", "--seed", "1",
                   "--out", str(data)])
    assert rc == 0
    cfg = root / "cfg.yaml"
    cfg.write_text(CFG_TEMPLATE.format(data=data))
    return {"root": root, "data": str(data), "cfg": str(cfg)}


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["synth", "--profile", "positional", "--users", "6", "--items", "9",
            "--seq-len", "5", "--seed", "3"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stats_prints_and_writes(work, tmp_path, capsys):
    out = tmp_path / "stats.tsv"
    assert cli.main(["stats", work["data"], "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "users" in shown and "30" in shown
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split("\t"), row.split("\t")))
    assert values["users"] == "30" and values["items"] == "12"
    assert values["interactions"] == "210"


def test_subset_writes_and_reports(work, tmp_path, capsys):
    out = tmp_path / "sub.tsv"
    assert cli.main(["subset", work["data"], "--users", "10", "--items", "8",
                     "--out", str(out)]) == 0
    shown = dict(line.split() for line in capsys.readouterr().out.splitlines()[:-1])
    assert shown["budget_users"] == "10" and shown["budget_items"] == "8"
    # the budget density counts the kept interactions over the budgets, not
    # over the users and items left after filtering
    assert shown["budget_density"] == f"{int(shown['interactions']) / 80:.6e}"
    assert out.exists()


def test_train_writes_run_dir(work, tmp_path, capsys):
    run = tmp_path / "run"
    rc = cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet"])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "test Hit@10" in shown

    assert (run / "history.tsv").exists()
    assert (run / "checkpoint.npz").exists()
    # config echo is byte-for-byte
    assert (run / "config.yaml").read_bytes() == Path(work["cfg"]).read_bytes()
    resolved = json.loads((run / "resolved.json").read_text())
    assert resolved["command"] == "train"
    assert resolved["config"]["d"] == 8
    assert resolved["config"]["encoding"]["variant"] == "Learnt"
    assert resolved["dataset"]["users"] == 30


def test_train_rerun_is_idempotent(work, tmp_path):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet"]) == 0
    first = (run / "history.tsv").read_bytes()
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet"]) == 0
    assert (run / "history.tsv").read_bytes() == first


def test_evaluate_reproduces_training_test_metrics(work, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet"]) == 0
    train_out = capsys.readouterr().out
    test_line = next(l for l in train_out.splitlines() if l.startswith("test "))
    parts = test_line.split()
    train_hit, train_ndcg = float(parts[2]), float(parts[4])

    rc = cli.main(["evaluate", str(run / "checkpoint.npz"), "--data", work["data"],
                   "--negatives", "4", "--seed", "0"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split("\t") == ["Hit@10", "NDCG", "users", "candidates", "seed"]
    hit, ndcg = float(rows[1].split("\t")[0]), float(rows[1].split("\t")[1])
    assert hit == pytest.approx(train_hit, abs=0.005)
    assert ndcg == pytest.approx(train_ndcg, abs=0.005)


def test_evaluate_defaults_to_the_runs_seed_and_negatives(work, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--seed", "3",
                     "--out", str(run), "--quiet"]) == 0
    test_line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("test "))
    train_hit, train_ndcg = float(test_line.split()[2]), float(test_line.split()[4])

    assert cli.main(["evaluate", str(run / "checkpoint.npz"), "--data", work["data"]]) == 0
    header, row = capsys.readouterr().out.splitlines()
    got = dict(zip(header.split("\t"), row.split("\t")))
    assert got["seed"] == "3" and got["candidates"] == "5"  # eval_negatives 4, plus the target
    assert float(got["Hit@10"]) == pytest.approx(train_hit, abs=0.005)
    assert float(got["NDCG"]) == pytest.approx(train_ndcg, abs=0.005)


def test_evaluate_item_mismatch_fails(work, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet"]) == 0
    capsys.readouterr()
    other = tmp_path / "other.tsv"
    assert cli.main(["synth", "--profile", "random", "--users", "8", "--items", "20",
                     "--seq-len", "6", "--seed", "0", "--out", str(other)]) == 0
    rc = cli.main(["evaluate", str(run / "checkpoint.npz"), "--data", str(other)])
    assert rc == 1
    assert "items" in capsys.readouterr().err


def test_sweep_then_recommend(work, tmp_path, capsys):
    sw = tmp_path / "sw"
    rc = cli.main(["sweep", "--config", work["cfg"], "--seeds", "1,2,3",
                   "--out", str(sw), "--quiet"])
    assert rc == 0
    shown = capsys.readouterr().out
    assert shown.startswith("Act\tencoding\tnmax")
    assert (sw / "runs.jsonl").exists()
    assert (sw / "results.tsv").exists()

    rc = cli.main(["recommend-encoding", str(sw)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "recommended encoding:" in shown
    assert ("RMHA4" in shown) or ("RotatoryCon" in shown)


REJECTED_SWEEPS = {
    "no seeds": ([], "no seeds: pass --seeds"),
    "repeated seed": (["--seeds", "1,1"], "seeds must be distinct"),
    "no jobs": (["--seeds", "1", "--jobs", "0"], "jobs must be >= 1"),
}


@pytest.mark.parametrize("case", REJECTED_SWEEPS)
def test_sweep_needs_seeds(case, work, tmp_path, capsys):
    flags, message = REJECTED_SWEEPS[case]
    out = tmp_path / "x"
    rc = cli.main(["sweep", "--config", work["cfg"], "--out", str(out), "--quiet", *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # a rejected sweep writes nothing


def test_rejected_sweep_leaves_a_finished_sweep_as_it_was(work, tmp_path):
    sw = tmp_path / "sw"
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "1",
                     "--out", str(sw), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in sw.iterdir() if p.is_file()}
    assert "resolved.json" in before
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "1,1",
                     "--out", str(sw), "--quiet"]) == 1
    assert {p.name: p.read_bytes() for p in sw.iterdir() if p.is_file()} == before


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_diverged_rerun_leaves_a_finished_run_as_it_was(work, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--lr", "0.005",
                     "--out", str(run), "--quiet"]) == 0
    before = _files(run)
    assert {"config.yaml", "resolved.json", "history.tsv"} <= {p.name for p in before}
    assert cli.main(["train", "--config", work["cfg"], "--lr", "1e200",
                     "--out", str(run), "--quiet"]) == 1
    assert "diverged" in capsys.readouterr().err
    assert _files(run) == before


def test_sweep_rerun_under_another_config_is_refused_before_training(work, tmp_path, capsys):
    sw = tmp_path / "sw"
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "1,2", "--lr", "0.005",
                     "--out", str(sw), "--quiet"]) == 0
    before = _files(sw)
    capsys.readouterr()
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "1,2", "--lr", "1e200",
                     "--out", str(sw)]) == 1
    err = capsys.readouterr().err
    assert f"error: {sw / stability.LEDGER_NAME} records fingerprint " in err
    assert "pass another --out" in err and "seed 1" not in err and "resuming" not in err
    assert _files(sw) == before


def _ledger_line(work, **row) -> str:
    """A ledger line holding this config's fingerprint and `row`."""
    rc = cli._run_config(cli.build_parser().parse_args(["sweep", "--config", work["cfg"]]))
    fingerprint = stability.config_fingerprint(build_model_config(rc), resolve_dataset(rc.data))
    return json.dumps({"seed": 1, "fingerprint": fingerprint, **row}) + "\n"


@pytest.mark.parametrize("row, reason", [
    ({}, "no status"),
    ({"status": "ok", "ndcg": 10.0}, "no hit"),
    ({"status": "ok", "hit": "abc", "ndcg": 10.0}, "hit 'abc' is not a number from 0 to 100"),
    ({"status": "ok", "hit": math.nan, "ndcg": 10.0}, "hit nan is not a number from 0 to 100"),
    ({"status": "ok", "hit": 900.0, "ndcg": 10.0}, "hit 900.0 is not a number from 0 to 100"),
], ids=["no-status", "no-hit", "string-hit", "nan-hit", "hit-over-100"])
def test_sweep_refuses_a_ledger_row_it_cannot_use(work, tmp_path, capsys, row, reason):
    sw = tmp_path / "sw"
    ledger = sw / stability.LEDGER_NAME
    sw.mkdir()
    ledger.write_text(_ledger_line(work, **row))
    before = ledger.read_bytes()
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "1", "--out", str(sw)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ledger} line 1 is not a ledger row ({reason}); repair or delete" in err
    assert "seed 1" not in err
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("first, second, mark", [("train", "sweep", "checkpoint.npz"),
                                                 ("sweep", "train", stability.LEDGER_NAME)])
def test_a_run_directory_holds_one_commands_run(work, tmp_path, capsys, first, second, mark):
    run = tmp_path / "r1"
    seed_flags = {"train": ["--seed", "1"], "sweep": ["--seeds", "1"]}
    assert cli.main([first, "--config", work["cfg"], *seed_flags[first], "--out", str(run)]) == 0
    before = _files(run)
    capsys.readouterr()
    assert cli.main([second, "--config", work["cfg"], *seed_flags[second], "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: run directory {run} holds another command's {mark}; use another --out\n"
    assert _files(run) == before


@pytest.fixture(scope="module")
def two_seed_ledger(work, tmp_path_factory):
    """The ledger of a finished 2-seed, 1-epoch sweep of the work config."""
    sw = tmp_path_factory.mktemp("ledger") / "sw"
    assert cli.main(["sweep", "--config", work["cfg"], "--epochs", "1", "--seeds", "1,2",
                     "--out", str(sw), "--quiet"]) == 0
    return (sw / stability.LEDGER_NAME).read_bytes()


def _mutated(ledger: bytes, data) -> bytes:
    """`ledger` with one mutation drawn from `data`: cut short, a byte flipped,
    a key deleted, or a value replaced by NaN, a string, true, null or a list."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "set"]))
    if kind == "truncate":
        return ledger[:data.draw(st.integers(0, len(ledger) - 1))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(ledger) - 1))
        return ledger[:at] + bytes([ledger[at] ^ data.draw(st.integers(1, 255))]) + ledger[at + 1:]
    rows = [json.loads(line) for line in ledger.splitlines()]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    key = data.draw(st.sampled_from(sorted(row)))
    if kind == "delete":
        del row[key]
    else:
        row[key] = data.draw(st.sampled_from([math.nan, "abc", True, None, [1]]))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_ledger_exits_0_or_1_and_a_refusal_leaves_it_as_found(work, two_seed_ledger,
                                                                        data):
    mutated = _mutated(two_seed_ledger, data)
    with tempfile.TemporaryDirectory() as sw:
        ledger = Path(sw, stability.LEDGER_NAME)
        ledger.write_bytes(mutated)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["sweep", "--config", work["cfg"], "--epochs", "1",
                             "--seeds", "1,2", "--out", sw, "--quiet"])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert str(ledger) in err.getvalue()
            assert ledger.read_bytes() == mutated


def test_sweep_resumed_under_another_spelling_of_its_log_reruns_nothing(work, tmp_path,
                                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("log.tsv").write_bytes(Path(work["data"]).read_bytes())
    for data in ("log.tsv", "./log.tsv"):
        assert cli.main(["sweep", "--config", work["cfg"], "--data", data, "--seeds", "1,2",
                         "--out", "sw", "--quiet"]) == 0
    assert len((tmp_path / "sw" / stability.LEDGER_NAME).read_text().splitlines()) == 2
    assert json.loads((tmp_path / "sw" / "resolved.json").read_text())["dataset"]["source"] == (
        "./log.tsv")


def test_train_and_sweep_share_one_writer_and_one_dataset_identity(work, tmp_path):
    run, sw = tmp_path / "run", tmp_path / "sw"
    assert cli.main(["train", "--config", work["cfg"], "--seed", "5",
                     "--out", str(run), "--quiet"]) == 0
    assert cli.main(["sweep", "--config", work["cfg"], "--seeds", "5",
                     "--out", str(sw), "--quiet"]) == 0
    seed_dir = sw / "seed_5"
    assert (seed_dir / "history.tsv").read_bytes() == (run / "history.tsv").read_bytes()
    with np.load(run / "checkpoint.npz") as a, np.load(seed_dir / "checkpoint.npz") as b:
        assert sorted(a.files) == sorted(b.files) and "__meta__" in a.files
        for key in a.files:
            assert np.array_equal(a[key], b[key]), key

    ds = resolve_dataset(load_run_config(work["cfg"]).data)
    resolved = json.loads((sw / "resolved.json").read_text())
    assert resolved["dataset"] == ds.identity
    [row] = [json.loads(line) for line in (sw / stability.LEDGER_NAME).read_text().splitlines()]
    config = ModelConfig.from_dict(resolved["config"])
    assert stability.config_fingerprint(config, ds) == row["fingerprint"]


def test_flag_overrides_reach_resolved_config(work, tmp_path):
    run = tmp_path / "run"
    rc = cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet",
                   "--encoding", "RotatoryCon", "--nmax", "none", "--epochs", "1"])
    assert rc == 0
    resolved = json.loads((run / "resolved.json").read_text())
    assert resolved["config"]["encoding"]["variant"] == "RotatoryCon"
    assert resolved["config"]["nmax"] is None
    assert resolved["config"]["epochs"] == 1


def test_posrec_out_env_is_default_root(work, tmp_path, monkeypatch):
    monkeypatch.setenv("POSREC_OUT", str(tmp_path / "envroot"))
    assert cli.main(["train", "--config", work["cfg"], "--quiet"]) == 0
    assert (tmp_path / "envroot" / "train" / "checkpoint.npz").exists()


def test_missing_data_file_exits_1(capsys):
    rc = cli.main(["train", "--data", "/nonexistent/x.tsv", "--epochs", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_encoding_flag_lists_variants(work, capsys):
    rc = cli.main(["train", "--data", work["data"], "--encoding", "Bogus"])
    assert rc == 1
    err = capsys.readouterr().err
    for name in ("None", "Abs", "AbsCon", "Learnt", "LearntCon", "Rotatory",
                 "RotatoryCon", "RMHA4", "RoPE", "RopeOne"):
        assert name in err


@pytest.mark.parametrize("bad", [{"activation": "identity"}, {"d": 10, "heads": 3},
                                 {"dropout": 1.0}, {"d": 6, "heads": 2},
                                 {"lr": math.nan}, {"d": 8.0}],
                         ids=["activation", "heads", "dropout", "rope-head-dim",
                              "lr-nan", "d-float"])
def test_invalid_model_config_leaves_no_run_dir(work, tmp_path, capsys, bad):
    raw = yaml.safe_load(Path(work["cfg"]).read_text())
    raw["model"].update(bad)
    if bad.get("heads") == 2:
        raw["encoding"] = "RoPE"  # head dim 3 is odd
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(run), "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not run.exists()


@pytest.fixture(scope="module")
def not_data(work):
    """A checkpoint (an .npz that is no log), a .npy array, eight checkpoints
    with broken metadata (one of them format 9), four whose `item_table`
    holds strings, has the wrong shape or a NaN or is saved with object dtype,
    one without `final_gain`, an empty, a truncated and a byte-flipped one,
    three whose attributes hold a NaN or strings or are 1-D, an attribute
    sidecar with a NaN, a missing file, a log in which one user's history
    covers the whole catalogue, sweep results tables: one well formed, and
    three whose Hit Dev is a word, NaN or negative, and a log, a config, a
    sidecar and a results table that are not UTF-8."""
    root = work["root"]
    run = root / "checkpoint-run"
    ds = resolve_dataset({"path": work["data"]})
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet",
                     "--epochs", "1"]) == 0
    header = "\t".join(stability.RESULTS_COLUMNS)
    row = ["leaky", "None", "NaN", "50.00", "3.00", "30.00", "2.00", "3",
           "(45.00, 55.00)", "10.00"]
    files = {"checkpoint": str(run / "checkpoint.npz"),
             "missing": str(root / "missing.csv")}
    for name, hit_dev in (("results", "3.00"), ("bad_results", "abc"),
                          ("nan_results", "nan"), ("negative_results", "-4.00")):
        row[4] = hit_dev
        files[name] = str(root / f"{name}.tsv")
        (root / f"{name}.tsv").write_text(header + "\n" + "\t".join(row) + "\n")
    for name, text, encoding in (
            ("latin1.tsv", "u\tcafé\t1\nu\tthé\t2\n", "latin-1"),
            ("utf16.yaml", Path(work["cfg"]).read_text(), "utf-16"),
            ("latin1_sidecar.csv", f"item_id,a_0\n{ds.item_ids[0]},1°\n", "latin-1"),
            ("utf16_results.tsv", (root / "results.tsv").read_text(), "utf-16")):
        files[name] = str(root / name)
        (root / name).write_bytes(text.encode(encoding))
    files["array.npy"] = str(root / "array.npy")
    np.save(files["array.npy"], np.zeros(3))
    with np.load(files["checkpoint"], allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "attributes"}
    meta = json.loads(str(arrays["__meta__"]))
    table = arrays["param:item_table"]
    nan_table = table.copy()
    nan_table[3, 0] = np.nan
    for name, values in (("param_strings", table.astype(str)), ("param_shape", table[:-1]),
                         ("param_nan", nan_table), ("object_member", table.astype(object))):
        files[name] = str(root / f"{name}.npz")
        np.savez(files[name], **{**arrays, "param:item_table": values})
    files["no_final_gain"] = str(root / "no_final_gain.npz")
    np.savez(files["no_final_gain"], **{k: v for k, v in arrays.items() if k != "param:final_gain"})
    whole = Path(files["checkpoint"]).read_bytes()
    flipped = bytearray(whole)
    flipped[len(whole) // 2] ^= 0xFF
    for name, raw in (("empty", b""), ("truncated", whole[:len(whole) // 2]),
                      ("flipped", bytes(flipped))):
        files[name] = str(root / f"{name}.npz")
        Path(files[name]).write_bytes(raw)
    for name, text in (("format_9", json.dumps({**meta, "format_version": 9})),
                       ("meta_not_json", "{not json"),
                       ("meta_no_config", json.dumps({k: meta[k] for k in meta if k != "config"})),
                       ("meta_no_attributes", json.dumps({**meta, "has_attributes": True})),
                       ("meta_config_text", json.dumps({**meta, "config": "abc"})),
                       ("meta_config_list", json.dumps({**meta, "config": [1]})),
                       ("meta_num_items_word", json.dumps({**meta, "num_items": "ten"})),
                       ("meta_num_items_float", json.dumps({**meta, "num_items": 2.5}))):
        files[name] = str(root / f"{name}.npz")
        np.savez(files[name], **{**arrays, "__meta__": np.array(text)})

    attributes = np.ones((ds.num_items, 2))
    save_checkpoint(Model(ds.num_items, ModelConfig(d=8, g=8, blocks=1, heads=2, max_len=5),
                          Rng(0), attributes=attributes), str(root / "fused.npz"))
    with np.load(root / "fused.npz", allow_pickle=False) as archive:
        arrays = dict(archive)
    attributes[2, 0] = np.nan
    for name, values in (("nan_attributes", attributes), ("flat_attributes", np.ones(ds.num_items)),
                         ("string_attributes", np.full((ds.num_items, 2), "x"))):
        files[name] = str(root / f"{name}.npz")
        np.savez(files[name], **{**arrays, "attributes": values})
    files["nan_sidecar"] = str(root / "nan_sidecar.csv")
    Path(files["nan_sidecar"]).write_text(f"item_id,a_0,a_1\n{ds.item_ids[2]},nan,1\n")
    # u1's history holds every item of the catalogue {a, b, c}
    files["whole_catalogue"] = str(root / "whole_catalogue.tsv")
    Path(files["whole_catalogue"]).write_text("".join(
        f"{user}\t{item}\t{t}\n" for user, items in (("u1", "abcab"), ("u2", "ababa"))
        for t, item in enumerate(items)))
    return files


def _config_with(work, path, section, key, value):
    """The work config with section.key set to value."""
    raw = yaml.safe_load(Path(work["cfg"]).read_text())
    if isinstance(raw.get(section), str):  # `encoding: Learnt`
        raw[section] = {"variant": raw[section]}
    raw.setdefault(section, {})[key] = value
    path.write_text(yaml.safe_dump(raw))
    return ["--config", str(path)]


# case -> (argv built from (files, config_with), text the error message names)
BAD_DATA = {
    "subset --out x.npz": (
        lambda f, cfg: ["subset", f["data"], "--users", "5", "--items", "5",
                        "--out", f["out"][:-len(".tsv")] + ".npz"], "subset.npz"),
    "synth --out x.npz": (
        lambda f, cfg: ["synth", "--profile", "random", "--users", "3", "--items", "4",
                        "--seq-len", "3", "--out", f["out"][:-len(".tsv")] + ".npz"],
        "subset.npz: synth writes a TSV log"),
    "stats --attributes missing": (
        lambda f, cfg: ["stats", f["data"], "--attributes", f["missing"]], "missing.csv"),
    "train data.attributes missing": (
        lambda f, cfg: ["train", *cfg("data", "attributes", f["missing"])], "missing.csv"),
    "train data.attributes with a NaN": (
        lambda f, cfg: ["train", *cfg("data", "attributes", f["nan_sidecar"])], "non-finite"),
    "evaluate attributes with a NaN": (
        lambda f, cfg: ["evaluate", f["nan_attributes"], "--data", f["data"]], "non-finite"),
    "evaluate 1-D attributes": (
        lambda f, cfg: ["evaluate", f["flat_attributes"], "--data", f["data"]], "2-D"),
    "stats checkpoint.npz": (
        lambda f, cfg: ["stats", f["checkpoint"]],
        "checkpoint.npz is an .npz archive, not an interaction log"),
    "train --data checkpoint.npz": (
        lambda f, cfg: ["train", "--data", f["checkpoint"]],
        "checkpoint.npz is an .npz archive, not an interaction log"),
    "train history covering the catalogue": (
        lambda f, cfg: ["train", "--data", f["whole_catalogue"]], "user u1:"),
    "sweep.jobs": (
        lambda f, cfg: ["sweep", *cfg("sweep", "jobs", "two"), "--seeds", "1"], "sweep.jobs"),
    "sweep.seeds entry": (
        lambda f, cfg: ["sweep", *cfg("sweep", "seeds", [1, "two"])], "sweep.seeds"),
    "data.min_interactions": (
        lambda f, cfg: ["train", *cfg("data", "min_interactions", "three")],
        "data.min_interactions"),
    "data.min_interactions 0": (
        lambda f, cfg: ["train", *cfg("data", "min_interactions", 0)],
        "data.min_interactions (--min-interactions) must be >= 1, got 0"),
    "stats --min-interactions 0": (
        lambda f, cfg: ["stats", f["data"], "--min-interactions", "0"],
        "data.min_interactions (--min-interactions) must be >= 1, got 0"),
    "stats --min-interactions -3": (
        lambda f, cfg: ["stats", f["data"], "--min-interactions", "-3"],
        "data.min_interactions (--min-interactions) must be >= 1, got -3"),
    # a run's data is a log file; `posrec synth --out` writes one
    "train data.synth": (
        lambda f, cfg: ["train", *cfg("data", "synth", {
            "profile": "memorizable", "users": 5, "items": 7, "seq_len": 4})],
        "unknown key 'synth' in section 'data'; allowed keys: attributes, min_interactions, path"),
    "evaluate --negatives -3": (
        lambda f, cfg: ["evaluate", f["checkpoint"], "--data", f["data"], "--negatives", "-3"],
        "num_negatives must be >= 0"),
    "evaluate metadata not JSON": (
        lambda f, cfg: ["evaluate", f["meta_not_json"], "--data", f["data"]], "not a JSON object"),
    "evaluate metadata without config": (
        lambda f, cfg: ["evaluate", f["meta_no_config"], "--data", f["data"]], "lacks config"),
    "evaluate has_attributes without attributes": (
        lambda f, cfg: ["evaluate", f["meta_no_attributes"], "--data", f["data"]],
        "'attributes' array is missing"),
    "evaluate metadata config a string": (
        lambda f, cfg: ["evaluate", f["meta_config_text"], "--data", f["data"]], "'config'"),
    "evaluate metadata config a list": (
        lambda f, cfg: ["evaluate", f["meta_config_list"], "--data", f["data"]], "'config'"),
    "evaluate metadata num_items a word": (
        lambda f, cfg: ["evaluate", f["meta_num_items_word"], "--data", f["data"]],
        "'num_items'"),
    "evaluate metadata num_items a float": (
        lambda f, cfg: ["evaluate", f["meta_num_items_float"], "--data", f["data"]],
        "'num_items'"),
    "encoding.rope_base": (
        lambda f, cfg: ["train", *cfg("encoding", "rope_base", 0), "--encoding", "RoPE"],
        "rope_base"),
    "encoding.use_value_bias": (
        lambda f, cfg: ["train", *cfg("encoding", "use_value_bias", "false"),
                        "--encoding", "RMHA4"], "use_value_bias"),
    "recommend-encoding word in Hit Dev": (
        lambda f, cfg: ["recommend-encoding", f["bad_results"]], "column 'Hit Dev'"),
    "recommend-encoding NaN Hit Dev": (
        lambda f, cfg: ["recommend-encoding", f["nan_results"]], "Hit Dev"),
    "recommend-encoding negative Hit Dev": (
        lambda f, cfg: ["recommend-encoding", f["negative_results"]], "Hit Dev"),
    "recommend-encoding --threshold nan": (
        lambda f, cfg: ["recommend-encoding", f["results"], "--threshold", "nan"], "threshold"),
    "stats log not UTF-8": (
        lambda f, cfg: ["stats", f["latin1.tsv"]], "latin1.tsv"),
    "train --config not UTF-8": (
        lambda f, cfg: ["train", "--config", f["utf16.yaml"]], "utf16.yaml"),
    "stats --attributes not UTF-8": (
        lambda f, cfg: ["stats", f["data"], "--attributes", f["latin1_sidecar.csv"]],
        "latin1_sidecar.csv"),
    "recommend-encoding results not UTF-8": (
        lambda f, cfg: ["recommend-encoding", f["utf16_results.tsv"]], "utf16_results.tsv"),
    # the whole line, so no advice of numpy's to load it with allow_pickle
    "evaluate a TSV log as the checkpoint": (
        lambda f, cfg: ["evaluate", f["data"], "--data", f["data"]],
        "/data.tsv is not a model checkpoint: it is not an .npz archive\n"),
    "evaluate a .npy array": (
        lambda f, cfg: ["evaluate", f["array.npy"], "--data", f["data"]],
        "array.npy is not a model checkpoint"),
    "evaluate a parameter of strings": (
        lambda f, cfg: ["evaluate", f["param_strings"], "--data", f["data"]],
        "param_strings.npz: checkpoint member 'param:item_table' has dtype"),
    "evaluate attributes of strings": (
        lambda f, cfg: ["evaluate", f["string_attributes"], "--data", f["data"]],
        "string_attributes.npz: checkpoint member 'attributes' has dtype"),
    "evaluate checkpoint format 9": (
        lambda f, cfg: ["evaluate", f["format_9"], "--data", f["data"]],
        "format_9.npz: checkpoint format 9 is not supported"),
    "evaluate a missing parameter": (
        lambda f, cfg: ["evaluate", f["no_final_gain"], "--data", f["data"]],
        "no_final_gain.npz: checkpoint is missing parameter 'final_gain'"),
    "evaluate a parameter of the wrong shape": (
        lambda f, cfg: ["evaluate", f["param_shape"], "--data", f["data"]],
        "param_shape.npz: checkpoint parameter 'item_table' has shape"),
    "evaluate a NaN parameter": (
        lambda f, cfg: ["evaluate", f["param_nan"], "--data", f["data"]],
        "param_nan.npz: checkpoint parameter 'item_table' holds non-finite values"),
    "evaluate on a log of another item count": (
        lambda f, cfg: ["evaluate", f["checkpoint"], "--data", f["whole_catalogue"]],
        "checkpoint.npz: checkpoint was trained over 12 items, dataset has 3"),
    "evaluate an object-dtype member": (
        lambda f, cfg: ["evaluate", f["object_member"], "--data", f["data"]],
        "object_member.npz, member 'param:item_table'"),
    "evaluate an empty checkpoint": (
        lambda f, cfg: ["evaluate", f["empty"], "--data", f["data"]], "empty.npz"),
    "evaluate a truncated checkpoint": (
        lambda f, cfg: ["evaluate", f["truncated"], "--data", f["data"]], "truncated.npz"),
    "evaluate a checkpoint with a flipped byte": (
        lambda f, cfg: ["evaluate", f["flipped"], "--data", f["data"]], "flipped.npz, member"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_bad_data_input_exits_1_naming_it(work, not_data, case, tmp_path, capsys):
    make_argv, named = BAD_DATA[case]
    files = {**not_data, "data": work["data"], "out": str(tmp_path / "subset.tsv")}
    argv = make_argv(files, lambda *kv: _config_with(work, tmp_path / "bad.yaml", *kv))
    if argv[0] in ("train", "sweep"):
        argv += ["--out", str(tmp_path / "run"), "--quiet"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "run").exists() and not list(tmp_path.glob("subset.*"))


def test_bad_nmax_flag(work, capsys):
    rc = cli.main(["train", "--data", work["data"], "--nmax", "tiny"])
    assert rc == 1
    assert "nmax" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "posrec" in capsys.readouterr().out


def test_internal_error_exits_2(work, tmp_path, monkeypatch, capsys):
    import posrec.cli as climod

    def boom(*a, **k):
        raise RuntimeError("boom")

    monkeypatch.setattr(climod, "train", boom)
    rc = cli.main(["train", "--config", work["cfg"], "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 2
    assert "boom" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_exits_1(work, tmp_path, capsys):
    rc = cli.main(["train", "--config", work["cfg"], "--out", str(tmp_path / "d"),
                   "--quiet", "--lr", "1e200"])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


def test_sweep_with_a_raising_seed_exits_2(work, tmp_path, capsys, monkeypatch):
    real = cli.stability._run_seed

    def broken(config, dataset, seed, out_dir):
        if seed == 2:
            raise RuntimeError("worker lost its scratch file")
        return real(config, dataset, seed, out_dir)

    monkeypatch.setattr(cli.stability, "_run_seed", broken)
    sw = tmp_path / "sw"
    with pytest.warns(RuntimeWarning, match="failed seed"):
        rc = cli.main(["sweep", "--config", work["cfg"], "--seeds", "1,2,3",
                       "--out", str(sw), "--quiet"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("Act\tencoding")  # the other seeds' results are shown
    assert "seed(s) [2] raised" in captured.err and "scratch file" in captured.err
    assert (sw / "results.tsv").exists()


def _overlay_flags():
    """(command, flag or "" for a positional, config key) of every argument
    whose dest names a config key, read from build_parser()."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [(command, (action.option_strings or [""])[0], action.dest)
            for command, parser in subparsers.choices.items()
            for action in parser._actions if "." in action.dest]


def test_every_dotted_dest_names_a_config_key():
    sections = {"data": runconfig.DATA_KEYS, "model": runconfig.MODEL_KEYS,
                "encoding": runconfig.ENCODING_KEYS, "sweep": runconfig.SWEEP_KEYS,
                "": runconfig.TOP_KEYS - {"data", "model", "encoding", "sweep"}}
    flags = _overlay_flags()
    assert {command for command, _, _ in flags} == {"train", "sweep", "evaluate", "stats",
                                                    "subset"}
    for command, flag, dest in flags:
        section, _, key = dest.partition(".")
        assert key in sections[section], (command, flag, dest)


# config key -> (its value in the config file, the flag's text, the value the flag sets)
OVERLAY_VALUES = {
    ".preset": ("men", "games", "games"),
    ".out": ("from-file", "from-flag", "from-flag"),
    "data.path": ("file.tsv", "flag.tsv", "flag.tsv"),
    "data.min_interactions": (3, "5", 5),
    "data.attributes": ("file.csv", "flag.csv", "flag.csv"),
    "encoding.variant": ("Learnt", "RoPE", "RoPE"),
    "model.nmax": (1e-4, "0.5", 0.5),
    "model.activation": ("leaky", "silu", "silu"),
    "model.lr": (0.1, "0.5", 0.5),
    "model.epochs": (3, "5", 5),
    "model.eval_negatives": (7, "9", 9),
    "model.seed": (1, "4", 4),
    "sweep.seeds": ([1, 2], "3,4", [3, 4]),
    "sweep.jobs": (1, "2", 2),
}
# the other arguments each command requires
REQUIRED = {"train": [], "sweep": [], "evaluate": ["ck.npz"], "stats": ["log.tsv"],
            "subset": ["log.tsv", "--users", "1", "--items", "1", "--out", "x.tsv"]}


def _at(rc, dest):
    """The value of run config `rc` at the config key a dest names."""
    section, _, key = dest.partition(".")
    return getattr(rc, section)[key] if section else getattr(rc, key)


@pytest.mark.parametrize("command, flag, dest", _overlay_flags())
def test_overlay_flag_beats_the_config_file(command, flag, dest, tmp_path):
    in_file, text, value = OVERLAY_VALUES[dest]
    argv = [command, *REQUIRED[command]]
    if flag:
        argv += [flag, text]
    else:  # the positional log of stats and subset
        argv[argv.index("log.tsv")] = text
    if command in ("train", "sweep", "evaluate"):  # stats and subset take no --config
        section, _, key = dest.partition(".")
        config = tmp_path / "c.yaml"
        config.write_text(yaml.safe_dump({section: {key: in_file}} if section else
                                         {key: in_file}))
        assert _at(_flags_over([command, *REQUIRED[command], "--config", str(config)]),
                   dest) == in_file
        argv += ["--config", str(config)]
    assert _at(_flags_over(argv), dest) == value


def test_blank_seeds_fall_back_to_the_config(work, tmp_path):
    argv = _config_with(work, tmp_path / "seeds.yaml", "sweep", "seeds", [5, 6])
    assert _flags_over(["sweep", *argv, "--seeds", ""]).sweep["seeds"] == [5, 6]
    assert _flags_over(["sweep", *argv, "--seeds", " , "]).sweep["seeds"] == [5, 6]
    assert _flags_over(["sweep", *argv, "--seeds", "7"]).sweep["seeds"] == [7]


@pytest.mark.parametrize("argv, named", [
    (["train", "--nmax", "tiny"], "argument --nmax: --nmax expects a float or 'none', got 'tiny'"),
    (["sweep", "--seeds", "x"], "argument --seeds: --seeds expects comma-separated integers"),
    (["train", "--preset", ""], "unknown preset ''; available: beauty, fashion, games, men"),
])
def test_a_bad_overlay_value_exits_1_naming_the_flag(work, argv, named, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main([*argv, "--config", work["cfg"], "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert named in err and "epoch 1" not in err
    assert not run.exists()


def test_readme_lists_every_overlay_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| flag | config key | commands |")[1].split("\n\n")[0]
    listed = set()
    for line in table.strip().splitlines()[1:]:
        flag, key, commands = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        listed |= {(command.strip("` "), flag, key) for command in commands.split(",")}
    assert listed == {(command, flag or "data", dest.lstrip("."))
                      for command, flag, dest in _overlay_flags()}


@pytest.mark.parametrize("make_argv", [
    lambda files, out: ["synth", "--profile", "random", "--users", "3", "--items", "4",
                       "--seq-len", "3", "--out", out],
    lambda files, out: ["stats", files["data"], "--out", out],
    lambda files, out: ["evaluate", files["checkpoint"], "--data", files["data"], "--out", out],
], ids=["synth", "stats", "evaluate"])
def test_writing_over_a_directory_exits_1_naming_it(work, not_data, make_argv, tmp_path,
                                                    capsys):
    taken = tmp_path / "taken"
    (taken / "inside").mkdir(parents=True)
    assert cli.main(make_argv({**not_data, "data": work["data"]}, str(taken))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}:")
    assert [p.name for p in taken.iterdir()] == ["inside"]
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("command, flags", [("train", []), ("sweep", ["--seeds", "1,2"])])
def test_a_run_directory_that_is_a_file_is_refused_before_training(work, command, flags,
                                                                   tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    assert cli.main([command, "--config", work["cfg"], *flags, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: run directory {taken} exists and is not a directory")
    assert "epoch 1" not in err and "seed 1" not in err
    assert taken.read_bytes() == b"not a directory\n"


def test_a_seed_directory_that_is_a_file_is_refused_before_training(work, tmp_path, capsys):
    sw = tmp_path / "sw"
    sw.mkdir()
    (sw / "seed_2").write_bytes(b"not a directory\n")
    ledger = sw / "runs.jsonl"
    argv = ["sweep", "--config", work["cfg"], "--epochs", "1", "--out", str(sw), "--seeds"]

    def refused():
        assert cli.main([*argv, "1,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed directory {sw / 'seed_2'} exists and is not a "
                              "directory")
        assert "seed 1" not in err and "epoch 1" not in err

    refused()
    assert not ledger.exists()
    assert cli.main([*argv, "1"]) == 0  # seed 2 does not run, so its path is not read
    capsys.readouterr()
    before = ledger.read_bytes()
    refused()
    assert ledger.read_bytes() == before
    assert (sw / "seed_2").read_bytes() == b"not a directory\n"


def test_extra_epochs_is_neither_a_flag_nor_a_config_key(work, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", work["cfg"], "--extra-epochs", "3",
                     "--out", str(run), "--quiet"]) == 1
    assert "unrecognized arguments: --extra-epochs" in capsys.readouterr().err
    argv = _config_with(work, tmp_path / "old.yaml", "model", "extra_epochs", 3)
    assert cli.main(["train", *argv, "--out", str(run), "--quiet"]) == 1
    assert ("unknown key 'extra_epochs' in section 'model'; allowed keys: activation, "
            "batch_size, blocks, d, dropout, epochs, eval_negatives, g, heads, l2_weight, "
            "lr, max_len, nmax, seed") in capsys.readouterr().err
    assert not run.exists()


def _five_event_log(path, extra_user=""):
    """Six users of 5 events over 8 items, then `extra_user`'s rows over the same items."""
    path.write_text("".join(f"u{u}\ti{(u + t) % 8}\t{t}\n" for u in range(6) for t in range(5))
                    + extra_user)
    return str(path)


def test_a_one_event_user_fails_before_training(work, not_data, tmp_path, capsys):
    log = _five_event_log(tmp_path / "log.tsv", "loner\ti0\t0\n")
    config = _config_with(work, tmp_path / "one.yaml", "data", "min_interactions", 1)
    run = tmp_path / "run"
    for argv in (["train", *config, "--data", log, "--epochs", "3", "--out", str(run)],
                 ["evaluate", not_data["checkpoint"], *config, "--data", log]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error: user loner has 1 event; min_interactions must be at least 2" in err
        assert "epoch 1" not in err
    assert not run.exists()


def test_evaluate_names_min_interactions_when_the_hash_differs(work, tmp_path, capsys):
    # the 3-event user is dropped under min_interactions 5 and kept under the default 2
    log = _five_event_log(tmp_path / "log.tsv", "short\ti1\t0\nshort\ti2\t1\nshort\ti3\t2\n")
    run = tmp_path / "run"
    config = _config_with(work, tmp_path / "five.yaml", "data", "min_interactions", 5)
    assert cli.main(["train", *config, "--data", log, "--epochs", "1", "--out", str(run),
                     "--quiet"]) == 0
    capsys.readouterr()
    checkpoint = str(run / "checkpoint.npz")
    assert cli.main(["evaluate", checkpoint, "--data", log]) == 1
    assert ("pass the log the run was trained on and, with --config, the run's config: "
            "its data.min_interactions changes the data") in capsys.readouterr().err
    assert cli.main(["evaluate", checkpoint, "--data", log,
                     "--config", str(run / "config.yaml")]) == 0


def test_evaluate_refuses_a_checkpoint_trained_on_another_log(work, tmp_path, capsys):
    # two positional logs of the same sizes: only their content tells them apart
    logs = [str(tmp_path / f"positional_{seed}.tsv") for seed in (1, 2)]
    for seed, log in zip((1, 2), logs):
        assert cli.main(["synth", "--profile", "positional", "--users", "30", "--items", "12",
                         "--seq-len", "7", "--seed", str(seed), "--out", log]) == 0
    first, second = (resolve_dataset({"path": log}).identity for log in logs)
    assert {k: v for k, v in first.items() if k not in ("source", "sha256")} == {
        k: v for k, v in second.items() if k not in ("source", "sha256")}
    # a run trained with a sidecar is checked with the attributes it stored,
    # so its log alone evaluates it
    sidecar = tmp_path / "attributes.csv"
    sidecar.write_text("item_id,a_0\n" + "".join(f"{i},{i}\n" for i in range(12)))
    for attributes in (None, str(sidecar)):
        run_config = (["--config", work["cfg"]] if attributes is None else _config_with(
            work, tmp_path / "sidecar.yaml", "data", "attributes", attributes))
        run = tmp_path / "run"
        assert cli.main(["train", *run_config, "--data", logs[0], "--epochs", "1",
                         "--out", str(run), "--quiet"]) == 0
        test_line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("test "))
        checkpoint = str(run / "checkpoint.npz")
        assert cli.main(["evaluate", checkpoint, "--data", logs[0]]) == 0
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert [float(v) for v in row[:2]] == pytest.approx(
            [float(v) for v in test_line.split()[2:5:2]], abs=0.006)
        assert cli.main(["evaluate", checkpoint, "--data", logs[1]]) == 1
        err = capsys.readouterr().err
        trained = json.loads((run / "resolved.json").read_text())["dataset"]["sha256"]
        with np.load(checkpoint, allow_pickle=False) as archive:
            stored = archive["attributes"] if "attributes" in archive else None
        given = dataclasses.replace(resolve_dataset({"path": logs[1]}),
                                    attributes=stored).identity["sha256"]
        assert (stored is None) == (attributes is None)
        if stored is None:
            assert (trained, given) == (first["sha256"], second["sha256"])
        assert err.startswith("error:")
        assert f"sha256 {trained[:12]}, this dataset has {given[:12]}" in err
