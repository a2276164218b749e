"""Run-config parsing and the command-line workflow."""

import json
import math
import os

import pytest
import yaml

from posrec import cli, stability
from posrec.data import save_cache
from posrec.errors import UserError
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


def test_merge_order_preset_file_flags():
    rc = parse_run_config({"preset": "games", "model": {"epochs": 50, "d": 12, "heads": 2}})
    cfg = build_model_config(rc, {"epochs": 5})
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
    stored = cfg.as_dict()["encoding"]
    assert stored["model_dim"] == 16 and stored["max_len"] == 9
    assert stored["clip_distance"] == 3 == cfg.encoding.clip_distance


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


def test_override_nmax_none_beats_config():
    rc = parse_run_config({"model": {"nmax": 1e-4}})
    cfg = build_model_config(rc, {"nmax": math.nan})
    assert cfg.nmax is None


def test_resolve_dataset_synth_section():
    rc = parse_run_config({"data": {"synth": {
        "profile": "memorizable", "users": 5, "items": 7, "seq_len": 4}}})
    ds = resolve_dataset(rc.data)
    assert ds.num_users == 5 and ds.num_items == 7
    assert ds.source == "synth:memorizable"


def test_resolve_dataset_requires_a_source():
    with pytest.raises(UserError, match="--data"):
        resolve_dataset({})


def test_path_and_synth_together_rejected():
    with pytest.raises(UserError, match="not both"):
        parse_run_config({"data": {"path": "x.tsv", "synth": {
            "profile": "random", "users": 1, "items": 2, "seq_len": 3}}})


def test_min_interactions_with_cache_rejected():
    with pytest.raises(UserError, match="caches"):
        resolve_dataset({"path": "x.npz", "min_interactions": 3})


def test_path_override_displaces_synth(tmp_path):
    from posrec import synth
    p = tmp_path / "d.tsv"
    synth.write_dataset("random", 4, 6, 5, seed=0, path=str(p))
    rc = parse_run_config({"data": {"synth": {
        "profile": "memorizable", "users": 99, "items": 9, "seq_len": 4}}})
    ds = resolve_dataset(rc.data, path_override=str(p))
    assert ds.num_users == 4


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
    shown = capsys.readouterr().out
    assert "budget_users" in shown
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
    assert (run / "config.yaml").read_bytes() == open(work["cfg"], "rb").read()
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


def test_sweep_needs_seeds(work, tmp_path, capsys):
    rc = cli.main(["sweep", "--config", work["cfg"], "--out", str(tmp_path / "x"),
                   "--quiet"])
    assert rc == 1
    assert "seeds" in capsys.readouterr().err


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
    raw = yaml.safe_load(open(work["cfg"]).read())
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
    """A dataset cache, a checkpoint (an .npz that is no dataset), a missing
    file, and two sweep results tables, well formed and with a word for a
    number."""
    root = work["root"]
    cache, run = root / "data.npz", root / "checkpoint-run"
    save_cache(resolve_dataset({"path": work["data"]}), str(cache))
    assert cli.main(["train", "--config", work["cfg"], "--out", str(run), "--quiet",
                     "--epochs", "1"]) == 0
    header = "\t".join(stability.RESULTS_COLUMNS)
    row = ["leaky", "None", "NaN", "50.00", "3.00", "30.00", "2.00", "3",
           "(45.00, 55.00)", "10.00"]
    results, bad_results = root / "results.tsv", root / "results-abc.tsv"
    results.write_text(header + "\n" + "\t".join(row) + "\n")
    row[4] = "abc"  # Hit Dev
    bad_results.write_text(header + "\n" + "\t".join(row) + "\n")
    return {"cache": str(cache), "checkpoint": str(run / "checkpoint.npz"),
            "missing": str(root / "missing.csv"), "results": str(results),
            "bad_results": str(bad_results)}


def _config_with(work, path, section, key, value):
    """The work config with section.key set to value; data.synth replaces data.path."""
    raw = yaml.safe_load(open(work["cfg"]).read())
    if section == "data.synth":
        raw["data"] = {"synth": {"profile": "random", "users": 6, "items": 9, "seq_len": 5,
                                 key: value}}
    else:
        raw.setdefault(section, {})[key] = value
    path.write_text(yaml.safe_dump(raw))
    return ["--config", str(path)]


# case -> (argv built from (files, config_with), text the error message names)
BAD_DATA = {
    "stats npz --min-interactions": (
        lambda f, cfg: ["stats", f["cache"], "--min-interactions", "3"], "min_interactions"),
    "subset npz --min-interactions": (
        lambda f, cfg: ["subset", f["cache"], "--users", "5", "--items", "5",
                        "--min-interactions", "3", "--out", f["out"]], "min_interactions"),
    "stats --attributes missing": (
        lambda f, cfg: ["stats", f["data"], "--attributes", f["missing"]], "missing.csv"),
    "train data.attributes missing": (
        lambda f, cfg: ["train", *cfg("data", "attributes", f["missing"])], "missing.csv"),
    "stats checkpoint.npz": (
        lambda f, cfg: ["stats", f["checkpoint"]], "not a dataset cache"),
    "train --data checkpoint.npz": (
        lambda f, cfg: ["train", "--data", f["checkpoint"]], "not a dataset cache"),
    "sweep.jobs": (
        lambda f, cfg: ["sweep", *cfg("sweep", "jobs", "two"), "--seeds", "1"], "sweep.jobs"),
    "sweep.seeds entry": (
        lambda f, cfg: ["sweep", *cfg("sweep", "seeds", [1, "two"])], "sweep.seeds"),
    "data.min_interactions": (
        lambda f, cfg: ["train", *cfg("data", "min_interactions", "three")],
        "data.min_interactions"),
    "data.synth.users": (
        lambda f, cfg: ["train", *cfg("data.synth", "users", 6.5)], "data.synth.users"),
    "data.synth.seed": (
        lambda f, cfg: ["train", *cfg("data.synth", "seed", "zero")], "data.synth.seed"),
    "data.synth.shift": (
        lambda f, cfg: ["train", *cfg("data.synth", "shift", True)], "data.synth.shift"),
    "evaluate --negatives -3": (
        lambda f, cfg: ["evaluate", f["checkpoint"], "--data", f["data"], "--negatives", "-3"],
        "num_negatives must be >= 0"),
    "recommend-encoding word in Hit Dev": (
        lambda f, cfg: ["recommend-encoding", f["bad_results"]], "column 'Hit Dev'"),
    "recommend-encoding --threshold nan": (
        lambda f, cfg: ["recommend-encoding", f["results"], "--threshold", "nan"], "threshold"),
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
    assert not (tmp_path / "run").exists() and not (tmp_path / "subset.tsv").exists()


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
