"""Sweep aggregation statistics, the results table, and resume behaviour."""

import json
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from posrec import synth
from posrec.encodings import VARIANTS, EncodingConfig
from posrec.errors import TrainingDiverged, UserError
from posrec.model import ModelConfig
from posrec.stability import (
    RESULTS_COLUMNS,
    aggregate,
    ci_from_moments,
    config_fingerprint,
    read_summary_tsv,
    recommend_encoding,
    sweep,
)


def values_with_moments(mean, dev, runs):
    """Sample with exactly the requested mean and ddof=1 std."""
    vals = np.full(runs, mean, dtype=np.float64)
    if runs > 1:
        spread = dev * math.sqrt((runs - 1) / 2.0)
        vals[0] += spread
        vals[1] -= spread
    return vals


def ok_row(seed, hit, ndcg):
    """A ledger row of a seed that trained."""
    return {"seed": seed, "status": "ok", "hit": hit, "ndcg": ndcg}


def summary_with(hit_dev, runs=5, hit_mean=50.0):
    hits = values_with_moments(hit_mean, hit_dev, runs)
    return aggregate([ok_row(i, h, h / 2) for i, h in enumerate(hits)])


# ---------------------------------------------------------------------------
# confidence intervals


def test_ci_anchor_nine_runs():
    low, high, length = ci_from_moments(56.00, 0.96, 9)
    assert low == pytest.approx(55.37, abs=1e-9)
    assert high == pytest.approx(56.63, abs=1e-9)
    assert length == pytest.approx(1.26, abs=1e-9)


def test_ci_anchor_five_runs():
    low, high, length = ci_from_moments(67.93, 4.17, 5)
    assert (low, high) == pytest.approx((64.27, 71.59), abs=1e-9)
    assert length == pytest.approx(7.32, abs=1e-9)


def test_ci_zero_dev_is_degenerate():
    low, high, length = ci_from_moments(42.0, 0.0, 7)
    assert low == high == 42.0
    assert length == 0.0


def test_ci_length_uses_printed_endpoints():
    # raw width 2*1.96*dev/sqrt(n) would round to 7.31 here; the printed
    # table is self-consistent instead: length == high - low after rounding.
    _, _, length = ci_from_moments(67.93, 4.17, 5)
    raw = 2 * 1.96 * 4.17 / math.sqrt(5)
    assert round(raw, 2) == 7.31
    assert length == pytest.approx(7.32, abs=1e-9)


# ---------------------------------------------------------------------------
# aggregation


def test_values_with_moments_helper_is_exact():
    vals = values_with_moments(56.0, 0.96, 9)
    assert np.mean(vals) == pytest.approx(56.0, abs=1e-12)
    assert np.std(vals, ddof=1) == pytest.approx(0.96, abs=1e-12)


def test_aggregate_matches_numpy_oracle():
    rng = np.random.default_rng(5)
    hits = rng.uniform(20, 80, size=11)
    ndcgs = rng.uniform(10, 40, size=11)
    rows = [ok_row(i, h, n) for i, (h, n) in enumerate(zip(hits, ndcgs))]
    s = aggregate(rows, [11])
    assert s.hit_mean == pytest.approx(np.mean(hits), rel=1e-12)
    assert s.hit_dev == pytest.approx(np.std(hits, ddof=1), rel=1e-12)
    assert s.ndcg_mean == pytest.approx(np.mean(ndcgs), rel=1e-12)
    assert s.ndcg_dev == pytest.approx(np.std(ndcgs, ddof=1), rel=1e-12)
    assert s.runs == 11
    assert s.errored == [11]


def test_aggregate_single_run_has_zero_dev():
    s = aggregate([ok_row(0, 61.5, 33.0)])
    assert s.hit_dev == 0.0 and s.ndcg_dev == 0.0
    assert s.ci == (61.5, 61.5)
    assert s.ci_length == 0.0
    assert s.runs == 1


def test_aggregate_is_permutation_invariant():
    rows = [ok_row(i, float(h), float(h) / 3) for i, h in enumerate([55, 58, 52, 60, 49])]
    a = aggregate(rows)
    b = aggregate(list(reversed(rows)))
    assert a.hit_mean == pytest.approx(b.hit_mean, rel=1e-14)
    assert a.hit_dev == pytest.approx(b.hit_dev, rel=1e-14)
    assert a.ci == b.ci and a.ci_length == b.ci_length


def test_aggregate_reads_only_the_ok_rows():
    rows = [ok_row(0, 60.0, 30.0), {"seed": 1, "status": "failed", "hit": math.nan,
                                    "ndcg": math.nan, "error": "loss became nan"},
            ok_row(2, 50.0, 20.0)]
    s = aggregate(rows)
    assert (s.runs, s.hit_mean, s.ndcg_mean, s.errored) == (2, 55.0, 25.0, [])


def test_aggregate_rejects_empty():
    with pytest.raises(UserError):
        aggregate([])
    with pytest.raises(UserError, match="no successful runs"):
        aggregate([{"seed": 0, "status": "error", "hit": math.nan, "ndcg": math.nan}], [0])


# ---------------------------------------------------------------------------
# recommendation rule


def test_recommend_high_deviation_picks_relative():
    rec = recommend_encoding(summary_with(3.54))
    assert rec.choice == "RMHA4"
    assert "3.54" in rec.reason


def test_recommend_low_deviation_picks_rotatory_con():
    rec = recommend_encoding(summary_with(1.25))
    assert rec.choice == "RotatoryCon"


def test_recommend_boundary_counts_as_stable():
    assert recommend_encoding(summary_with(3.0)).choice == "RotatoryCon"


def test_recommend_needs_three_runs():
    with pytest.raises(UserError, match="insufficient runs"):
        recommend_encoding(summary_with(0.0, runs=2))
    with pytest.raises(UserError, match="insufficient runs"):
        recommend_encoding(summary_with(0.0, runs=1))


def test_recommend_custom_threshold():
    assert recommend_encoding(summary_with(2.0), threshold=1.5).choice == "RMHA4"


# ---------------------------------------------------------------------------
# sweep execution


def tiny_dataset():
    return synth.build_dataset("memorizable", users=10, items=12, seq_len=6, seed=0)


def tiny_config(**kw):
    base = dict(d=8, g=16, blocks=1, heads=2, max_len=5, epochs=2, lr=1e-3,
                batch_size=16, eval_negatives=8, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_sweep_writes_ledger_and_results(tmp_path):
    out = tmp_path / "sw"
    s = sweep(tiny_config(), tiny_dataset(), [1, 2], out_dir=str(out))
    assert s.runs == 2

    rows = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in rows] == [1, 2]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["fingerprint"] == config_fingerprint(tiny_config(), tiny_dataset()) for r in rows)

    lines = (out / "results.tsv").read_text().splitlines()
    assert tuple(lines[0].split("\t")) == RESULTS_COLUMNS
    cells = lines[1].split("\t")
    assert cells[0] == "leaky" and cells[1] == "None" and cells[2] == "NaN"
    assert cells[7] == "2"


def test_sweep_rejects_duplicate_seeds(tmp_path):
    with pytest.raises(UserError, match="distinct"):
        sweep(tiny_config(), tiny_dataset(), [42, 42], out_dir=str(tmp_path))


def test_sweep_rejects_empty_seeds(tmp_path):
    with pytest.raises(UserError):
        sweep(tiny_config(), tiny_dataset(), [], out_dir=str(tmp_path))


def test_sweep_resume_skips_recorded_seeds(tmp_path):
    out = tmp_path / "sw"
    ds, cfg = tiny_dataset(), tiny_config()
    sweep(cfg, ds, [1, 2], out_dir=str(out))

    # interrupted sweep = ledger holds a prefix of the seeds; rerun with the
    # full list must only compute the missing one
    s_resumed = sweep(cfg, ds, [1, 2, 3], out_dir=str(out))
    rows = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
    assert len(rows) == 3  # seeds 1 and 2 were not recomputed

    s_fresh = sweep(cfg, ds, [1, 2, 3], out_dir=str(tmp_path / "fresh"))
    assert s_resumed.hit_mean == s_fresh.hit_mean
    assert s_resumed.hit_dev == s_fresh.hit_dev
    assert s_resumed.ndcg_mean == s_fresh.ndcg_mean
    assert s_resumed.ci == s_fresh.ci


def test_sweep_refuses_a_torn_last_ledger_line(tmp_path):
    out = tmp_path / "sw"
    ds, cfg = tiny_dataset(), tiny_config()
    sweep(cfg, ds, [1, 2], out_dir=str(out))
    ledger = out / "runs.jsonl"
    complete = ledger.read_text().splitlines(keepends=True)
    # a line cut short, as a killed append leaves it, is no ledger row
    torn = complete[0] + complete[1][: len(complete[1]) // 2]
    ledger.write_text(torn)
    with pytest.raises(UserError, match="runs.jsonl line 2 is not a ledger row"):
        sweep(cfg, ds, [1, 2, 3], out_dir=str(out))
    assert ledger.read_text() == torn


def test_sweep_resume_terminates_complete_unterminated_ledger_row(tmp_path):
    out = tmp_path / "sw"
    ds, cfg = tiny_dataset(), tiny_config()
    sweep(cfg, ds, [1, 2], out_dir=str(out))
    ledger = out / "runs.jsonl"
    ledger.write_text(ledger.read_text().rstrip("\n"))  # cut just before the newline
    sweep(cfg, ds, [1, 2, 3], out_dir=str(out))
    sweep(cfg, ds, [1, 2, 3], out_dir=str(out))
    rows = [json.loads(l) for l in ledger.read_text().splitlines()]
    assert [r["seed"] for r in rows] == [1, 2, 3]  # seed 2's row was kept, not rerun


def test_sweep_resume_rejects_bad_ledger_line_mid_file(tmp_path):
    out = tmp_path / "sw"
    ds, cfg = tiny_dataset(), tiny_config()
    sweep(cfg, ds, [1, 2], out_dir=str(out))
    ledger = out / "runs.jsonl"
    first, second = ledger.read_text().splitlines(keepends=True)
    ledger.write_text(first[: len(first) // 2] + "\n" + second)
    with pytest.raises(UserError, match="runs.jsonl line 1 is not a ledger row"):
        sweep(cfg, ds, [1, 2], out_dir=str(out))
    assert ledger.read_text() == first[: len(first) // 2] + "\n" + second  # left as found


def test_sweep_resume_rejects_a_ledger_line_that_is_no_json_object(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    ledger.write_text("[1]\n")
    with pytest.raises(UserError, match="runs.jsonl line 1 is not a ledger row"):
        sweep(tiny_config(), tiny_dataset(), [1], out_dir=str(tmp_path))
    assert ledger.read_text() == "[1]\n"


def _refused_without_training(out, config, ds):
    """Sweep `config` over `ds` into `out`, which holds another fingerprint's
    ledger: refused naming the ledger and both fingerprints, with no file changed."""
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    old = json.loads((out / "runs.jsonl").read_text().splitlines()[0])["fingerprint"]
    new, shown = config_fingerprint(config, ds), []
    assert old != new
    with pytest.raises(UserError, match=f"sw/runs.jsonl records fingerprint {old}, not this "
                                        f"sweep's {new}: .*pass another --out"):
        sweep(config, ds, [1, 2], out_dir=str(out), progress=shown.append)
    assert shown == []  # no "resuming" line, no seed ran
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_sweep_refuses_a_ledger_of_another_config(tmp_path):
    out = tmp_path / "sw"
    ds = tiny_dataset()
    sweep(tiny_config(), ds, [1, 2], out_dir=str(out))
    _refused_without_training(out, tiny_config(lr=5e-4), ds)


def test_sweep_refuses_a_ledger_of_another_log_of_the_same_sizes(tmp_path):
    out = tmp_path / "sw"
    first = synth.build_dataset("positional", users=10, items=12, seq_len=6, seed=0)
    second = synth.build_dataset("positional", users=10, items=12, seq_len=6, seed=1)
    assert ({k: v for k, v in first.identity.items() if k != "sha256"}
            == {k: v for k, v in second.identity.items() if k != "sha256"})
    sweep(tiny_config(), first, [1, 2], out_dir=str(out))
    _refused_without_training(out, tiny_config(), second)


def test_sweep_seed_field_does_not_change_fingerprint():
    ds = tiny_dataset()
    assert (config_fingerprint(tiny_config(seed=0), ds)
            == config_fingerprint(tiny_config(seed=99), ds))
    assert (config_fingerprint(tiny_config(), ds)
            != config_fingerprint(tiny_config(encoding="Learnt"), ds))


def test_sweep_excludes_failed_seeds(tmp_path, monkeypatch):
    import posrec.stability as st

    real = st._run_seed

    def flaky(config, dataset, seed, out_dir):
        if seed == 2:
            raise TrainingDiverged(1, "loss became NaN")
        return real(config, dataset, seed, out_dir)

    monkeypatch.setattr(st, "_run_seed", flaky)
    out = tmp_path / "sw"
    with pytest.warns(RuntimeWarning, match="failed seed"):
        s = sweep(tiny_config(), tiny_dataset(), [1, 2, 3], out_dir=str(out))
    assert s.runs == 2
    rows = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in rows if r["status"] == "ok"] == [1, 3]
    failed = [r for r in rows if r["status"] == "failed"]
    assert len(failed) == 1 and failed[0]["seed"] == 2
    assert "NaN" in failed[0]["error"]


def test_every_ledger_row_is_strict_json(tmp_path, monkeypatch):
    import posrec.stability as st

    def outcomes(config, dataset, seed, out_dir):
        if seed == 2:
            raise TrainingDiverged(1, "loss became NaN")
        if seed == 3:
            raise ValueError("bad batch")
        return 50.0, 30.0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(st, "_run_seed", outcomes)
    out = tmp_path / "sw"
    with pytest.warns(RuntimeWarning, match="failed seed"):
        sweep(tiny_config(), tiny_dataset(), [1, 2, 3], out_dir=str(out))
    rows = [json.loads(line, parse_constant=refuse)
            for line in (out / "runs.jsonl").read_text().splitlines()]
    assert [(r["status"], sorted(r)) for r in rows] == [
        ("ok", ["fingerprint", "hit", "ndcg", "seed", "status"]),
        ("failed", ["error", "fingerprint", "seed", "status"]),
        ("error", ["error", "fingerprint", "seed", "status"])]


def test_sweep_all_failed_raises(tmp_path, monkeypatch):
    import posrec.stability as st

    def always_diverges(config, dataset, seed, out_dir):
        raise TrainingDiverged(1, "loss became NaN")

    monkeypatch.setattr(st, "_run_seed", always_diverges)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(UserError, match="failed"):
            sweep(tiny_config(), tiny_dataset(), [1, 2], out_dir=str(tmp_path))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_a_raising_seed_and_reruns_it_on_resume(tmp_path, monkeypatch, jobs):
    import posrec.stability as st

    real = st._run_seed

    def broken(config, dataset, seed, out_dir):
        if seed == 2:
            raise ValueError("bad batch")
        if seed == 3:
            raise TrainingDiverged(1, "loss became NaN")
        return real(config, dataset, seed, out_dir)

    monkeypatch.setattr(st, "_run_seed", broken)
    ds, cfg, out = tiny_dataset(), tiny_config(), tmp_path / "sw"
    ledger = out / "runs.jsonl"
    with pytest.warns(RuntimeWarning, match="excluding 2 failed seed"):
        s = sweep(cfg, ds, [1, 2, 3, 4], jobs=jobs, out_dir=str(out))
    assert s.errored == [2] and s.runs == 2
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert [(r["seed"], r["status"]) for r in rows] == [(1, "ok"), (2, "error"), (3, "failed"), (4, "ok")]
    assert rows[1]["error"] == "ValueError: bad batch"

    monkeypatch.setattr(st, "_run_seed", real)
    with pytest.warns(RuntimeWarning, match="excluding 1 failed seed"):
        resumed = sweep(cfg, ds, [1, 2, 3, 4], jobs=jobs, out_dir=str(out))
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    # the raising seed runs again; the diverged one stays recorded as failed
    assert [(r["seed"], r["status"]) for r in rows[4:]] == [(2, "ok")]
    assert resumed.errored == [] and resumed.runs == 3
    fresh = sweep(cfg, ds, [1, 2, 4], out_dir=str(tmp_path / "fresh"))
    assert resumed.hit_mean == fresh.hit_mean and resumed.ndcg_mean == fresh.ndcg_mean


def test_sweep_parallel_matches_serial(tmp_path):
    ds, cfg = tiny_dataset(), tiny_config()
    seeds = [3, 1, 2]
    s1 = sweep(cfg, ds, seeds, jobs=1, out_dir=str(tmp_path / "a"))
    s2 = sweep(cfg, ds, seeds, jobs=2, out_dir=str(tmp_path / "b"))
    assert s1.hit_mean == s2.hit_mean
    assert s1.ndcg_mean == s2.ndcg_mean
    assert s1.ci == s2.ci
    files = ["runs.jsonl", "results.tsv"] + [f"seed_{s}/history.tsv" for s in seeds]
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    rows = [json.loads(line) for line in (tmp_path / "b" / "runs.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in rows] == seeds  # ledger rows follow submission order


def test_parallel_sweep_records_a_seed_the_moment_it_ends(tmp_path, monkeypatch):
    import posrec.stability as st

    real = st._run_seed
    ledger = tmp_path / "sw" / "runs.jsonl"

    def recorded_seeds():
        if not ledger.exists():
            return []
        return [json.loads(line)["seed"] for line in ledger.read_text().splitlines()]

    def seed_1_waits_for_seed_2(config, dataset, seed, out_dir):
        deadline = time.monotonic() + 20
        while seed == 1 and 2 not in recorded_seeds():
            if time.monotonic() > deadline:
                raise TimeoutError("seed 2 finished but is not in the ledger")
            time.sleep(0.02)
        return real(config, dataset, seed, out_dir)

    monkeypatch.setattr(st, "_run_seed", seed_1_waits_for_seed_2)
    s = sweep(tiny_config(), tiny_dataset(), [1, 2], jobs=2, out_dir=str(tmp_path / "sw"))
    assert s.errored == [] and s.runs == 2
    assert recorded_seeds() == [1, 2]


# Runs a jobs=2 sweep whose seeds report their worker's OpenBLAS thread
# count, read through the getter of the OpenBLAS that numpy links
BLAS_WORKER_SCRIPT = textwrap.dedent("""
    import ctypes, json, os, sys
    import numpy as np
    from posrec import stability, synth
    from posrec.model import ModelConfig

    core = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    getter = next((getattr(core, name) for name in names if hasattr(core, name)), None)

    def report_blas_threads(config, dataset, seed, out_dir):
        return float(getter()), 0.0

    if getter is not None:
        stability._run_seed = report_blas_threads
        dataset = synth.build_dataset("memorizable", users=10, items=12, seq_len=6, seed=0)
        config = ModelConfig(d=8, g=16, blocks=1, heads=2, max_len=5, epochs=1)
        stability.sweep(config, dataset, [1, 2], jobs=2, out_dir=sys.argv[1])
        with open(os.path.join(sys.argv[1], stability.LEDGER_NAME)) as fh:
            print(json.dumps([json.loads(line)["hit"] for line in fh]))
    else:
        print("null")
""")


def test_sweep_workers_run_one_blas_thread_without_the_environment_variable(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    got = subprocess.run([sys.executable, "-c", BLAS_WORKER_SCRIPT, str(tmp_path)], capture_output=True,
                         text=True, env={**env, "PYTHONPATH": src}, timeout=120)
    assert got.returncode == 0, got.stderr
    threads = json.loads(got.stdout)
    if threads is None:
        pytest.skip("numpy links no OpenBLAS")
    assert threads == [1.0, 1.0]


def test_parallel_sweep_warns_once_where_no_openblas_setter_is_found(tmp_path, monkeypatch):
    import posrec.stability as st

    monkeypatch.setattr(st, "_blas_thread_setter", lambda: None)
    with pytest.warns(RuntimeWarning) as caught:
        s = sweep(tiny_config(), tiny_dataset(), [1, 2], jobs=2, out_dir=str(tmp_path / "sw"))
    assert s.errored == [] and s.runs == 2
    assert sum("no OpenBLAS thread setter" in str(w.message) for w in caught) == 1


# config_fingerprint of the stored config format, one config per variant; if
# these move, every existing ledger row stops matching its sweep
PINNED_FINGERPRINTS = {
    "None": "eddda26b4f8a9c9d",
    "Abs": "e69de226bac03d1a",
    "AbsCon": "e316dd07b6a73165",
    "Learnt": "25223af783421866",
    "LearntCon": "6eeba159eccabdf9",
    "Rotatory": "c3f2d5513aa1b607",
    "RotatoryCon": "07e00ac36989aeeb",
    "RMHA4": "43baaf91a330cd5c",
    "RoPE": "156ee84ae8bed2c0",
    "RopeOne": "ae49256352f6af8c",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_config_fingerprint_is_pinned(variant):
    config = ModelConfig(d=12, g=20, blocks=2, heads=2, max_len=7, activation="silu",
                         encoding=EncodingConfig(variant, clip_distance=3), seed=5)
    assert config_fingerprint(config) == PINNED_FINGERPRINTS[variant]


def test_sweep_without_out_dir(tmp_path):
    s = sweep(tiny_config(), tiny_dataset(), [7], out_dir=None)
    assert s.runs == 1


def test_sweep_per_seed_artifacts(tmp_path):
    out = tmp_path / "sw"
    sweep(tiny_config(), tiny_dataset(), [5], out_dir=str(out))
    assert (out / "seed_5" / "history.tsv").exists()
    assert (out / "seed_5" / "checkpoint.npz").exists()


def test_summary_tsv_round_trip(tmp_path):
    out = tmp_path / "sw"
    cfg = tiny_config(nmax=1e-4, encoding="Learnt", activation="silu")
    s = sweep(cfg, tiny_dataset(), [1, 2, 3], out_dir=str(out))
    row = (out / "results.tsv").read_text().splitlines()[1].split("\t")
    assert row[:3] == ["silu", "Learnt", "0.0001"]  # Act, encoding, nmax
    back = read_summary_tsv(str(out / "results.tsv"))
    assert back.runs == s.runs
    assert back.hit_mean == pytest.approx(s.hit_mean, abs=0.005)
    assert back.ci[0] == pytest.approx(s.ci[0], abs=1e-9)
    assert back.ci_length == pytest.approx(s.ci_length, abs=1e-9)


def test_read_summary_rejects_garbage(tmp_path):
    p = tmp_path / "junk.tsv"
    p.write_text("not\ta\tresults\ttable\n")
    with pytest.raises(UserError):
        read_summary_tsv(str(p))
    with pytest.raises(UserError):
        read_summary_tsv(str(tmp_path / "missing.tsv"))


# ---------------------------------------------------------------------------
# README


def test_readme_library_use_block_runs(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "epochs=70" in block
    exec(block.replace("epochs=70", "epochs=1"), {})
    assert "runs:" in capsys.readouterr().out  # recommend_encoding's reason


def test_sweep_pool_has_no_more_workers_than_seeds(tmp_path, monkeypatch):
    import posrec.stability as st
    from concurrent.futures import Future

    sizes = []

    class InlinePool:
        """Records its size and runs each task at submit, in this process."""

        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(st, "ProcessPoolExecutor", InlinePool)
    ds, cfg = tiny_dataset(), tiny_config(epochs=1)
    assert sweep(cfg, ds, [1, 2], jobs=8, out_dir=str(tmp_path / "sw")).runs == 2
    assert sweep(cfg, ds, [1, 2, 3], jobs=2, out_dir=str(tmp_path / "sw")).runs == 3
    assert sizes == [2]  # the resumed sweep runs one seed, so it needs no pool
    assert sweep(cfg, ds, [4, 5, 6], jobs=2).runs == 3
    assert sizes == [2, 2]
