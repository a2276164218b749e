"""Multi-seed sweeps and their aggregation statistics.

A sweep trains one configuration under several seeds, persists every
per-seed outcome to a JSON-lines ledger before aggregating (so an
interrupted sweep resumes without recomputing finished seeds), and reports
mean / sample deviation / 95% confidence intervals in a fixed-column TSV.
All reported metric values are on the x100 (percentage) scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .data import InteractionDataset, atomic_write
from .errors import TrainingDiverged, UserError
from .model import ModelConfig, save_checkpoint, train, write_history_tsv

Z_95 = 1.96
DEVIATION_THRESHOLD = 3.0  # Hit Dev above this marks a high-deviation dataset

RESULTS_COLUMNS = ("Act", "encoding", "nmax", "Hit Mean", "Hit Dev",
                   "NDCG Mean", "NDCG Dev", "runs", "CI", "CI-length")
LEDGER_NAME = "runs.jsonl"
RESULTS_NAME = "results.tsv"


@dataclass
class RunRecord:
    seed: int
    hit: float   # test Hit@10, x100
    ndcg: float  # test NDCG, x100


@dataclass
class SweepSummary:
    fingerprint: str
    records: list[RunRecord] = field(repr=False)
    hit_mean: float
    hit_dev: float
    ndcg_mean: float
    ndcg_dev: float
    runs: int
    ci: tuple[float, float]
    ci_length: float
    errored: list[int] = field(default_factory=list)  # seeds whose run raised


def config_fingerprint(config: ModelConfig, dataset: InteractionDataset | None = None) -> str:
    """Stable id of (configuration minus seed, dataset identity)."""
    payload = {"config": {k: v for k, v in config.as_dict().items() if k != "seed"}}
    if dataset is not None:
        payload["dataset"] = {
            "source": dataset.source,
            "users": dataset.num_users,
            "items": dataset.num_items,
            "interactions": dataset.num_interactions,
        }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def ci_from_moments(mean: float, dev: float, runs: int) -> tuple[float, float, float]:
    """95% normal CI of the mean, endpoints rounded to 2 decimals first.

    The printed interval length is the difference of the printed endpoints,
    not the rounded raw width — (mean 56.00, dev 0.96, 9 runs) gives
    (55.37, 56.63) with length 1.26.
    """
    half = Z_95 * dev / math.sqrt(runs)
    low = round(mean - half, 2)
    high = round(mean + half, 2)
    return low, high, round(high - low, 2)


def aggregate(records: list[RunRecord], fingerprint: str = "") -> SweepSummary:
    if not records:
        raise UserError("nothing to aggregate: no successful runs")
    hits = np.array([r.hit for r in records], dtype=np.float64)
    ndcgs = np.array([r.ndcg for r in records], dtype=np.float64)
    runs = len(records)
    hit_dev = float(np.std(hits, ddof=1)) if runs > 1 else 0.0
    ndcg_dev = float(np.std(ndcgs, ddof=1)) if runs > 1 else 0.0
    hit_mean = float(np.mean(hits))
    low, high, length = ci_from_moments(hit_mean, hit_dev, runs)
    return SweepSummary(
        fingerprint=fingerprint,
        records=list(records),
        hit_mean=hit_mean,
        hit_dev=hit_dev,
        ndcg_mean=float(np.mean(ndcgs)),
        ndcg_dev=ndcg_dev,
        runs=runs,
        ci=(low, high),
        ci_length=length,
    )


@dataclass
class Recommendation:
    choice: str
    hit_dev: float
    threshold: float
    runs: int
    reason: str


def recommend_encoding(baseline: SweepSummary,
                       threshold: float = DEVIATION_THRESHOLD) -> Recommendation:
    """Pick an encoding from the deviation of an encoding-free baseline sweep.

    High-deviation datasets call for relative attention biases (RMHA4);
    stable ones get the rotational variant with the concat projection
    (RotatoryCon).  A dev exactly at the threshold counts as stable.
    """
    if not math.isfinite(threshold):
        raise UserError(f"threshold must be a finite number, got {threshold}")
    if baseline.runs < 3:
        raise UserError(
            f"insufficient runs: the recommendation needs at least 3 seeds, "
            f"got {baseline.runs}"
        )
    if baseline.hit_dev > threshold:
        choice = "RMHA4"
        reason = (f"Hit Dev {baseline.hit_dev:.2f} > {threshold:.2f} over "
                  f"{baseline.runs} runs: high-deviation dataset")
    else:
        choice = "RotatoryCon"
        reason = (f"Hit Dev {baseline.hit_dev:.2f} <= {threshold:.2f} over "
                  f"{baseline.runs} runs: stable dataset")
    return Recommendation(choice, baseline.hit_dev, threshold, baseline.runs, reason)


# ---------------------------------------------------------------------------
# sweep execution


def _nmax_str(nmax: float | None) -> str:
    return "NaN" if nmax is None else f"{nmax:g}"


def _parse_nmax(text: str) -> float | None:
    return None if text.lower() in ("nan", "none") else float(text)


def write_summary_tsv(summary: SweepSummary, config: ModelConfig, path: str) -> None:
    row = (
        config.activation,
        config.encoding.variant,
        _nmax_str(config.nmax),
        f"{summary.hit_mean:.2f}",
        f"{summary.hit_dev:.2f}",
        f"{summary.ndcg_mean:.2f}",
        f"{summary.ndcg_dev:.2f}",
        str(summary.runs),
        f"({summary.ci[0]:.2f}, {summary.ci[1]:.2f})",
        f"{summary.ci_length:.2f}",
    )
    with atomic_write(path) as fh:
        fh.write("\t".join(RESULTS_COLUMNS) + "\n")
        fh.write("\t".join(row) + "\n")


def read_summary_tsv(path: str) -> dict:
    """One results row back as a dict (summary holds the parsed statistics)."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as err:
        raise UserError(f"cannot read sweep results {path}: {err}") from None
    if len(lines) < 2 or tuple(lines[0].split("\t")) != RESULTS_COLUMNS \
            or len(lines[1].split("\t")) != len(RESULTS_COLUMNS):
        raise UserError(f"{path} is not a sweep results table")
    got = dict(zip(RESULTS_COLUMNS, lines[1].split("\t")))

    def number(column, parse=float):
        try:
            return parse(got[column])
        except ValueError:
            raise UserError(f"{path}: column '{column}' holds {got[column]!r}, "
                            "not a number") from None

    summary = SweepSummary(
        fingerprint="",
        records=[],
        hit_mean=number("Hit Mean"),
        hit_dev=number("Hit Dev"),
        ndcg_mean=number("NDCG Mean"),
        ndcg_dev=number("NDCG Dev"),
        runs=number("runs", int),
        ci=number("CI", lambda text: tuple(float(p) for p in text.strip("()").split(","))),
        ci_length=number("CI-length"),
    )
    return {
        "summary": summary,
        "activation": got["Act"],
        "encoding": got["encoding"],
        "nmax": number("nmax", _parse_nmax),
    }


def _run_seed(config: ModelConfig, dataset: InteractionDataset, seed: int,
              out_dir: str | None) -> RunRecord:
    result = train(replace(config, seed=seed), dataset)
    if out_dir is not None:
        run_dir = os.path.join(out_dir, f"seed_{seed}")
        os.makedirs(run_dir, exist_ok=True)
        write_history_tsv(result.history, os.path.join(run_dir, "history.tsv"))
        save_checkpoint(result.model, os.path.join(run_dir, "checkpoint.npz"))
    return RunRecord(seed=seed, hit=result.test_hit, ndcg=result.test_ndcg)


def _worker(args) -> tuple[int, str, float, float, str]:
    """One seed's outcome: "ok", "failed" (diverged) or "error" (raised)."""
    config, dataset, seed, out_dir = args
    try:
        record = _run_seed(config, dataset, seed, out_dir)
    except TrainingDiverged as err:
        return seed, "failed", float("nan"), float("nan"), str(err)
    except Exception as err:  # one seed's fault must not end the other seeds
        traceback.print_exc()
        return seed, "error", float("nan"), float("nan"), f"{type(err).__name__}: {err}"
    return seed, "ok", record.hit, record.ndcg, ""


def _read_ledger(path: str) -> list[dict]:
    """The ledger's rows.

    An unterminated last line is an append cut short: a partial row is cut
    from the file with a warning and a complete one gets its newline, so the
    next append starts a line of its own.  A bad line anywhere else is
    corruption and raises.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    if lines and not lines[-1].endswith(b"\n"):
        tail = lines.pop()
        try:
            json.loads(tail)
        except ValueError:
            warnings.warn(f"{path}: dropping torn last line {len(lines) + 1}", RuntimeWarning)
            with open(path, "r+b") as fh:
                fh.truncate(sum(len(line) for line in lines))
        else:
            lines.append(tail + b"\n")
            with open(path, "ab") as fh:
                fh.write(b"\n")
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except ValueError as err:
            raise UserError(f"{path} line {number} is not a ledger row ({err}); "
                            "repair or delete that line to resume") from None
    return rows


def sweep(config: ModelConfig, dataset: InteractionDataset, seeds: list[int],
          jobs: int = 1, out_dir: str | None = None, progress=None) -> SweepSummary:
    """Train + evaluate one configuration per seed, then aggregate.

    Every per-seed outcome lands in `out_dir`/runs.jsonl as soon as it
    finishes; rerunning the sweep skips seeds already recorded under the same
    config/dataset fingerprint.  Diverged seeds stay in the ledger as failed
    and are excluded from the aggregate (`runs` counts successes), as are
    seeds whose run raised; those are recorded as "error" rows, listed in
    `errored`, and run again on resume.
    """
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise UserError(f"sweep seeds must be distinct, got {seeds}")
    if not seeds:
        raise UserError("sweep needs at least one seed")
    if jobs < 1:
        raise UserError("jobs must be >= 1")

    fingerprint = config_fingerprint(config, dataset)
    ledger_path = None
    done: dict[int, dict] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ledger_path = os.path.join(out_dir, LEDGER_NAME)
        for row in _read_ledger(ledger_path):
            if (row.get("fingerprint") == fingerprint and row.get("seed") in seeds
                    and row.get("status") != "error"):
                done[row["seed"]] = row

    pending = [s for s in seeds if s not in done]
    if progress and done:
        progress(f"resuming: {len(done)} of {len(seeds)} seeds already recorded")

    tasks = [(config, dataset, seed, out_dir) for seed in pending]
    parallel = jobs > 1 and len(tasks) > 1
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        # both maps yield in submission order, so the ledger's rows do too
        for seed, status, hit, ndcg, error in (pool.map if parallel else map)(_worker, tasks):
            row = {"seed": seed, "fingerprint": fingerprint, "status": status,
                   "hit": hit, "ndcg": ndcg}
            if error:
                row["error"] = error
            done[seed] = row
            if ledger_path is not None:
                with open(ledger_path, "a", newline="\n") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
                    fh.flush()
            if progress:
                progress(f"seed {seed}: {status}" +
                         (f"  Hit@10 {hit:.2f}" if status == "ok" else f"  {error}"))

    failed = [s for s in seeds if done[s]["status"] != "ok"]
    if failed:
        warnings.warn(f"excluding {len(failed)} failed seed(s): {failed}", RuntimeWarning)
    records = [RunRecord(s, done[s]["hit"], done[s]["ndcg"])
               for s in seeds if done[s]["status"] == "ok"]
    if not records:
        raise UserError(f"all {len(seeds)} sweep runs failed")
    summary = aggregate(records, fingerprint)
    summary.errored = [s for s in seeds if done[s]["status"] == "error"]
    if out_dir is not None:
        write_summary_tsv(summary, config, os.path.join(out_dir, RESULTS_NAME))
    return summary
