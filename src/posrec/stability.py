"""Multi-seed sweeps and their aggregation statistics.

A sweep trains one configuration under several seeds, records each seed's
outcome in a JSON-lines ledger the moment it ends, and reports mean /
sample deviation / 95% confidence intervals in a fixed-column TSV.  Like
every artifact, the ledger is replaced whole through `atomic_write`, never
appended to.  An interrupted sweep resumes from the ledger and reruns only
the seeds it does not hold.
All reported metric values are on the x100 (percentage) scale.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace

import numpy as np

from .data import InteractionDataset, _table, atomic_write, read_input
from .errors import TrainingDiverged, UserError
from .model import ModelConfig, TrainResult, save_checkpoint, train, write_history_tsv

Z_95 = 1.96
DEVIATION_THRESHOLD = 3.0  # Hit Dev above this marks a high-deviation dataset

RESULTS_COLUMNS = ("Act", "encoding", "nmax", "Hit Mean", "Hit Dev",
                   "NDCG Mean", "NDCG Dev", "runs", "CI", "CI-length")
LEDGER_NAME = "runs.jsonl"
RESULTS_NAME = "results.tsv"


@dataclass
class SweepSummary:
    hit_mean: float
    hit_dev: float
    ndcg_mean: float
    ndcg_dev: float
    runs: int
    ci: tuple[float, float]
    ci_length: float
    errored: list[int] = field(default_factory=list)  # seeds whose run raised


def config_fingerprint(config: ModelConfig, dataset: InteractionDataset | None = None) -> str:
    """Stable id of (configuration minus seed, dataset content sha256)."""
    payload = {"config": {k: v for k, v in config.as_dict().items() if k != "seed"}}
    if dataset is not None:
        payload["dataset"] = dataset.identity["sha256"]
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


def aggregate(rows: list[dict], errored: list[int] = ()) -> SweepSummary:
    """The statistics of the ledger rows whose status is "ok"; `errored`
    lists the seeds whose run raised."""
    ok = [row for row in rows if row["status"] == "ok"]
    if not ok:
        raise UserError("nothing to aggregate: no successful runs")
    hits = np.array([row["hit"] for row in ok], dtype=np.float64)
    ndcgs = np.array([row["ndcg"] for row in ok], dtype=np.float64)
    runs = len(ok)
    hit_dev = float(np.std(hits, ddof=1)) if runs > 1 else 0.0
    ndcg_dev = float(np.std(ndcgs, ddof=1)) if runs > 1 else 0.0
    hit_mean = float(np.mean(hits))
    low, high, length = ci_from_moments(hit_mean, hit_dev, runs)
    return SweepSummary(
        hit_mean=hit_mean,
        hit_dev=hit_dev,
        ndcg_mean=float(np.mean(ndcgs)),
        ndcg_dev=ndcg_dev,
        runs=runs,
        ci=(low, high),
        ci_length=length,
        errored=list(errored),
    )


@dataclass
class Recommendation:
    choice: str
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
    if not (math.isfinite(baseline.hit_dev) and baseline.hit_dev >= 0):
        raise UserError(f"Hit Dev must be a finite number >= 0, got {baseline.hit_dev}")
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
    return Recommendation(choice, reason)


# ---------------------------------------------------------------------------
# sweep execution


def _nmax_str(nmax: float | None) -> str:
    return "NaN" if nmax is None else f"{nmax:g}"


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


def read_summary_tsv(path: str) -> SweepSummary:
    """The statistics of a results table's row."""
    rows = [fields for _, fields in _table(read_input(path, "sweep results"))]
    if len(rows) < 2 or tuple(rows[0]) != RESULTS_COLUMNS or len(rows[1]) != len(RESULTS_COLUMNS):
        raise UserError(f"{path} is not a sweep results table")
    got = dict(zip(RESULTS_COLUMNS, rows[1]))

    def number(column, parse=float):
        try:
            return parse(got[column])
        except ValueError:
            raise UserError(f"{path}: column '{column}' holds {got[column]!r}, "
                            "not a number") from None

    return SweepSummary(
        hit_mean=number("Hit Mean"),
        hit_dev=number("Hit Dev"),
        ndcg_mean=number("NDCG Mean"),
        ndcg_dev=number("NDCG Dev"),
        runs=number("runs", int),
        ci=number("CI", lambda text: tuple(float(p) for p in text.strip("()").split(","))),
        ci_length=number("CI-length"),
    )


def save_run(result: TrainResult, run_dir: str, dataset: InteractionDataset) -> None:
    """Write a run's history.tsv and checkpoint.npz, trained on `dataset`, into `run_dir`."""
    write_history_tsv(result.history, os.path.join(run_dir, "history.tsv"))
    save_checkpoint(result.model, os.path.join(run_dir, "checkpoint.npz"), dataset)


def _run_seed(config: ModelConfig, dataset: InteractionDataset, seed: int,
              out_dir: str | None) -> tuple[float, float]:
    """The seed's test Hit@10 and NDCG."""
    result = train(replace(config, seed=seed), dataset)
    if out_dir is not None:
        save_run(result, os.path.join(out_dir, f"seed_{seed}"), dataset)
    return result.test_hit, result.test_ndcg


def _worker(args) -> dict:
    """One seed's ledger row, less the fingerprint.  Its status is "ok", with
    the `hit` and `ndcg`, or "failed" (diverged) or "error" (raised), with an
    `error` instead."""
    config, dataset, seed, out_dir = args
    row = {"seed": seed, "status": "ok"}
    try:
        row["hit"], row["ndcg"] = _run_seed(config, dataset, seed, out_dir)
    except TrainingDiverged as err:
        row.update(status="failed", error=str(err))
    except Exception as err:  # one seed's fault must not end the other seeds
        traceback.print_exc()
        row.update(status="error", error=f"{type(err).__name__}: {err}")
    return row


def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS that numpy links, or None.  A
    lookup in numpy's core extension also searches the libraries it loaded."""
    core = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    names = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
             "openblas_set_num_threads64_", "openblas_set_num_threads")
    return next((getattr(core, name) for name in names if hasattr(core, name)), None)


def _one_blas_thread() -> None:
    """Sweep worker initializer: one BLAS thread, so `jobs` workers share the cores."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def _read_ledger(path: str) -> list[dict]:
    """The ledger's rows; reading never changes the file.

    An unterminated last line that does not parse can only be an older
    version's append cut short: it is skipped with a warning, and the next
    rewrite drops it.  A complete unterminated row is read as it is.  A bad
    line anywhere else is corruption and raises.
    """
    if not os.path.exists(path):
        return []
    lines = read_input(path, "sweep ledger", binary=True).splitlines(keepends=True)
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
        except ValueError as err:
            if number == len(lines) and not line.endswith(b"\n"):
                warnings.warn(f"{path}: dropping torn last line {number}", RuntimeWarning)
                break
            raise UserError(f"{path} line {number} is not a ledger row ({err}); "
                            "repair or delete that line to resume") from None
        rows.append(row)
    return rows


def sweep(config: ModelConfig, dataset: InteractionDataset, seeds: list[int],
          jobs: int = 1, out_dir: str | None = None, progress=None) -> SweepSummary:
    """Train + evaluate one configuration per seed, then aggregate.

    Each seed's outcome is recorded in `out_dir`/runs.jsonl the moment it
    ends, whatever the order the `jobs` workers finish in: the ledger is
    rewritten as the rows read at the start, then this sweep's finished rows
    in the order of `seeds`, so once every seed ends it reads as a serial
    sweep's would.  Rerunning the sweep skips seeds already recorded under
    the same config/dataset fingerprint.  Diverged seeds stay in the ledger
    as failed and are excluded from the aggregate (`runs` counts
    successes), as are seeds whose run raised; those are recorded as
    "error" rows, listed in `errored`, and run again on resume.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise UserError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise UserError(f"sweep seeds must be distinct, got {seeds}")
    if jobs < 1:
        raise UserError("jobs must be >= 1")

    fingerprint = config_fingerprint(config, dataset)
    ledger_path = None if out_dir is None else os.path.join(out_dir, LEDGER_NAME)
    kept = _read_ledger(ledger_path) if ledger_path is not None else []
    done = {row["seed"]: row for row in kept
            if row.get("fingerprint") == fingerprint and row.get("seed") in seeds
            and row.get("status") != "error"}

    pending = [s for s in seeds if s not in done]
    for seed in pending if out_dir is not None else ():
        seed_dir = os.path.join(out_dir, f"seed_{seed}")  # _run_seed's run directory
        if os.path.exists(seed_dir) and not os.path.isdir(seed_dir):
            raise UserError(f"seed directory {seed_dir} exists and is not a directory")
    if progress and done:
        progress(f"resuming: {len(done)} of {len(seeds)} seeds already recorded")

    def record(row: dict) -> None:
        row["fingerprint"] = fingerprint
        done[row["seed"]] = row
        if ledger_path is not None:  # this sweep's rows follow `seeds`, not finishing order
            with atomic_write(ledger_path) as fh:
                for entry in kept + [done[s] for s in pending if s in done]:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
        if progress:
            progress(f"seed {row['seed']}: {row['status']}  " +
                     (f"Hit@10 {row['hit']:.2f}" if row["status"] == "ok" else row["error"]))

    tasks = [(config, dataset, seed, out_dir) for seed in pending]
    if jobs > 1 and len(tasks) > 1:
        if _blas_thread_setter() is None:
            warnings.warn("no OpenBLAS thread setter found: each sweep worker keeps the "
                          "BLAS library's own thread count", RuntimeWarning)
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_one_blas_thread) as pool:
            for future in as_completed([pool.submit(_worker, task) for task in tasks]):
                record(future.result())
    else:
        for task in tasks:
            record(_worker(task))

    failed = [s for s in seeds if done[s]["status"] != "ok"]
    if failed:
        warnings.warn(f"excluding {len(failed)} failed seed(s): {failed}", RuntimeWarning)
    if len(failed) == len(seeds):
        raise UserError(f"all {len(seeds)} sweep runs failed")
    summary = aggregate([done[s] for s in seeds],
                        [s for s in seeds if done[s]["status"] == "error"])
    if out_dir is not None:
        write_summary_tsv(summary, config, os.path.join(out_dir, RESULTS_NAME))
    return summary
