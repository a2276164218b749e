"""posrec benchmark: the workloads named in BENCHMARK.json.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root.  Each workload runs in fresh interpreters:
several set-up-only processes time the set-up, then one process repeats the
workload's timed call for `--seconds` (default: BENCHMARK.json's
`run_seconds`, or 1 with `--smoke`) and checks every output.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics untraced, the per-layer metrics with
`--trace 1`).  The exit code is non-zero when a check fails or a workload
cannot run.  `--smoke` runs tiny inputs for a few seconds, every check
included, to test the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
DEFAULT_SEED = 0  # references.json holds this seed's outputs
# one BLAS thread per process keeps workers x threads <= nproc for the 2-worker
# sweep on 2 cores, and keeps idle BLAS threads' spinning out of the CPU times
BLAS_THREADS = 1
SETUP_SAMPLES = {"full": 9, "smoke": 2}  # set-ups timed per run, the run's own included
CHILD_TIMEOUT_S = 150

END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER_UNITS = {".s": "s", ".calls": "count", "_ratio": "ratio", "_share": "ratio"}


class WorkloadError(Exception):
    """The workload process failed before it could report measurements."""


def _spawn(args: list[str], env: dict) -> dict:
    """Run one child in its own process group and return its JSON line."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadError(f"workload process timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        try:  # sweep pool workers belong to the child's group; leave none behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkloadError(f"workload process exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkloadError(f"workload process printed nothing:\n{err.strip()}")
    return json.loads(lines[-1])


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": _nproc(), "cpu": cpu, "git_commit": commit,
            "blas_threads_requested": BLAS_THREADS}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Set-up probes, then the measured run; returns everything measured."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--workdir", workdir]
    setup_s = []
    try:
        for _ in range(SETUP_SAMPLES[size] - 1 if not trace else 0):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            setup_s.append(_spawn(base + ["--phase", "setup"], env)["setup_cpu_s"])
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        result = _spawn(base + ["--phase", "run"], env)
        setup_s.append(result["setup_cpu_s"])
        if trace and os.path.exists(os.path.join(workdir, "spans.jsonl")):
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            result["spans_file"] = os.path.join(WORK, "traces", f"{name}-seed{seed}.jsonl")
            shutil.move(os.path.join(workdir, "spans.jsonl"), result["spans_file"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples"] = setup_s
    result["env"].update(environment(name, seed))
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {key: {"value": value, "unit": _layer_unit(key)}
                for key, value in result["layers"].items()}
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "call_cpu_s": statistics.median(result["cpu_times"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}


def _layer_unit(key: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if key.endswith(suffix):
            return unit
    return "count"


def extra_metrics(name: str, result: dict) -> list[tuple[str, float, str]]:
    """The call's wall time, also under the workload's own name, and the
    failed share; printed and kept in the baseline, not gated."""
    wall = statistics.median(result["times"])
    rows = [("call_s", wall, "s")]
    if name == "demo-sweep":
        rows.append(("sweep_s", wall, "s"))
    elif name == "games-train":
        rows.append(("train_s", wall, "s"))
    else:
        mode = name.rsplit("-", 1)[1]
        rows.append((f"eval_{mode}_users_per_s", result["users"] / wall, "users/s"))
    rows.append(("ops_failed_share", result["failed"] / result["attempted"], "ratio"))
    return rows


def report(name: str, result: dict, trace: int) -> None:
    print(f"== {name}  ({len(result['times'])} timed calls, "
          f"{len(result['setup_samples'])} set-up samples; reference values "
          f"{'checked' if result['reference_checked'] else 'not recorded for this seed'})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if not trace:
        rows = [(k, v["value"], v["unit"]) for k, v in metrics_of(result, 0).items()]
        for key, value, unit in rows + extra_metrics(name, result):
            print(f"  {key:<28} {value:12.4f} {unit}")
    else:
        t = result["trace"]
        if t["worker_processes"]:
            where = f"gathered from {t['worker_processes']} worker processes"
        elif t["jobs"]:  # workers not forked from this process inherit no wrappers
            where = "missing: the pool's workers were not forked"
        else:
            where = "recorded in-process (no worker pool)"
        print(f"  traced call {t['traced_cpu_s']:.4f} CPU s, untraced {t['untraced_cpu_s']:.4f} CPU s "
              f"(overhead {t['traced_cpu_s'] - t['untraced_cpu_s']:+.4f} s, medians over "
              f"{t['traced_calls']} traced calls); worker spans {where}")
        print(f"  {'span (per timed call)':<36} {'calls':>9} {'self s':>10} {'total s':>10}")
        rows = sorted(result["span_table"].items(), key=lambda kv: -kv[1]["self_s"])
        n = t["traced_calls"]
        for span, row in rows:
            print(f"  {span:<36} {row['calls'] / n:9.1f} {row['self_s'] / n:10.4f} "
                  f"{row['total_s'] / n:10.4f}")
        print(f"  {'layer metric':<36} {'value':>12}")
        for key, value in result["layers"].items():
            print(f"  {key:<36} {value:12.6g} {_layer_unit(key)}")
        if result.get("spans_file"):
            print(f"  spans of the set-up and first traced call: "
                  f"{os.path.relpath(result['spans_file'], ROOT)}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default BENCHMARK.json's run_seconds, "
                         "or 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every check")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "posrec", "__init__.py")):
        print(f"posrec sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else SPEC["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, size)
        except WorkloadError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 2
        if not result["times"] or (args.trace and "layers" not in result):
            for failure in result["failures"]:
                print(f"{name}: {failure}", file=sys.stderr)
            print(f"{name}: no timed call completed", file=sys.stderr)
            return 1
        report(name, result, args.trace)
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        got = metrics_of(result, args.trace)
        if len(names) > 1:
            got = {f"{name}.{key}": value for key, value in got.items()}
        summary["metrics"].update(got)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
