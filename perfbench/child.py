"""One workload in one fresh interpreter; run by run.py, not by hand.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1
        --size full|smoke --phase setup|run --workdir DIR

`--phase setup` imports posrec, builds the workload's inputs and prints the
CPU seconds this interpreter took to get there.  `--phase run` then also repeats the
timed call for `--seconds` (at least twice), checks every output, and prints
one JSON line of raw measurements.  With `--trace 1` it alternates untraced
and traced calls, so one run gives both the layer spans and their overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

MIN_CALLS = 2  # the repetition checks need a second call
REFERENCES = os.path.join(HERE, "references.json")


def blas_info() -> dict:
    """BLAS vendor and version as numpy was built, threads as loaded now."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import posrec  # noqa: F401  (fail here, loudly, when the sources are missing)
    if not os.path.abspath(posrec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"posrec imported from {posrec.__file__}, not from {SRC}")
    import tracing
    import workloads

    tracer = tracing.Tracer(args.workdir) if args.trace else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](size, args.seed, args.workdir, span)
    setup_cpu_s = workloads.cpu_seconds()  # since this interpreter started
    if tracer is not None:
        tracer.uninstall()
    if args.phase == "setup":
        print(json.dumps({"setup_cpu_s": setup_cpu_s}))
        return 0

    with open(REFERENCES) as fh:
        reference = json.load(fh).get(f"{args.size}/{args.workload}/{args.seed}")

    times, cpu_times, untraced, traced, traced_wall, call_ids = [], [], [], [], [], []
    attempted = failed = 0
    failures: list[str] = []
    first_outputs = None
    start = time.perf_counter()
    index = 0
    while index < MIN_CALLS * (1 + args.trace) or time.perf_counter() - start < args.seconds:
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.run_id = f"call{index}"
            tracer.install()
        attempted += 1
        try:
            wall, cpu, outputs = workload.call(index, tracer.counts if trace_this else None)
        except Exception as err:  # a failed call ends the run: repeating it proves nothing
            failed += 1
            failures.append(f"call {index}: {type(err).__name__}: {err}")
            break
        finally:
            if trace_this:
                tracer.uninstall()
        problems = workload.check(outputs, reference)
        if problems:
            failed += 1
            failures += [f"call {index}: {p}" for p in problems]
        if first_outputs is None:
            first_outputs = workload.reference_view(outputs)
        times.append(wall)
        cpu_times.append(cpu)
        if tracer is not None:
            (traced if trace_this else untraced).append(cpu)
            if trace_this:
                traced_wall.append(wall)
                call_ids.append(tracer.run_id)
        index += 1

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_cpu_s": setup_cpu_s,
        "times": times,
        "cpu_times": cpu_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "reference_checked": reference is not None,
        "outputs": first_outputs,
        # a pool's workers run side by side: count each at the largest one's peak
        "peak_rss_mb": (self_kb + workload.jobs * child_kb) / 1024.0,
        "env": blas_info(),
    }
    if hasattr(workload, "users"):
        result["users"] = workload.users
    if tracer is not None and traced and untraced:
        tracer.collect_spool()
        result["layers"] = tracing.layer_metrics(tracer, call_ids, ["setup"], workload.jobs,
                                                 traced_wall, traced, untraced)
        result["span_table"] = tracing.span_table(tracer.spans, call_ids)
        result["trace"] = {
            "traced_cpu_s": statistics.median(traced),
            "untraced_cpu_s": statistics.median(untraced),
            "traced_calls": len(traced),
            "worker_processes": len(tracer.worker_pids),
            "jobs": workload.jobs,
        }
        tracer.write(os.path.join(args.workdir, "spans.jsonl"), ["setup", call_ids[0]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
