"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out FILE.json] [--layers FILE.md]
    python3 perfbench/baseline.py --references

Runs every workload once per seed (seeds outer, workloads inner, so
slow drift of the machine spreads over all workloads), then prints, per
workload and end-to-end metric, the median, quartiles, sample count and the
quartile spread as a share of the median next to a third of the metric's
bound from BENCHMARK.json.  `--out` writes that summary as JSON; `--layers`
also makes one traced run per workload and writes its per-layer table.
`--references` instead rewrites references.json from seed-0 runs at both
sizes; do that only when a change is meant to alter posrec's results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys

import run


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def write_references() -> int:
    seed = run.DEFAULT_SEED
    path = os.path.join(run.HERE, "references.json")
    with open(path) as fh:
        references = json.load(fh)
    keys = {(size, name): f"{size}/{name}/{seed}" for size in ("full", "smoke") for name in run.WORKLOADS}
    for key in keys.values():  # the runs below must not check against the old values
        references.pop(key, None)
    _write_json(path, references)
    for (size, name), key in keys.items():
        result = run.run_workload(name, seed, 0, 0, size)
        if result["failed"]:
            print(f"{key}: {result['failures']}", file=sys.stderr)
            return 1
        references[key] = result["outputs"]
    _write_json(path, references)
    return 0


def _write_json(path: str, value) -> None:
    with open(path, "w") as fh:
        json.dump(value, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--layers")
    ap.add_argument("--references", action="store_true")
    args = ap.parse_args()
    if args.references:
        return write_references()
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    seconds = run.SPEC["run_seconds"]

    samples = {w: {} for w in run.WORKLOADS}
    envs = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in run.WORKLOADS:
            result = run.run_workload(name, seed, seconds, 0, "full")
            failed += result["failed"]
            envs[name] = {k: v for k, v in result["env"].items() if k != "seed"}
            rows = [(k, v["value"], v["unit"]) for k, v in run.metrics_of(result, 0).items()]
            rows += run.extra_metrics(name, result)
            for key, value, unit in rows:
                samples[name].setdefault(key, {"unit": unit, "values": []})["values"].append(value)
            print(f"seed {seed} {name}: " + "  ".join(f"{k}={v:.4g}" for k, v, _ in rows), flush=True)

    summary = {"run_seconds": seconds, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "failed_calls": failed, "workloads": {}}
    print(f"\n{'workload':<12} {'metric':<26} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} "
          f"{'spread':>7} {'bound/3':>7}")
    for name, metrics in samples.items():
        summary["workloads"][name] = {"env": envs[name], "metrics": {}}
        for key, got in metrics.items():
            stats = summarise(got["values"])
            stats["unit"] = got["unit"]
            summary["workloads"][name]["metrics"][key] = stats
            third = f"{bounds[key] / 3:7.3f}" if key in bounds else ""
            print(f"{name:<12} {key:<26} {stats['median']:10.4f} {stats['q1']:10.4f} "
                  f"{stats['q3']:10.4f} {stats['n']:3d} {stats['spread']:7.3f} {third}")
    if args.out:
        _write_json(args.out, summary)
    if args.layers:
        with open(args.layers, "w") as fh:
            fh.write(f"# Traced per-layer tables\n\nOne `--trace 1` run per workload, seed "
                     f"{run.DEFAULT_SEED}; times are seconds per timed call, summed over processes.\n")
            for name in run.WORKLOADS:
                result = run.run_workload(name, run.DEFAULT_SEED, seconds, 1, "full")
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    run.report(name, result, 1)
                fh.write(f"\n```\n{text.getvalue()}```\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
