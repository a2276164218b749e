"""The harness itself: every workload at smoke size, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
                          cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(trace):
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in (w["name"] for w in spec["workloads"]):
        got = _bench("--workload", workload, "--seed", "0", "--trace", str(trace))
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 2
        assert sorted(got["metrics"]) == sorted(m["name"] for m in wanted)
        for metric in wanted:
            assert got["metrics"][metric["name"]]["unit"] == metric["unit"]
