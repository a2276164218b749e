"""Whole-run equivalence against a committed reference.

Twenty-two short training runs -- all ten variants under each feed-forward
activation, one run with item attributes, and one RMHA4 run at clip
distance 2 -- are compared with `equivalence_reference.json`:

- every `history.tsv` value, within one unit of its last printed digit;
- a seeded random-projection sketch of every parameter, within a relative
  1e-9 of the parameter's scale;
- the test split's sampled and full-catalogue ranks, exactly.

A refactor that only changes rounding passes; one that changes what a
variant computes does not.  Regenerate the reference with

    PYTHONPATH=src python tests/test_equivalence.py --write

and say why in CHANGES.md; never rewrite it to make a defect pass.
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from posrec import synth
from posrec.data import leave_one_out
from posrec.encodings import VARIANTS, EncodingConfig
from posrec.metrics import evaluate
from posrec.model import TEST_EVAL_STREAM, ModelConfig, train, write_history_tsv
from posrec.numeric import Rng

REFERENCE = Path(__file__).with_name("equivalence_reference.json")
BASE = dict(d=16, g=32, blocks=2, heads=2, max_len=16, dropout=0.2, lr=5e-3, epochs=3,
            batch_size=16, seed=2, eval_negatives=10)
SKETCH_WIDTH = 4
SKETCH_RTOL = 1e-9
# history.tsv prints six decimals; a value may move by one unit of the last
HISTORY_ATOL = 1.0000001e-6


def _runs() -> dict[str, tuple[ModelConfig, bool]]:
    """Run name -> (config, whether the dataset carries item attributes)."""
    runs = {f"{variant}-{act}": (ModelConfig(encoding=variant, activation=act, **BASE), False)
            for variant in VARIANTS for act in ("leaky", "silu")}
    runs["LearntCon-leaky-attributes"] = (ModelConfig(encoding="LearntCon", **BASE), True)
    runs["RMHA4-leaky-clip2"] = (
        ModelConfig(encoding=EncodingConfig("RMHA4", clip_distance=2), **BASE), False)
    return runs


@functools.lru_cache(maxsize=2)
def _dataset(with_attributes: bool):
    ds = synth.build_dataset("positional", users=64, items=40, seq_len=20, seed=0)
    if with_attributes:
        ds.attributes = np.random.default_rng(7).normal(size=(ds.num_items, 3))
    return ds


def _projections(name: str, size: int) -> np.ndarray:
    """[size, SKETCH_WIDTH] fixed Gaussian vectors, seeded by the parameter name."""
    return np.random.default_rng(zlib.crc32(name.encode())).normal(size=(size, SKETCH_WIDTH))


def _observe(config: ModelConfig, with_attributes: bool) -> dict:
    """What the reference records of one run."""
    ds = _dataset(with_attributes)
    result = train(config, ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "history.tsv"
        write_history_tsv(result.history, str(path))
        history = path.read_text().splitlines()
    params = {name: node.values.reshape(-1) for name, node in result.model.parameters()}
    test_rows = leave_one_out(ds).test
    ranks = {
        kind: evaluate(result.model, test_rows, negatives,
                       Rng(config.seed).child(TEST_EVAL_STREAM)).per_user_ranks
        for kind, negatives in (("sampled", config.eval_negatives), ("full", 0))
    }
    sketch, scale = {}, {}
    for name, v in params.items():
        r = _projections(name, v.size)
        sketch[name] = (v @ r).tolist()
        # |v . r| <= |v| |r|: the largest a sketch entry can be
        scale[name] = (np.linalg.norm(v) * np.linalg.norm(r, axis=0)).tolist()
    return {
        "history": history,
        "sketch": sketch,
        "scale": scale,
        "ranks_sampled": ranks["sampled"],
        "ranks_full": ranks["full"],
    }


def _compare_history(got: list[str], want: list[str]) -> None:
    assert len(got) == len(want)
    assert got[0] == want[0]
    for got_line, want_line in zip(got[1:], want[1:]):
        g, w = got_line.split("\t"), want_line.split("\t")
        assert g[:2] == w[:2], (got_line, want_line)
        for a, b in zip(g[2:], w[2:]):
            if "NaN" in (a, b):
                assert a == b, (got_line, want_line)
            else:
                assert abs(float(a) - float(b)) <= HISTORY_ATOL, (got_line, want_line)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(_runs()))
def test_run_matches_reference(name, reference):
    config, with_attributes = _runs()[name]
    got, want = _observe(config, with_attributes), reference[name]
    _compare_history(got["history"], want["history"])
    assert sorted(got["sketch"]) == sorted(want["sketch"])
    for param, sketch in want["sketch"].items():
        bound = SKETCH_RTOL * np.asarray(want["scale"][param])
        assert np.all(np.abs(np.asarray(got["sketch"][param]) - sketch) <= bound), param
    assert got["ranks_sampled"] == want["ranks_sampled"]
    assert got["ranks_full"] == want["ranks_full"]


def _write() -> None:
    observed = {name: _observe(config, attrs) for name, (config, attrs) in sorted(_runs().items())}
    lines = [f"{json.dumps(name)}: {json.dumps(run, sort_keys=True)}" for name, run in observed.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one run per line
    print(f"wrote {len(observed)} runs to {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py --write")
    _write()
