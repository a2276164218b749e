"""Whole-run equivalence against a committed reference.

Twenty-three short training runs -- all ten variants under each
feed-forward activation, one run with item attributes, one RMHA4 run at clip
distance 2, and one RMHA4 run that trains and ranks in row blocks of 5 rows
rather than in one block -- are compared with `equivalence_reference.json`:

- every `history.tsv` value, within one unit of its last printed digit;
- a seeded random-projection sketch of every parameter, and one of
  `Model.final_hidden` at fixed contexts, within a relative 1e-9 of the
  sketched array's scale;
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

from posrec import model as model_module
from posrec import synth
from posrec.data import leave_one_out
from posrec.encodings import VARIANTS, EncodingConfig
from posrec.metrics import evaluate
from posrec.model import TEST_EVAL_STREAM, ModelConfig, block_rows, train, write_history_tsv
from posrec.numeric import Rng

REFERENCE = Path(__file__).with_name("equivalence_reference.json")
BASE = dict(d=16, g=32, blocks=2, heads=2, max_len=16, dropout=0.2, lr=5e-3, epochs=3,
            batch_size=16, seed=2, eval_negatives=10)
SKETCH_WIDTH = 4
SKETCH_RTOL = 1e-9
# history.tsv prints six decimals; a value may move by one unit of the last
HISTORY_ATOL = 1.0000001e-6
# final_hidden is sketched at one context of each length, over max_len 16
CONTEXT_LENGTHS = (1, 2, 5, 9, 15, 16, 17, 20)


def _runs() -> dict[str, tuple[ModelConfig, bool, int | None]]:
    """Run name -> (config, whether the dataset carries item attributes,
    rows per block, or None for block_rows' own, which fits a whole batch)."""
    runs = {f"{variant}-{act}": (ModelConfig(encoding=variant, activation=act, **BASE), False, None)
            for variant in VARIANTS for act in ("leaky", "silu")}
    runs["LearntCon-leaky-attributes"] = (ModelConfig(encoding="LearntCon", **BASE), True, None)
    runs["RMHA4-leaky-clip2"] = (
        ModelConfig(encoding=EncodingConfig("RMHA4", clip_distance=2), **BASE), False, None)
    runs["RMHA4-leaky-blocks5"] = (ModelConfig(encoding="RMHA4", **BASE), False, 5)
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


def _contexts(num_items: int) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    return [rng.integers(0, num_items, n) for n in CONTEXT_LENGTHS]


def _sketch(name: str, v: np.ndarray) -> tuple[list, list]:
    """The projections of a flat array, and the largest each can be."""
    r = _projections(name, v.size)
    # |v . r| <= |v| |r|
    return (v @ r).tolist(), (np.linalg.norm(v) * np.linalg.norm(r, axis=0)).tolist()


def _observe(name: str, monkeypatch: pytest.MonkeyPatch) -> dict:
    """What the reference records of one run."""
    config, with_attributes, rows = _runs()[name]
    if rows is not None:
        # block_rows divides by one row's widest activation, here [max_len, g]
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", rows * 8 * config.max_len * config.g)
        assert block_rows(config) == rows < config.batch_size
    ds = _dataset(with_attributes)
    result = train(config, ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "history.tsv"
        write_history_tsv(result.history, str(path))
        history = path.read_text().splitlines()
    params = {param: node.values.reshape(-1) for param, node in result.model.parameters()}
    test_rows = leave_one_out(ds).test
    ranks = {
        kind: evaluate(result.model, test_rows, negatives,
                       Rng(config.seed).child(TEST_EVAL_STREAM)).per_user_ranks
        for kind, negatives in (("sampled", config.eval_negatives), ("full", 0))
    }
    sketch, scale = {}, {}
    for param, v in params.items():
        sketch[param], scale[param] = _sketch(param, v)
    hidden = result.model.final_hidden(_contexts(ds.num_items)).reshape(-1)
    hidden_sketch, hidden_scale = _sketch("final_hidden", hidden)
    return {
        "history": history,
        "sketch": sketch,
        "scale": scale,
        "hidden_sketch": hidden_sketch,
        "hidden_scale": hidden_scale,
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


def _compare_sketch(got: list, want: list, want_scale: list, label: str) -> None:
    bound = SKETCH_RTOL * np.asarray(want_scale)
    assert np.all(np.abs(np.asarray(got) - want) <= bound), label


@pytest.mark.parametrize("name", sorted(_runs()))
def test_run_matches_reference(name, reference, monkeypatch):
    got, want = _observe(name, monkeypatch), reference[name]
    _compare_history(got["history"], want["history"])
    assert sorted(got["sketch"]) == sorted(want["sketch"])
    for param, sketch in want["sketch"].items():
        _compare_sketch(got["sketch"][param], sketch, want["scale"][param], param)
    _compare_sketch(got["hidden_sketch"], want["hidden_sketch"], want["hidden_scale"], "final_hidden")
    assert got["ranks_sampled"] == want["ranks_sampled"]
    assert got["ranks_full"] == want["ranks_full"]


def _write() -> None:
    observed = {}
    for name in sorted(_runs()):
        with pytest.MonkeyPatch.context() as monkeypatch:
            observed[name] = _observe(name, monkeypatch)
    lines = [f"{json.dumps(name)}: {json.dumps(run, sort_keys=True)}" for name, run in observed.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one run per line
    print(f"wrote {len(observed)} runs to {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py --write")
    _write()
