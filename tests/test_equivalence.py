"""Whole-run equivalence against a committed reference.

Twenty-three short training runs -- all ten variants under each
feed-forward activation, one run with item attributes, one RMHA4 run at clip
distance 2, and one RMHA4 run that trains and ranks in row blocks of 5 rows
rather than in one block -- are compared with `equivalence_reference.json`:

- every `history.tsv` value, within one unit of its last printed digit;
- a seeded random-projection sketch of every parameter, and one of
  `Model.final_hidden` at fixed contexts, within a relative 1e-9 of the
  sketched array's scale; a block's key bias that RoPE does not rotate
  gets no gradient, so instead of its sketch, its scale must stay within
  1e-9 on both sides, which says that it stays zero;
- the test split's sampled and full-catalogue ranks, exactly.

A refactor that only changes rounding passes; one that changes what a
variant computes does not.  Regenerate the reference with

    PYTHONPATH=src python tests/test_equivalence.py --write

and say why in CHANGES.md; never rewrite it to make a defect pass.

    PYTHONPATH=src python tests/test_equivalence.py --against <rev>

compares the working tree's `src/` with that of git revision <rev> instead:
it observes every run under each tree in a subprocess and prints, per run,
whether the two are bit-identical, within the tolerances above, or differ,
naming the first field that differs (for a changed parameter set, the first
parameter only the working tree has, as +name, or only <rev> has, as -name).
It then prints each tree's lines of Python under `src/`, counted as
`find src -name '*.py' | xargs cat | wc -l` counts them.
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import tarfile
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
# q . b_key adds one amount to every score of a query row, which the softmax
# ignores, so unless RoPE rotates the keys, b_key gets no gradient and Adam
# leaves it at rounding noise (scale 7e-13 to 8e-12 in the reference)
FROZEN_SCALE = 1e-9
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


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def _history_within(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want) or got[0] != want[0]:
        return False
    for got_line, want_line in zip(got[1:], want[1:]):
        g, w = got_line.split("\t"), want_line.split("\t")
        if g[:2] != w[:2]:
            return False
        for a, b in zip(g[2:], w[2:]):
            if a != b and ("NaN" in (a, b) or abs(float(a) - float(b)) > HISTORY_ATOL):
                return False
    return True


def _sketch_within(got: list, want: list, want_scale: list) -> bool:
    bound = SKETCH_RTOL * np.asarray(want_scale)
    return bool(np.all(np.abs(np.asarray(got) - want) <= bound))


def _frozen(config: ModelConfig, param: str) -> bool:
    """Whether `param` is a block's key bias that RoPE does not rotate."""
    return any(param == f"block{i}.b_key" and not config.encoding.rope_active(i)
               for i in range(config.blocks))


def _first_difference(name: str, got: dict, want: dict) -> str | None:
    """The first field of run `name`'s observation outside the tolerances, or None."""
    if not _history_within(got["history"], want["history"]):
        return "history"
    for sign, mine, other in (("+", got, want), ("-", want, got)):
        only = [param for param in mine["sketch"] if param not in other["sketch"]]
        if only:
            return f"parameter names ({sign}{only[0]})"
    config = _runs()[name][0]
    for param, sketch in want["sketch"].items():
        if _frozen(config, param):
            if max(got["scale"][param] + want["scale"][param]) > FROZEN_SCALE:
                return param
        elif not _sketch_within(got["sketch"][param], sketch, want["scale"][param]):
            return param
    if not _sketch_within(got["hidden_sketch"], want["hidden_sketch"], want["hidden_scale"]):
        return "final_hidden"
    for field in ("ranks_sampled", "ranks_full"):
        if got[field] != want[field]:
            return field
    return None


@pytest.mark.parametrize("name", sorted(_runs()))
def test_run_matches_reference(name, reference, monkeypatch):
    got, want = _observe(name, monkeypatch), reference[name]
    field = _first_difference(name, got, want)
    assert field is None, f"{field} differs from the reference"


def _with(run: dict, field: str, param: str, value) -> dict:
    return {**run, field: {**run[field], param: value}}


def test_key_biases_without_gradient_are_checked_to_stay_zero(reference):
    want = reference["None-leaky"]
    moved = [2.0 * x for x in want["sketch"]["block0.b_key"]]  # rounding noise moves freely
    assert _first_difference("None-leaky", _with(want, "sketch", "block0.b_key", moved),
                             want) is None
    grown = _with(want, "scale", "block0.b_key", [1e-6] * SKETCH_WIDTH)
    assert _first_difference("None-leaky", grown, want) == "block0.b_key"
    want = reference["RopeOne-leaky"]  # block 0's keys are rotated, block 1's are not
    moved = [x + 1e-6 for x in want["sketch"]["block0.b_key"]]
    assert _first_difference("RopeOne-leaky", _with(want, "sketch", "block0.b_key", moved),
                             want) == "block0.b_key"


def test_a_changed_parameter_set_names_a_parameter_on_one_side_only(reference):
    want = reference["RMHA4-leaky"]
    got = {**want, "sketch": {k: v for k, v in want["sketch"].items() if k != "rel_value_table"}}
    assert _first_difference("RMHA4-leaky", got, want) == "parameter names (-rel_value_table)"
    assert _first_difference("RMHA4-leaky", want, got) == "parameter names (+rel_value_table)"


def _observe_all() -> dict:
    observed = {}
    for name in sorted(_runs()):
        with pytest.MonkeyPatch.context() as monkeypatch:
            observed[name] = _observe(name, monkeypatch)
    return observed


def _write() -> None:
    observed = _observe_all()
    lines = [f"{json.dumps(name)}: {json.dumps(run, sort_keys=True)}" for name, run in observed.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one run per line
    print(f"wrote {len(observed)} runs to {REFERENCE}")


def _src_lines(src: Path) -> int:
    """The newlines in the .py files under `src`, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def _against(rev: str) -> int:
    """Print how each run under revision `rev`'s src/ compares with the
    working tree's; 1 if any run differs."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {rev: Path(tmp) / "src", "working tree": root / "src"}
        lines = {label: _src_lines(src) for label, src in trees.items()}
        children = {  # both trees at once, one process each
            label: subprocess.Popen(
                [sys.executable, __file__, "--observe"], stdout=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
            for label, src in trees.items()
        }
        outputs = {label: child.communicate()[0] for label, child in children.items()}
        observed = {}
        for label, out in outputs.items():
            if children[label].returncode:
                sys.exit(f"observing the runs under {label} failed")
            got = json.loads(out)
            if not got["posrec"].startswith(str(trees[label])):
                sys.exit(f"{label}: posrec was imported from {got['posrec']}")
            observed[label] = got["runs"]
    width = max(map(len, observed[rev]))
    print(f"{'run':<{width}}  {rev} -> working tree")
    differ = 0
    for name, want in observed[rev].items():
        got = observed["working tree"][name]
        field = _first_difference(name, got, want)
        if got == want:
            verdict = "bit-identical"
        elif field is None:
            verdict = "within tolerances"
        else:
            verdict, differ = f"differs: {field}", differ + 1
        print(f"{name:<{width}}  {verdict}")
    print(f"src/ lines: {rev} {lines[rev]}, working tree {lines['working tree']} "
          f"({lines['working tree'] - lines[rev]:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--observe"]:  # one tree's side of --against
        import posrec
        json.dump({"posrec": posrec.__file__, "runs": _observe_all()}, sys.stdout)
    elif len(sys.argv) == 3 and sys.argv[1] == "--against":
        sys.exit(_against(sys.argv[2]))
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py --write | --against <rev>")
