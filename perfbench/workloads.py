"""The benchmark workloads: inputs from a seed, one timed call, checks.

Each workload generates its log and config in-process from the benchmark
seed; posrec only ever sees those.  `call()` runs one timed call and returns
its wall and CPU time plus the outputs the checks read.  Every posrec callable is
looked up through its module at call time, so an installed tracer sees it.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import shutil
import time

import numpy as np

from posrec import data, metrics, model, stability, synth
from posrec.data import InteractionDataset
from posrec.model import ModelConfig
from posrec.numeric import Rng
from posrec.presets import get_preset

GAMES_ITEMS = 5000

SIZES = {
    "full": {
        "demo-sweep": {"users": 200, "items": 150, "seq_len": 49, "epochs": 5},
        "games-train": {"users": 128, "items": GAMES_ITEMS, "seq_len": 50},
        "games-eval-sampled": {"users": 256, "items": GAMES_ITEMS, "seq_len": 50},
        "games-eval-full": {"users": 256, "items": GAMES_ITEMS, "seq_len": 50},
    },
    "smoke": {
        "demo-sweep": {"users": 24, "items": 40, "seq_len": 12, "epochs": 2},
        "games-train": {"users": 16, "items": 300, "seq_len": 12},
        "games-eval-sampled": {"users": 16, "items": 300, "seq_len": 12},
        "games-eval-full": {"users": 16, "items": 300, "seq_len": 12},
    },
}

# reference tolerances: loose enough for the floating-point rounding an
# equivalent rewrite may change, tight enough to catch a changed result
LOSS_RTOL = 1e-6
PERCENT_ATOL = 1.0  # Hit@10 / NDCG on the x100 scale
MEAN_RANK_RTOL = 0.01


def _games_dataset(size: dict, seed: int) -> InteractionDataset:
    """A positional log over the whole catalogue the generator draws from.

    Item ids are the generator's own, so the catalogue keeps its full size
    however few users are drawn (re-indexing would drop unseen items).
    """
    seqs = synth.generate_sequences("positional", size["users"], size["items"],
                                    size["seq_len"], seed)
    return InteractionDataset(
        sequences=seqs,
        times=[np.arange(s.size, dtype=np.float64) for s in seqs],
        num_items=size["items"],
        user_ids=[str(u) for u in range(len(seqs))],
        item_ids=[str(i) for i in range(size["items"])],
        source=f"synth:positional:{seed}",
    )


class Clock:
    """Wall and CPU seconds of a block.

    CPU time counts this process plus the children it reaped meanwhile (a
    sweep's pool workers).  It leaves out time the hypervisor gave our vCPU
    to another guest, which wall time includes.
    """

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = cpu_seconds() - self._cpu


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _close(got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


class DemoSweep:
    """README demo config (RMHA4, d=24) swept over 2 seeds with a 2-worker pool."""

    jobs = 2

    def __init__(self, size: dict, seed: int, workdir: str, span):
        self.workdir = workdir
        self.span = span
        self.seeds = [seed, seed + 1]
        path = os.path.join(workdir, "demo.tsv")
        synth.write_dataset("positional", size["users"], size["items"], size["seq_len"], seed, path)
        self.dataset = data.load_interactions(path)
        self.config = ModelConfig(d=24, g=48, blocks=1, heads=2, max_len=48, encoding="RMHA4",
                                  lr=5e-3, epochs=size["epochs"], batch_size=16)
        self.first = None

    def call(self, index: int, counts) -> tuple[float, float, dict]:
        out = os.path.join(self.workdir, f"sweep{index}")
        with Clock() as clock:
            summary = stability.sweep(self.config, self.dataset, self.seeds, jobs=self.jobs, out_dir=out)
        ledger = os.path.join(out, stability.LEDGER_NAME)
        rows_before = _count_lines(ledger)
        with self.span("stability.resume"):
            resumed = stability.sweep(self.config, self.dataset, self.seeds, jobs=self.jobs, out_dir=out)
        rows_after = _count_lines(ledger)
        if counts is not None:
            counts["ledger_rows"] += rows_after
        with open(os.path.join(out, stability.RESULTS_NAME)) as fh:
            results_row = fh.read().splitlines()[1].split("\t")
        histories = {}
        for s in self.seeds:
            with open(os.path.join(out, f"seed_{s}", "history.tsv"), "rb") as fh:
                histories[s] = fh.read()
        shutil.rmtree(out)
        outputs = {
            "results_row": results_row,
            "histories": histories,
            "resume_added_rows": rows_after - rows_before,
            "resume_same": (resumed.hit_mean, resumed.ndcg_mean, resumed.runs)
                           == (summary.hit_mean, summary.ndcg_mean, summary.runs),
            "runs": summary.runs,
        }
        return clock.wall, clock.cpu, outputs

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if outputs["runs"] != len(self.seeds):
            problems.append(f"{len(self.seeds) - outputs['runs']} sweep seed(s) failed")
        if outputs["resume_added_rows"] != 0:
            problems.append(f"resume added {outputs['resume_added_rows']} ledger rows")
        if not outputs["resume_same"]:
            problems.append("resume summary differs from the sweep summary")
        for s, text in outputs["histories"].items():
            if not _history_losses_finite(text.decode()):
                problems.append(f"seed {s}: non-finite loss in history.tsv")
        if self.first is None:
            self.first = outputs
        else:
            for s, text in outputs["histories"].items():
                if text != self.first["histories"][s]:
                    problems.append(f"seed {s}: history.tsv differs from the first repetition")
            if outputs["results_row"] != self.first["results_row"]:
                problems.append("results.tsv row differs from the first repetition")
        if reference is not None:
            problems += _check_results_row(outputs["results_row"], reference["results_row"])
        return problems

    @staticmethod
    def reference_view(outputs: dict) -> dict:
        return {"results_row": outputs["results_row"]}


class GamesTrain:
    """One epoch of the games preset with RMHA4 on a 5000-item positional log."""

    jobs = 0

    def __init__(self, size: dict, seed: int, workdir: str, span):
        self.dataset = _games_dataset(size, seed)
        preset = get_preset("games")
        preset.update(epochs=1, seed=seed)
        self.config = ModelConfig(**preset, encoding="RMHA4")
        self.first = None

    def call(self, index: int, counts) -> tuple[float, float, dict]:
        with Clock() as clock:
            result = model.train(self.config, self.dataset)
        history = [(r.epoch, r.split, r.loss, r.hit, r.ndcg) for r in result.history]
        train_losses = [r.loss for r in result.history if r.split == "train"]
        outputs = {
            "history": history,
            "train_loss": train_losses[-1],
            "test_hit": result.test_hit,
            "test_ndcg": result.test_ndcg,
        }
        return clock.wall, clock.cpu, outputs

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if not all(math.isfinite(r[2]) for r in outputs["history"] if r[1] == "train"):
            problems.append("non-finite training loss")
        if self.first is None:
            self.first = outputs
        elif repr(outputs["history"]) != repr(self.first["history"]):
            problems.append("training history differs from the first repetition")
        if reference is not None:
            if not _close(outputs["train_loss"], reference["train_loss"], rtol=LOSS_RTOL):
                problems.append(f"train loss {outputs['train_loss']!r} != reference {reference['train_loss']!r}")
            for key in ("test_hit", "test_ndcg"):
                if not _close(outputs[key], reference[key], atol=PERCENT_ATOL):
                    problems.append(f"{key} {outputs[key]:.4f} != reference {reference[key]:.4f}")
        return problems

    @staticmethod
    def reference_view(outputs: dict) -> dict:
        return {k: outputs[k] for k in ("train_loss", "test_hit", "test_ndcg")}


class GamesEval:
    """An untrained RotatoryCon model at the games shape, ranked one way.

    Each mode is its own workload, so that a slowdown of one mode is not
    diluted by the other.  The first call also ranks once the other way,
    untimed, to check every user's whole-catalogue rank against their
    sampled rank.
    """

    jobs = 0
    sampled_negatives = 100

    def __init__(self, mode: str, size: dict, seed: int, workdir: str, span):
        dataset = _games_dataset(size, seed)
        self.rows = data.leave_one_out(dataset).test
        preset = get_preset("games")
        preset.update(seed=seed)
        self.model = model.Model(dataset.num_items, ModelConfig(**preset, encoding="RotatoryCon"),
                                 Rng(seed))
        self.seed = seed
        self.mode = mode
        self.users = len(self.rows)
        self.first = None
        self.other_ranks = None

    def _evaluate(self, mode: str) -> dict:
        negatives = self.sampled_negatives if mode == "sampled" else 0
        result = metrics.evaluate(self.model, self.rows, negatives, Rng(self.seed, 5))
        return {
            "hit": 100.0 * result.hit_at_10,
            "ndcg": 100.0 * result.ndcg,
            "candidate_count": result.candidate_count,
            "mean_rank": float(np.mean(result.per_user_ranks)),
            "ranks": result.per_user_ranks,
        }

    def call(self, index: int, counts) -> tuple[float, float, dict]:
        with Clock() as clock:
            outputs = self._evaluate(self.mode)
        if self.other_ranks is None:
            self.other_ranks = self._evaluate("full" if self.mode == "sampled" else "sampled")["ranks"]
        return clock.wall, clock.cpu, outputs

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        problems = []
        if self.mode == "sampled":
            sampled, full = outputs["ranks"], self.other_ranks
        else:
            sampled, full = self.other_ranks, outputs["ranks"]
        worse = sum(f < s for f, s in zip(full, sampled))
        if worse:
            problems.append(f"{worse} user(s) rank better against the whole catalogue than against a sample")
        if self.mode == "sampled" and outputs["candidate_count"] != self.sampled_negatives + 1:
            problems.append(f"sampled candidate_count {outputs['candidate_count']}")
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            problems.append("evaluation differs from the first repetition")
        if reference is not None:
            for key in ("hit", "ndcg"):
                if not _close(outputs[key], reference[key], atol=PERCENT_ATOL):
                    problems.append(f"{key} {outputs[key]:.4f} != reference {reference[key]:.4f}")
            if not _close(outputs["mean_rank"], reference["mean_rank"], rtol=MEAN_RANK_RTOL):
                problems.append(f"mean rank {outputs['mean_rank']:.2f} "
                                f"!= reference {reference['mean_rank']:.2f}")
            if outputs["candidate_count"] != reference["candidate_count"]:
                problems.append(f"candidate_count {outputs['candidate_count']} "
                                f"!= reference {reference['candidate_count']}")
        return problems

    @staticmethod
    def reference_view(outputs: dict) -> dict:
        return {k: outputs[k] for k in ("hit", "ndcg", "candidate_count", "mean_rank")}


WORKLOADS = {
    "demo-sweep": DemoSweep,
    "games-train": GamesTrain,
    "games-eval-sampled": functools.partial(GamesEval, "sampled"),
    "games-eval-full": functools.partial(GamesEval, "full"),
}


def _count_lines(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def _history_losses_finite(text: str) -> bool:
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    return all(math.isfinite(float(r[2])) for r in rows if r[1] == "train")


def _check_results_row(got: list[str], want: list[str]) -> list[str]:
    columns = stability.RESULTS_COLUMNS
    if len(got) != len(columns) or len(want) != len(columns):
        return [f"results.tsv row has {len(got)} fields, expected {len(columns)}"]
    problems = []
    for name, g, w in zip(columns, got, want):
        if name in ("Act", "encoding", "nmax", "runs"):
            ok = g == w
        elif name == "CI":
            ok = all(_close(float(a), float(b), atol=PERCENT_ATOL)
                     for a, b in zip(g.strip("()").split(","), w.strip("()").split(",")))
        else:
            ok = _close(float(g), float(w), atol=PERCENT_ATOL)
        if not ok:
            problems.append(f"results.tsv {name} {g} != reference {w}")
    return problems
