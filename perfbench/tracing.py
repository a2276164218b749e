"""Spans around posrec's public callables, recorded from outside the package.

`Tracer.install()` replaces each traced callable at the place its callers
look it up (`posrec.numeric.matmul`, `posrec.model.adam_step`,
`TensorNode.backward`, ...) with a wrapper that records a span, and
`uninstall()` puts the originals back, so untraced calls run unmodified code.
Spans stay in memory; worker processes of a sweep (forked, so they inherit
the installed wrappers) spool theirs to files that the parent reads back.

A span is (name, start, end, parent span id, span id, run id, pid).  Times
come from `time.perf_counter`, the monotonic clock every process shares.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# numeric ops given their own row; every other op lands in numeric.other_ops
NUMERIC_OPS_SHOWN = ("matmul", "einsum2", "gather", "softmax_last", "layer_norm")
# functions of posrec.numeric.tensor that return no tensor
NOT_OPS = {"backward", "no_graph", "set_strict"}

# (module, attribute path, span name): the lookup site of each traced callable
TARGETS = (
    ("posrec.numeric", "TensorNode.backward", "numeric.backward"),
    ("posrec.model", "adam_step", "numeric.adam_step"),
    ("posrec.model", "apply_vector_encoding", "encodings.apply_vector_encoding"),
    ("posrec.attention", "TransformerBlock.__call__", "attention.block"),
    ("posrec.attention", "relative_attention", "attention.relative_attention"),
    ("posrec.attention", "scaled_dot_attention", "attention.scaled_dot_attention"),
    ("posrec.model", "build_sequences", "model.build_sequences"),
    ("posrec.model", "Model.hidden_states", "model.hidden_states"),
    ("posrec.model", "Model.final_hidden", "model.final_hidden"),
    ("posrec.model", "score", "model.score"),
    ("posrec.model", "bce_loss", "model.bce_loss"),
    ("posrec.model", "train", "model.train"),
    ("posrec.stability", "train", "model.train"),
    ("posrec.stability", "save_checkpoint", "model.save_checkpoint"),
    ("posrec.stability", "write_history_tsv", "model.write_history_tsv"),
    ("posrec.model", "evaluate", "metrics.evaluate"),
    ("posrec.metrics", "evaluate", "metrics.evaluate"),
    ("posrec.stability", "sweep", "stability.sweep"),
    ("posrec.stability", "_worker", "stability.worker"),
    ("posrec.synth", "write_dataset", "synth"),
    ("posrec.synth", "generate_sequences", "synth"),
    ("posrec.data", "load_interactions", "data.load_interactions"),
    ("posrec.data", "leave_one_out", "data.leave_one_out"),
    ("posrec.model", "leave_one_out", "data.leave_one_out"),
)


def numeric_ops() -> list[str]:
    """Public tensor functions of posrec.numeric (ops and leaf constructors),
    found by inspection so that an op added later is traced too."""
    nm = importlib.import_module("posrec.numeric")
    return sorted(
        name for name, fn in vars(nm).items()
        if callable(fn) and getattr(fn, "__module__", "") == "posrec.numeric.tensor"
        and not isinstance(fn, type) and not name.startswith("_") and name not in NOT_OPS
    )


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[str] = []
        self.run_id = "setup"
        self._next_id = 0
        self._saved: list[tuple] = []
        self.worker_pids: set[int] = set()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; a no-op while not installed."""
        if not self._saved:
            yield
            return
        self._next_id += 1
        span_id = f"{os.getpid()}.{self._next_id}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((name, start, end, parent, span_id, self.run_id, os.getpid()))

    def _wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "model.hidden_states" and not _arg(args, kwargs, 4, "train", False):
                span_name = "model.hidden_states.eval"
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    def _wrap_worker(self, fn):
        """The sweep's pool task: in a worker process, spool what it recorded."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            forked = os.getpid() != self.pid
            if forked:  # drop what the fork copied from the parent
                self.spans, self.counts = [], Counter()
            with self.span("stability.worker"):
                result = fn(*args, **kwargs)
            if forked:
                self._spool()
            return result
        return traced

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}-{self._next_id}.json")
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
        self.spans, self.counts = [], Counter()

    def collect_spool(self) -> None:
        """Merge the spans that worker processes spooled, then delete the files."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                got = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in got["spans"])
            self.counts.update(got["counts"])
            self.worker_pids.update(s[6] for s in got["spans"])

    # -- counters kept at the boundaries where the work happens ---------------

    def _count_hidden(self, args, kwargs, result):
        if _arg(args, kwargs, 4, "train", False):
            mask = args[2] if len(args) > 2 else kwargs["mask"]
            self.counts["positions_useful"] += int(mask.sum())
            self.counts["positions_computed"] += int(mask.size)

    def _count_final_hidden(self, args, kwargs, result):
        model, contexts = args[0], _arg(args, kwargs, 1, "contexts", None)
        self.counts["hidden_rows_used"] += len(contexts)
        self.counts["hidden_rows_computed"] += len(contexts) * model.config.max_len

    def _count_evaluate(self, args, kwargs, result):
        users = len(result.per_user_ranks)
        self.counts["users_ranked"] += users
        self.counts["candidates_scored"] += users * result.candidate_count

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "model.hidden_states": self._count_hidden,
            "model.final_hidden": self._count_final_hidden,
            "metrics.evaluate": self._count_evaluate,
        }
        targets = [("posrec.numeric", op, f"numeric.{op}") for op in numeric_ops()]
        for module, path, name in targets + list(TARGETS):
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if name == "stability.worker":
                wrapped = self._wrap_worker(original)
            else:
                wrapped = self._wrap(name, original, hooks.get(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write(self, path: str, run_ids) -> None:
        """Write the spans of the given run ids as JSON lines."""
        keep = set(run_ids)
        fields = ("name", "start", "end", "parent", "id", "run", "pid")
        with open(path, "w") as fh:
            for span in self.spans:
                if span[5] in keep:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# ---------------------------------------------------------------------------
# from spans to layer metrics


def span_table(spans, run_ids) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds over `run_ids`.

    Self time is a span's duration minus the durations of its direct
    children in the same process (children in other processes overlap it).
    """
    keep = set(run_ids)
    chosen = [s for s in spans if s[5] in keep]
    child_time: dict[str, float] = defaultdict(float)
    for name, start, end, parent, span_id, run, pid in chosen:
        if parent is not None and parent.split(".")[0] == str(pid):
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, start, end, parent, span_id, run, pid in chosen:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return dict(table)


def layer_metrics(tracer: Tracer, call_ids, setup_ids, jobs: int, traced_wall: list[float],
                  traced_cpu: list[float], untraced_cpu: list[float]) -> dict[str, float]:
    """The per-layer metrics of one traced run, per timed call.

    Times are seconds per timed call, summed over processes; counts are per
    timed call.  Set-up layers are per set-up.
    """
    n = len(call_ids)
    calls = span_table(tracer.spans, call_ids)
    setup = span_table(tracer.spans, setup_ids)
    ops = set(numeric_ops())

    def get(table, name, key, per):
        return table.get(name, {}).get(key, 0) / per

    out = {}
    out["numeric.op_calls"] = sum(get(calls, f"numeric.{op}", "calls", n) for op in ops)
    for op in NUMERIC_OPS_SHOWN:
        out[f"numeric.{op}.s"] = get(calls, f"numeric.{op}", "self_s", n)
    out["numeric.other_ops.s"] = sum(
        get(calls, f"numeric.{op}", "self_s", n) for op in ops if op not in NUMERIC_OPS_SHOWN
    )
    out["numeric.backward.s"] = get(calls, "numeric.backward", "self_s", n)
    out["numeric.backward.calls"] = get(calls, "numeric.backward", "calls", n)
    out["numeric.adam_step.s"] = get(calls, "numeric.adam_step", "self_s", n)
    out["encodings.apply_vector_encoding.s"] = get(calls, "encodings.apply_vector_encoding", "self_s", n)
    out["attention.block.s"] = get(calls, "attention.block", "self_s", n)
    out["attention.block.calls"] = get(calls, "attention.block", "calls", n)
    out["attention.relative_attention.s"] = get(calls, "attention.relative_attention", "self_s", n)
    out["attention.scaled_dot_attention.s"] = get(calls, "attention.scaled_dot_attention", "self_s", n)
    out["model.build_sequences.s"] = get(calls, "model.build_sequences", "self_s", n)
    out["model.build_sequences.calls"] = get(calls, "model.build_sequences", "calls", n)
    # whole scopes: the training forward pass and the evaluation forward pass
    out["model.hidden_states.s"] = get(calls, "model.hidden_states", "total_s", n)
    out["model.score.s"] = get(calls, "model.score", "self_s", n)
    out["model.bce_loss.s"] = get(calls, "model.bce_loss", "self_s", n)
    out["model.final_hidden.s"] = get(calls, "model.final_hidden", "total_s", n)
    out["model.positions_useful_ratio"] = _ratio(tracer.counts, "positions_useful", "positions_computed")
    out["model.save_checkpoint.s"] = get(calls, "model.save_checkpoint", "self_s", n)
    out["model.write_history_tsv.s"] = get(calls, "model.write_history_tsv", "self_s", n)
    out["metrics.evaluate.s"] = get(calls, "metrics.evaluate", "total_s", n)
    out["metrics.evaluate.calls"] = get(calls, "metrics.evaluate", "calls", n)
    out["metrics.users_ranked"] = tracer.counts["users_ranked"] / n
    out["metrics.candidates_scored"] = tracer.counts["candidates_scored"] / n
    # evaluate's only traced child is final_hidden: its self time is the
    # negative pools plus the ranking
    out["metrics.rank_self.s"] = get(calls, "metrics.evaluate", "self_s", n)
    out["metrics.hidden_rows_used_ratio"] = _ratio(tracer.counts, "hidden_rows_used", "hidden_rows_computed")
    worker_s = get(calls, "stability.worker", "total_s", n)
    out["stability.worker.s"] = worker_s
    sweep_wall = statistics.median(traced_wall)
    out["stability.pool_idle_share"] = 1.0 - worker_s / (jobs * sweep_wall) if jobs > 0 else 0.0
    out["stability.resume.s"] = get(calls, "stability.resume", "total_s", n)
    out["stability.ledger_rows"] = tracer.counts["ledger_rows"] / n
    s = len(setup_ids)
    out["synth.s"] = get(setup, "synth", "self_s", s)
    out["data.load_interactions.s"] = get(setup, "data.load_interactions", "self_s", s)
    out["data.leave_one_out.s"] = get(setup, "data.leave_one_out", "self_s", s)
    base = statistics.median(untraced_cpu)
    out["trace.overhead_share"] = (statistics.median(traced_cpu) - base) / base
    return out


def _ratio(counts, num: str, den: str) -> float:
    return counts[num] / counts[den] if counts[den] else 0.0
