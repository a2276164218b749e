"""Command-line interface.

Subcommands cover the whole workflow: generate or inspect interaction
logs, carve subsets, train, evaluate checkpoints, run multi-seed sweeps,
and turn a baseline sweep into an encoding recommendation.

Exit codes: 0 success, 1 expected failure (bad flags, bad files, diverged
training), 2 internal error, in a sweep also any seed whose run raised.  The
default output root is $POSREC_OUT, or ./runs when unset; --out and the
config's `out` key override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

from . import stability, synth
from .data import (atomic_write, format_stats_table, leave_one_out, read_input,
                   save_interactions, stats, subset, write_stats_tsv)
from .errors import PosrecError, UserError
from .metrics import evaluate
from .model import TEST_EVAL_STREAM, load_checkpoint, train
from .numeric.rng import Rng
from .runconfig import (RunConfig, build_model_config, load_run_config,
                        resolve_dataset)
from .stability import read_summary_tsv, recommend_encoding


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_nmax(text: str):
    if text.strip().lower() in ("none", "nan"):
        return math.nan  # normalised to "unbounded" by the model config
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--nmax expects a float or 'none', got '{text}'") from None


def _parse_seeds(text: str) -> list[int] | None:
    """The seeds of --seeds; a blank list leaves the config's sweep.seeds."""
    try:
        return [int(part) for part in text.replace(",", " ").split()] or None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seeds expects comma-separated integers, got '{text}'") from None


def _run_config(args) -> RunConfig:
    """--config, or an empty run config, with every flag laid over it whose
    dest names a config key: `section.key`, or `.key` for a top-level key.
    A flag left unset (None) leaves the file's value."""
    rc = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            if section:
                getattr(rc, section)[key] = value
            else:
                setattr(rc, key, value)
    return rc


def _start_run(args, rc: RunConfig, command: str, **record):
    """The resolved model config, the dataset, the run directory (`out`, else
    $POSREC_OUT/<command>; refused if a file or another command's run) and the
    run's record: a byte-for-byte copy of --config, read now, and resolved.json,
    holding the resolved config, the dataset's identity and `record`."""
    run_dir = rc.out or os.path.join(os.environ.get("POSREC_OUT", "runs"), command)
    if os.path.exists(run_dir) and not os.path.isdir(run_dir):
        raise UserError(f"run directory {run_dir} exists and is not a directory")
    mark = {"train": stability.LEDGER_NAME, "sweep": "checkpoint.npz"}[command]
    if os.path.exists(os.path.join(run_dir, mark)):
        raise UserError(f"run directory {run_dir} holds another command's {mark}; use another --out")
    config = build_model_config(rc)
    ds = resolve_dataset(rc.data)
    files = {}
    if args.config:
        files["config.yaml"] = read_input(args.config, "config", binary=True)
    files["resolved.json"] = (json.dumps(
        {"command": command, "config": config.as_dict(), "dataset": ds.identity,
         "run_dir": run_dir, **record}, indent=2, sort_keys=True) + "\n").encode()
    return config, ds, run_dir, files


def _write_record(run_dir: str, files: dict[str, bytes]) -> None:
    """Write the run's record (_start_run) into `run_dir`.  Called after the
    run, so a run that fails leaves an earlier run's record as it was."""
    for name, data in files.items():
        with atomic_write(os.path.join(run_dir, name), binary=True) as fh:
            fh.write(data)


def _refuse_npz_out(args) -> None:
    """Before any work: `synth` and `subset` write a TSV log, which an .npz name would hide."""
    if args.out.endswith(".npz"):
        raise UserError(f"--out {args.out}: {args.command} writes a TSV log, not an .npz archive")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _refuse_npz_out(args)
    synth.write_dataset(args.profile, args.users, args.items, args.seq_len,
                        seed=args.seed, shift=args.shift, path=args.out)
    print(f"wrote {args.users * args.seq_len} interactions to {args.out}")
    return 0


def cmd_stats(args) -> int:
    values = stats(resolve_dataset(_run_config(args).data))
    print(format_stats_table(values))
    if args.out:
        write_stats_tsv(values, args.out)
    return 0


def cmd_subset(args) -> int:
    _refuse_npz_out(args)
    small = subset(resolve_dataset(_run_config(args).data), args.users, args.items, Rng(args.seed))
    save_interactions(small, args.out)
    budgets = {"budget_users": args.users, "budget_items": args.items,
               # the post-filter density and the budget density disagree in general
               "budget_density": small.num_interactions / (args.users * args.items)}
    print(format_stats_table({**stats(small), **budgets}))
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    config, ds, run_dir, record = _start_run(args, _run_config(args), "train")
    result = train(config, ds, progress=_progress if not args.quiet else None)

    stability.save_run(result, run_dir, ds)
    _write_record(run_dir, record)
    print(f"best epoch {result.best_epoch}  "
          f"valid Hit@10 {result.valid_hit:.2f}  NDCG {result.valid_ndcg:.2f}")
    print(f"test Hit@10 {result.test_hit:.2f}  NDCG {result.test_ndcg:.2f}")
    if result.skipped_users:
        print(f"skipped {result.skipped_users} user(s) with too little history")
    print(f"artifacts: {run_dir}")
    return 0


def cmd_evaluate(args) -> int:
    ds = resolve_dataset(_run_config(args).data)
    split = leave_one_out(ds)
    model = load_checkpoint(args.checkpoint, ds)
    rows = split.test if args.split == "test" else split.valid
    seed = model.config.seed if args.seed is None else args.seed
    negatives = model.config.eval_negatives if args.negatives is None else args.negatives
    result = evaluate(model, rows, negatives, Rng(seed).child(TEST_EVAL_STREAM))
    print(result.tsv(), end="")
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(result.tsv())
    return 0


def cmd_sweep(args) -> int:
    rc = _run_config(args)
    if not rc.sweep.get("seeds"):
        raise UserError("no seeds: pass --seeds or set sweep.seeds in the config")
    config, ds, run_dir, record = _start_run(args, rc, "sweep", **rc.sweep)

    summary = stability.sweep(config, ds, out_dir=run_dir,
                              progress=_progress if not args.quiet else None, **rc.sweep)
    _write_record(run_dir, record)
    print(read_input(os.path.join(run_dir, stability.RESULTS_NAME), "sweep results"), end="")
    print(f"artifacts: {run_dir}")
    if summary.errored:
        print(f"error: seed(s) {summary.errored} raised; their errors are in "
              f"{stability.LEDGER_NAME}, and rerunning the sweep retries them", file=sys.stderr)
        return 2
    return 0


def cmd_recommend(args) -> int:
    path = args.results
    if os.path.isdir(path):
        path = os.path.join(path, stability.RESULTS_NAME)
    rec = recommend_encoding(read_summary_tsv(path), threshold=args.threshold)
    print(f"recommended encoding: {rec.choice}")
    print(rec.reason)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML run config")
    p.add_argument("--data", dest="data.path", help="interactions file")
    p.add_argument("--preset", dest=".preset", help="named hyperparameter preset")
    p.add_argument("--encoding", dest="encoding.variant", help="positional encoding variant")
    p.add_argument("--nmax", dest="model.nmax", type=_parse_nmax,
                   help="embedding max-norm bound; 'none' lifts it")
    p.add_argument("--activation", dest="model.activation", help="feed-forward activation")
    p.add_argument("--lr", dest="model.lr", type=float, help="learning rate")
    p.add_argument("--epochs", dest="model.epochs", type=int, help="training epochs")
    p.add_argument("--negatives", dest="model.eval_negatives", type=int,
                   help="sampled negatives per evaluation user; 0 ranks the full catalogue")
    p.add_argument("--out", dest=".out", help="run directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def _add_log_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("data.path", metavar="data", help="interactions file")
    p.add_argument("--min-interactions", type=int, dest="data.min_interactions")
    p.add_argument("--attributes", dest="data.attributes", help="item attribute sidecar CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posrec",
        description="Positional-encoding workbench for sequential recommenders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction log")
    p.add_argument("--profile", required=True, choices=synth.PROFILES)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--seq-len", type=int, required=True, dest="seq_len")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=int, default=synth.SHIFT,
                   help="offset of the two-back rule in the positional profile")
    p.add_argument("--out", required=True, help="TSV path to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="summarize an interaction log")
    _add_log_flags(p)
    p.add_argument("--out", help="also write the stats as TSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("subset", help="carve a dense subset by item popularity")
    _add_log_flags(p)
    p.add_argument("--users", type=int, required=True, help="user budget")
    p.add_argument("--items", type=int, required=True, help="item budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="TSV path to write")
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("train", help="train one model")
    _add_model_flags(p)
    p.add_argument("--seed", dest="model.seed", type=int, help="training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--config", help="YAML run config (for its data section)")
    p.add_argument("--data", dest="data.path", help="interactions file")
    p.add_argument("--split", choices=("test", "valid"), default="test")
    p.add_argument("--negatives", type=int, help="sampled negatives per user; 0 ranks "
                   "the full catalogue (default: the run's eval_negatives)")
    p.add_argument("--seed", type=int, help="sampling seed (default: the run's seed, "
                   "which reproduces its test metrics)")
    p.add_argument("--out", help="also write the result row as TSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train one config under several seeds")
    _add_model_flags(p)
    p.add_argument("--seeds", dest="sweep.seeds", type=_parse_seeds,
                   help="comma-separated seed list")
    p.add_argument("--jobs", dest="sweep.jobs", type=int, help="parallel workers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recommend-encoding",
                       help="pick an encoding from a baseline sweep's deviation")
    p.add_argument("results", help="sweep results.tsv, or the sweep directory")
    p.add_argument("--threshold", type=float, default=stability.DEVIATION_THRESHOLD)
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except PosrecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def entry() -> None:
    sys.exit(main())
