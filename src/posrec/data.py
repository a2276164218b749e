"""Interaction logs: parsing, re-indexing, splits, subsets, statistics.

A dataset is a list of per-user item sequences, time-ordered, with users and
items re-indexed to contiguous ids. The original ids are kept so the
bijection can be inverted and files can be written back out. Users with
fewer than min_interactions rows after filtering are dropped (and counted).
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataFormatError, UserError
from .numeric import Rng

DEFAULT_MIN_INTERACTIONS = 2


@dataclass
class EvalRow:
    user: int
    context: np.ndarray
    target: int

    @cached_property
    def seen(self) -> np.ndarray:
        """The sorted unique items of context and target, sorted on first use only."""
        return np.unique(np.append(np.asarray(self.context, dtype=np.int64), self.target))


@dataclass
class Split:
    """Leave-one-out views: last item is the test target, the one before it
    the validation target (users of length 2 have no validation row)."""

    train_sequences: list[np.ndarray]
    valid: list[EvalRow]
    test: list[EvalRow]


@dataclass
class InteractionDataset:
    sequences: list[np.ndarray]
    times: list[np.ndarray]
    num_items: int
    user_ids: list[str]
    item_ids: list[str]
    attributes: np.ndarray | None = None
    source: str = ""
    dropped_users: int = 0
    min_interactions: int = DEFAULT_MIN_INTERACTIONS

    @property
    def num_users(self) -> int:
        return len(self.sequences)

    @property
    def num_interactions(self) -> int:
        return int(sum(len(s) for s in self.sequences))

    @property
    def density(self) -> float:
        return self.num_interactions / (self.num_users * self.num_items)

    @property
    def attribute_dim(self) -> int:
        return 0 if self.attributes is None else int(self.attributes.shape[1])

    @property
    def identity(self) -> dict:
        """What names this dataset: recorded as the `dataset` entry of
        resolved.json.  Its sha256, which a sweep's fingerprint hashes, covers
        what a model sees: num_items, the per-user lengths, the re-indexed
        item ids and the attribute matrix's shape and values (little-endian
        int64 and float64); original id strings are left out.  It is computed
        on each access, since load_attributes sets attributes later."""
        lengths = [len(s) for s in self.sequences]
        content = hashlib.sha256(np.concatenate(
            [[self.num_items, *lengths], *self.sequences], dtype="<i8").tobytes())
        if self.attributes is not None:
            content.update(np.array(self.attributes.shape, dtype="<i8").tobytes())
            content.update(np.ascontiguousarray(self.attributes, dtype="<f8").tobytes())
        return {"source": self.source, "users": self.num_users, "items": self.num_items,
                "interactions": self.num_interactions, "sha256": content.hexdigest()}


def _table(text: str):
    """(line number, stripped fields) for each non-blank line of a TSV or CSV table;
    the delimiter is a tab if the first such line holds one, else a comma."""
    delim = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if delim is None:
            delim = "\t" if "\t" in line else ","
        yield line_no, [f.strip() for f in line.split(delim)]


def _parse_rows(path: str, text: str):
    rows = []
    for line_no, fields in _table(text):
        if len(fields) != 3:
            raise DataFormatError(path, line_no, f"expected 3 columns, got {len(fields)}")
        try:
            ts = float(fields[2])
        except ValueError:
            if line_no == 1:  # a header row
                continue
            raise DataFormatError(path, line_no, f"bad timestamp '{fields[2]}'") from None
        rows.append((fields[0], fields[1], ts))
    return rows


def _assemble(rows, min_interactions: int, source: str) -> InteractionDataset:
    """Group by user, stable-sort by timestamp, re-index users and items."""
    by_user: dict[str, list[tuple[float, int, str]]] = {}
    for order, (u, i, ts) in enumerate(rows):
        by_user.setdefault(u, []).append((ts, order, i))

    sequences, times, user_ids = [], [], []
    item_index: dict[str, int] = {}
    item_ids: list[str] = []
    dropped = 0
    for u, events in by_user.items():
        if len(events) < min_interactions:
            dropped += 1
            continue
        events.sort(key=lambda e: (e[0], e[1]))  # timestamp, ties by input order
        seq = np.empty(len(events), dtype=np.int64)
        tvals = np.empty(len(events), dtype=np.float64)
        for pos, (ts, _, item) in enumerate(events):
            if item not in item_index:
                item_index[item] = len(item_ids)
                item_ids.append(item)
            seq[pos] = item_index[item]
            tvals[pos] = ts
        sequences.append(seq)
        times.append(tvals)
        user_ids.append(u)

    if not sequences:
        raise UserError(f"no users with >= {min_interactions} interactions in {source or 'input'}")
    return InteractionDataset(
        sequences=sequences,
        times=times,
        num_items=len(item_ids),
        user_ids=user_ids,
        item_ids=item_ids,
        source=source,
        dropped_users=dropped,
        min_interactions=min_interactions,
    )


def load_interactions(path: str, min_interactions: int = DEFAULT_MIN_INTERACTIONS) -> InteractionDataset:
    """Read (user, item, timestamp) rows from a TSV or CSV log."""
    path = str(path)
    if path.endswith(".npz"):
        raise UserError(f"{path} is an .npz archive, not an interaction log; "
                        "pass the TSV or CSV log")
    rows = _parse_rows(path, read_input(path, "interaction log"))
    if not rows:
        raise UserError(f"{path} contains no interaction rows")
    return _assemble(rows, min_interactions, source=path)


def read_input(path: str, what: str, binary: bool = False):
    """The bytes of the file at `path`, or its text decoded as UTF-8; a file that
    cannot be read or decoded raises UserError naming `what` and the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw if binary else raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise UserError(f"cannot read {what} {path}: {err}") from None


def open_archive(path: str, what: str) -> dict[str, np.ndarray]:
    """The arrays of the .npz archive at `path` by member name, every member
    read before the archive is closed.  A file that cannot be read or holds
    no .npz archive (an empty or truncated one, say), and a member that
    cannot be read (one saved with object dtype, or whose bytes fail their
    CRC), raise UserError naming `what`, the path and the member."""
    try:
        with open(path, "rb") as fh:  # a zip's magic, else np.load would try pickle
            is_zip = fh.read(4) in (b"PK\x03\x04", b"PK\x05\x06")
        archive = np.load(path, allow_pickle=False) if is_zip else None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
        raise UserError(f"cannot read {what} {path}: {err}") from None
    if archive is None:
        raise UserError(f"{path} is not a {what}: it is not an .npz archive")
    members = {}
    with archive:
        for name in archive.files:
            try:
                members[name] = archive[name]
            except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
                raise UserError(f"cannot read {what} {path}, member '{name}': {err}") from None
    return members


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write `path` through a sibling temporary file that replaces it only
    once the block finishes, so `path` is either its old self, absent, or
    complete; never partly written.  A missing parent directory is created.
    Text mode is UTF-8 with "\\n" newlines.  A parent, temporary file or
    replace that the file system refuses raises UserError naming `path`.
    """
    parent = os.path.dirname(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
        except OSError as err:
            raise UserError(f"cannot write {path}: {err}") from None
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise UserError(f"cannot write {path}: {err}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_interactions(ds: InteractionDataset, path: str) -> None:
    """Write the dataset back out as a TSV using the original ids; each
    timestamp is written in a form that reads back exactly."""
    with atomic_write(path) as fh:
        for u, (seq, tvals) in enumerate(zip(ds.sequences, ds.times)):
            uid = ds.user_ids[u]
            for item, ts in zip(seq, tvals):
                fh.write(f"{uid}\t{ds.item_ids[int(item)]}\t{float(ts)!r}\n")


def load_attributes(path: str, ds: InteractionDataset) -> np.ndarray:
    """Attach a dense attribute matrix from a sidecar with header item_id,a_0,...

    Rows for unknown items are ignored; dataset items missing from the
    sidecar get zero vectors.
    """
    path = str(path)
    rows = _table(read_input(path, "attributes"))
    header_line, header = next(rows, (0, None))
    if header is None:
        raise UserError(f"{path} is empty")
    if header[0] != "item_id" or len(header) < 2:
        raise DataFormatError(path, header_line, "attribute header must start with item_id")
    width = len(header) - 1
    index = {orig: i for i, orig in enumerate(ds.item_ids)}
    attrs = np.zeros((ds.num_items, width), dtype=np.float64)
    for line_no, fields in rows:
        if len(fields) != width + 1:
            raise DataFormatError(path, line_no, f"expected {width + 1} columns, got {len(fields)}")
        iid = index.get(fields[0])
        if iid is None:
            continue
        try:
            attrs[iid] = [float(f) for f in fields[1:]]
        except ValueError:
            raise DataFormatError(path, line_no, "bad attribute value") from None
    ds.attributes = attrs
    return attrs


# ---------------------------------------------------------------------------
# splits, subsets, statistics


def leave_one_out(ds: InteractionDataset) -> Split:
    train, valid, test = [], [], []
    for u, seq in enumerate(ds.sequences):
        if len(seq) < 2:  # its test row would have no context
            raise UserError(f"user {ds.user_ids[u]} has {len(seq)} event; "
                            "min_interactions must be at least 2 to split it")
        train.append(seq[:-2].copy())
        test.append(EvalRow(u, seq[:-1].copy(), int(seq[-1])))
        if len(seq) >= 3:
            valid.append(EvalRow(u, seq[:-2].copy(), int(seq[-2])))
    return Split(train_sequences=train, valid=valid, test=test)


def subset(ds: InteractionDataset, user_budget: int, item_budget: int, rng: Rng) -> InteractionDataset:
    """Keep the item_budget most popular items (ties by contiguous id) and a
    uniform sample of user_budget users, then re-filter and re-index."""
    if not 1 <= user_budget <= ds.num_users:
        raise UserError(f"user budget {user_budget} outside [1, {ds.num_users}]")
    if not 1 <= item_budget <= ds.num_items:
        raise UserError(f"item budget {item_budget} outside [1, {ds.num_items}]")

    counts = np.zeros(ds.num_items, dtype=np.int64)
    for seq in ds.sequences:
        np.add.at(counts, seq, 1)
    order = np.lexsort((np.arange(ds.num_items), -counts))  # by count desc, id asc
    kept_items = set(order[:item_budget].tolist())

    kept_users = sorted(rng.choice(np.arange(ds.num_users), size=user_budget, replace=False).tolist())

    rows = []
    for u in kept_users:
        seq, tvals = ds.sequences[u], ds.times[u]
        for item, ts in zip(seq, tvals):
            if int(item) in kept_items:
                rows.append((ds.user_ids[u], ds.item_ids[int(item)], float(ts)))
    if not rows:
        raise UserError("subset is empty: budgets removed every interaction")
    out = _assemble(rows, ds.min_interactions, source=ds.source)
    if ds.attributes is not None:
        back = {orig: i for i, orig in enumerate(ds.item_ids)}
        out.attributes = np.stack([ds.attributes[back[i]] for i in out.item_ids])
    return out


def stats(ds: InteractionDataset) -> dict:
    """Counts and density, as `posrec stats` prints them."""
    return {
        "users": ds.num_users,
        "items": ds.num_items,
        "interactions": ds.num_interactions,
        "density": ds.density,
        "attribute_dim": ds.attribute_dim,
        "dropped_users": ds.dropped_users,
        "source": ds.source or "-",
    }


def write_stats_tsv(values: dict, path: str) -> None:
    keys = list(values)
    with atomic_write(path) as fh:
        fh.write("\t".join(keys) + "\n")
        fh.write("\t".join(_fmt_stat(values[k]) for k in keys) + "\n")


def _fmt_stat(v) -> str:
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def format_stats_table(values: dict) -> str:
    width = max(len(k) for k in values)
    lines = [f"{k.ljust(width)}  {_fmt_stat(v)}" for k, v in values.items()]
    return "\n".join(lines)
