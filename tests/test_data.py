"""Loader semantics, splits, subsets, stats, and the synthetic profiles."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posrec import cli, synth
from posrec import data as data_module
from posrec.data import (
    InteractionDataset,
    atomic_write,
    format_stats_table,
    leave_one_out,
    load_attributes,
    load_interactions,
    save_interactions,
    stats,
    subset,
    write_stats_tsv,
)
from posrec.errors import DataFormatError, UserError
from posrec.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from posrec.numeric import Rng


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def counts_dataset(lengths, num_items):
    """Dataset with exact user/item/interaction counts, items covered cyclically."""
    total = int(sum(lengths))
    flat = np.arange(total, dtype=np.int64) % num_items
    bounds = np.cumsum(lengths)[:-1]
    sequences = [s for s in np.split(flat, bounds)]
    times = [np.arange(len(s), dtype=np.float64) for s in sequences]
    return InteractionDataset(
        sequences=sequences,
        times=times,
        num_items=num_items,
        user_ids=[str(u) for u in range(len(lengths))],
        item_ids=[str(i) for i in range(num_items)],
    )


# ---------------------------------------------------------------------------
# loading


def test_rows_sorted_by_timestamp_with_stable_ties(tmp_path):
    path = write(
        tmp_path,
        "log.tsv",
        "u1\ta\t30\n"
        "u1\tb\t10\n"
        "u1\tc\t20\n"
        "u1\td\t20\n",  # same ts as c, must stay after it
    )
    ds = load_interactions(path)
    items = [ds.item_ids[i] for i in ds.sequences[0]]
    assert items == ["b", "c", "d", "a"]


def test_duplicate_interactions_are_kept(tmp_path):
    path = write(tmp_path, "log.tsv", "u\tx\t1\nu\tx\t1\nu\ty\t2\n")
    ds = load_interactions(path)
    assert ds.num_interactions == 3
    assert [ds.item_ids[i] for i in ds.sequences[0]] == ["x", "x", "y"]


def test_csv_and_header_are_detected(tmp_path):
    path = write(tmp_path, "log.csv", "user_id,item_id,timestamp\nu,a,1\nu,b,2\n")
    ds = load_interactions(path)
    assert ds.num_users == 1 and ds.num_items == 2


def test_users_below_min_interactions_are_dropped_and_counted(tmp_path):
    path = write(tmp_path, "log.tsv", "u1\ta\t1\nu1\tb\t2\nu2\tc\t1\n")
    ds = load_interactions(path)
    assert ds.num_users == 1
    assert ds.dropped_users == 1
    assert all(len(s) >= 2 for s in ds.sequences)


def test_bad_row_reports_line_number(tmp_path):
    path = write(tmp_path, "log.tsv", "u\ta\t1\nu\tb\n")
    with pytest.raises(DataFormatError) as err:
        load_interactions(path)
    assert err.value.line_no == 2
    # blank lines count: the sidecar's bad value is on the file's line 5
    ds = load_interactions(write(tmp_path, "log2.tsv", "u\ta\t1\nu\tb\t2\n"))
    side = write(tmp_path, "side.csv", "item_id,a_0\n\n\na,1\nb,x\n")
    with pytest.raises(DataFormatError, match="bad attribute value") as err:
        load_attributes(side, ds)
    assert err.value.line_no == 5


def test_bad_timestamp_reports_line_number(tmp_path):
    path = write(tmp_path, "log.tsv", "u\ta\t1\nu\tb\tlater\n")
    with pytest.raises(DataFormatError) as err:
        load_interactions(path)
    assert err.value.line_no == 2


def test_empty_file_is_a_user_error(tmp_path):
    with pytest.raises(UserError):
        load_interactions(write(tmp_path, "log.tsv", "\n"))


def test_reindexing_is_a_bijection(tmp_path):
    path = write(tmp_path, "log.tsv", "b\ty\t1\nb\tx\t2\na\ty\t1\na\tz\t2\n")
    ds = load_interactions(path)
    assert sorted(ds.user_ids) == ["a", "b"]
    assert len(set(ds.item_ids)) == ds.num_items == 3
    for seq in ds.sequences:
        assert (seq >= 0).all() and (seq < ds.num_items).all()


def test_save_and_reload_round_trip(tmp_path):
    ds = synth.build_dataset("random", users=7, items=13, seq_len=5, seed=3)
    path = str(tmp_path / "out.tsv")
    save_interactions(ds, path)
    again = load_interactions(path)
    assert again.num_users == ds.num_users
    for a, b in zip(ds.sequences, again.sequences):
        assert [ds.item_ids[i] for i in a] == [again.item_ids[i] for i in b]


def test_saved_timestamps_read_back_exactly(tmp_path):
    # Unix seconds one minute apart, fractions, and a value no short form holds
    times = [np.array([1356998400.0, 1356998460.0, 1356998460.5]),
             np.array([0.1, 1e9 + 1.0 / 3.0, 1700000000.123456])]
    ds = InteractionDataset(sequences=[np.array([0, 1, 2]), np.array([2, 0, 1])], times=times,
                            num_items=3, user_ids=["u", "v"], item_ids=["a", "b", "c"])
    path = str(tmp_path / "out.tsv")
    save_interactions(ds, path)
    again = load_interactions(path)
    assert [t.tobytes() for t in again.times] == [t.tobytes() for t in times]
    assert [[again.item_ids[i] for i in s] for s in again.sequences] == [["a", "b", "c"],
                                                                         ["c", "a", "b"]]


# ids the log parser yields unchanged: no control character, no surrounding
# whitespace or line break (the parser strips fields and splits lines), none empty
ID_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs")), min_size=1,
                  max_size=4).filter(lambda s: s.splitlines() == [s.strip()])


@st.composite
def datasets(draw):
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    num_items = draw(st.integers(1, 9))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    return InteractionDataset(
        sequences=[gen.integers(0, num_items, n) for n in lengths],
        times=[np.sort(gen.normal(size=n) * 1e9) for n in lengths],
        num_items=num_items,
        user_ids=draw(st.lists(ID_TEXT, min_size=len(lengths), max_size=len(lengths), unique=True)),
        item_ids=draw(st.lists(ID_TEXT, min_size=num_items, max_size=num_items, unique=True)),
    )


@given(ds=datasets())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_log_round_trip(tmp_path, ds):
    path = str(tmp_path / "log.tsv")
    save_interactions(ds, path)
    again = load_interactions(path, min_interactions=1)
    assert again.user_ids == ds.user_ids
    assert ([[again.item_ids[i] for i in seq] for seq in again.sequences]
            == [[ds.item_ids[i] for i in seq] for seq in ds.sequences])
    assert [t.tobytes() for t in again.times] == [t.tobytes() for t in ds.times]


def test_load_checkpoint_closes_its_archive(tmp_path, monkeypatch):
    ds = counts_dataset([2, 3], num_items=4)
    good, bad = str(tmp_path / "good.npz"), str(tmp_path / "bad.npz")
    save_checkpoint(Model(ds.num_items, ModelConfig(d=8, g=8, blocks=1, heads=1, max_len=4),
                          Rng(0)), good)
    with np.load(good) as archive:
        np.savez(bad, **{**archive, "param:item_table": archive["param:item_table"].astype(object)})
    opened, load = [], np.load
    monkeypatch.setattr(np, "load", lambda *a, **kw: opened.append(load(*a, **kw)) or opened[-1])
    load_checkpoint(good, ds)
    with pytest.raises(UserError, match="member 'param:item_table'"):
        load_checkpoint(bad, ds)
    assert len(opened) == 2 and all(archive.zip is None for archive in opened)


def test_attribute_sidecar_alignment(tmp_path):
    log = write(tmp_path, "log.tsv", "u\tfoo\t1\nu\tbar\t2\n")
    side = write(tmp_path, "attrs.csv", "item_id,a_0,a_1\nbar,1,2\nfoo,3,4\nmissing,9,9\n")
    ds = load_interactions(log)
    load_attributes(side, ds)
    assert ds.attribute_dim == 2
    foo_row = ds.attributes[ds.item_ids.index("foo")]
    np.testing.assert_array_equal(foo_row, [3.0, 4.0])


def test_dataset_sha256_is_pinned():
    # little-endian int64 [num_items, lengths..., items...], then the attribute
    # matrix's int64 shape and float64 values; if these move, every sweep
    # fingerprint and every checkpoint's dataset check moves with them
    ds = counts_dataset([3, 2], 4)  # items [0, 1, 2], [3, 0]
    assert ds.identity["sha256"] == (
        "ac19a558b975b570f6b3741c14e757547d86c7cf03f7d7da43c570f46edaf751")
    ds.attributes = np.arange(8.0).reshape(4, 2)
    assert ds.identity["sha256"] == (
        "259fc85def4d9adadb2f19b7a50c43bb87ed8ed7d771de2797d3d1080114fbd0")


def test_dataset_sha256_covers_what_the_model_sees():
    def sha(lengths=(3, 2), num_items=4, attributes=None, **changes):
        ds = counts_dataset(list(lengths), num_items)
        ds.attributes = attributes
        for name, value in changes.items():
            setattr(ds, name, value)
        return ds.identity["sha256"]

    base = sha()
    # names, times and the source are not what a model is trained on
    assert sha(user_ids=["x", "y"], item_ids=list("wxyz"), source="elsewhere.tsv",
               times=[np.zeros(3), np.ones(2)]) == base
    changed = [sha(num_items=5), sha(lengths=(2, 3)),
               sha(sequences=[np.array([0, 1, 2]), np.array([0, 3])]),
               sha(attributes=np.zeros((4, 2))), sha(attributes=np.zeros((8, 1)))]
    assert len({base, *changed}) == 6


# ---------------------------------------------------------------------------
# published count shapes


def test_density_on_published_beauty_counts():
    lengths = [8] * 29480 + [7] * 22724  # 52,204 users, 394,908 rows
    ds = counts_dataset(lengths, 57289)
    s = stats(ds)
    assert s["users"] == 52204 and s["items"] == 57289 and s["interactions"] == 394908
    assert f"{s['density']:.3e}" == "1.320e-04"


def test_density_on_published_submen2_counts():
    lengths = [8] * 4391 + [7] * 5609  # 10,000 users, 74,391 rows
    ds = counts_dataset(lengths, 45129)
    s = stats(ds)
    assert s["users"] == 10000 and s["interactions"] == 74391
    assert f"{s['density']:.3e}" == "1.648e-04"


# ---------------------------------------------------------------------------
# splits


def test_leave_one_out_assigns_last_and_second_to_last():
    ds = counts_dataset([4], 10)  # one user: items [0, 1, 2, 3]
    split = leave_one_out(ds)
    assert np.array_equal(split.train_sequences[0], [0, 1])
    assert split.valid[0].target == 2
    assert np.array_equal(split.valid[0].context, [0, 1])
    assert split.test[0].target == 3
    assert np.array_equal(split.test[0].context, [0, 1, 2])


def histories_dataset(histories):
    """Dataset whose users hold `histories`, lists of item ids below 10."""
    return InteractionDataset(
        sequences=[np.array(h, dtype=np.int64) for h in histories],
        times=[np.arange(len(h), dtype=np.float64) for h in histories],
        num_items=10, user_ids=[str(u) for u in range(len(histories))],
        item_ids=[str(i) for i in range(10)],
    )


HISTORIES = st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=1, max_size=6)


@given(HISTORIES)
@settings(max_examples=60, deadline=None)
def test_leave_one_out_partitions_every_history_in_order(histories):
    split = leave_one_out(histories_dataset(histories))
    valid = {row.user: row for row in split.valid}
    assert [row.user for row in split.test] == list(range(len(histories)))
    assert sorted(valid) == [u for u, h in enumerate(histories) if len(h) >= 3]
    for u, history in enumerate(histories):
        train, test = split.train_sequences[u].tolist(), split.test[u]
        # a 2-item history has no validation row: its first item is test context only
        held_out = [valid[u].target] if u in valid else history[-2:-1]
        assert train + held_out + [test.target] == history
        assert test.context.tolist() == history[:-1]
        assert test.seen.tolist() == sorted(set(history))
        if u in valid:
            assert valid[u].context.tolist() == train
            assert valid[u].seen.tolist() == sorted(set(train + held_out))


@given(HISTORIES.filter(lambda histories: any(len(h) >= 4 for h in histories)))
@settings(max_examples=60, deadline=None)
def test_a_user_with_a_training_pair_gives_a_validation_row(histories):
    """`train` needs one user of >= 4 events, so it always has rows to validate on."""
    assert leave_one_out(histories_dataset(histories)).valid


def test_length_two_users_have_no_validation_row():
    ds = counts_dataset([2, 3], 5)
    split = leave_one_out(ds)
    assert len(split.test) == 2
    assert len(split.valid) == 1
    assert split.train_sequences[0].size == 0


# ---------------------------------------------------------------------------
# subsets


def make_skewed(tmp_path):
    # item popularity 0 > 1 > 2 > 3; five users
    rows = []
    pop = {0: 6, 1: 5, 2: 3, 3: 2}
    k = 0
    for item, n in pop.items():
        for _ in range(n):
            rows.append(f"u{k % 5}\ti{item}\t{k}")
            k += 1
    return load_interactions(write(tmp_path, "log.tsv", "\n".join(rows) + "\n"))


def test_subset_keeps_most_popular_items(tmp_path):
    ds = make_skewed(tmp_path)
    # brute-force popularity oracle on the raw sequences
    counts = {}
    for seq in ds.sequences:
        for i in seq:
            counts[int(i)] = counts.get(int(i), 0) + 1
    top2 = {i for i, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:2]}
    small = subset(ds, user_budget=ds.num_users, item_budget=2, rng=Rng(5))
    kept_orig = set(small.item_ids)
    expected = {ds.item_ids[i] for i in top2}
    assert kept_orig == expected


def test_subset_counts_never_grow(tmp_path):
    ds = make_skewed(tmp_path)
    small = subset(ds, user_budget=3, item_budget=3, rng=Rng(6))
    assert small.num_users <= 3
    assert small.num_items <= 3
    assert small.num_interactions <= ds.num_interactions
    assert all(len(s) >= 2 for s in small.sequences)


def test_subset_is_deterministic_given_rng(tmp_path):
    ds = make_skewed(tmp_path)
    a = subset(ds, 4, 3, Rng(9, 1))
    b = subset(ds, 4, 3, Rng(9, 1))
    assert a.user_ids == b.user_ids
    for s, t in zip(a.sequences, b.sequences):
        assert np.array_equal(s, t)


def test_subset_rejects_budgets_beyond_counts(tmp_path):
    ds = make_skewed(tmp_path)
    with pytest.raises(UserError):
        subset(ds, ds.num_users + 1, 2, Rng(1))
    with pytest.raises(UserError):
        subset(ds, 2, 0, Rng(1))


# ---------------------------------------------------------------------------
# stats serialization


def test_stats_tsv_round_trip(tmp_path):
    ds = synth.build_dataset("random", 6, 9, 4, seed=8)
    s = stats(ds)
    path = str(tmp_path / "stats.tsv")
    write_stats_tsv(s, path)
    with open(path, encoding="utf-8") as fh:
        header, row = fh.read().splitlines()
    back = dict(zip(header.split("\t"), row.split("\t")))
    assert int(back["users"]) == s["users"]
    assert int(back["interactions"]) == s["interactions"]
    assert abs(float(back["density"]) - s["density"]) < 1e-12
    assert str(s["users"]) in format_stats_table(s)


# ---------------------------------------------------------------------------
# synthetic profiles


def test_memorizable_follows_the_cycle():
    seqs = synth.generate_sequences("memorizable", 10, 7, 9, seed=1)
    for u, seq in enumerate(seqs):
        assert seq[0] == u % 7
        assert ((seq[1:] - seq[:-1]) % 7 == 1).all()


def test_positional_increments_stay_in_allowed_set():
    # every same-parity difference is shift plus one of the four offsets
    seqs = synth.generate_sequences("positional", 20, 101, 12, seed=2, shift=7)
    allowed = {7 + off for off in synth.STEP_OFFSETS}
    for seq in seqs:
        diffs = {int((seq[t] - seq[t - 2]) % 101) for t in range(2, len(seq))}
        assert diffs <= allowed


def test_positional_increments_are_redrawn_each_step():
    # increments vary within a user's walk and all four values occur
    seqs = synth.generate_sequences("positional", 40, 101, 16, seed=2, shift=7)
    varied = 0
    seen = set()
    for seq in seqs:
        diffs = {int((seq[t] - seq[t - 2]) % 101) for t in range(2, len(seq))}
        varied += len(diffs) > 1
        seen |= diffs
    assert varied > 30
    assert seen == {7 + off for off in synth.STEP_OFFSETS}


def test_positional_walks_start_independently():
    seqs = synth.generate_sequences("positional", 40, 101, 16, seed=2, shift=7)
    start_pairs = [(int(seq[0]), int(seq[1])) for seq in seqs]
    assert sum(a != b for a, b in start_pairs) > 30
    assert len({a for a, _ in start_pairs}) > 10


def test_generation_is_deterministic():
    a = synth.generate_sequences("random", 5, 11, 6, seed=3)
    b = synth.generate_sequences("random", 5, 11, 6, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_unknown_profile_rejected():
    with pytest.raises(UserError):
        synth.generate_sequences("cyclic", 5, 5, 5, seed=1)


def test_positional_bayes_predictor_beats_popularity():
    # brute-force Bayes on the generative rule — (user, parity, item two
    # back) -> next — is exact everywhere; the popularity baseline is not
    seqs = synth.generate_sequences("positional", 50, 120, 14, seed=5)
    table = {}
    pop = {}
    for u, seq in enumerate(seqs):
        for t in range(2, len(seq)):
            key = (u, t % 2, int(seq[t - 2]))
            nxt = table.setdefault(key, {})
            nxt[int(seq[t])] = nxt.get(int(seq[t]), 0) + 1
            pop[int(seq[t])] = pop.get(int(seq[t]), 0) + 1
    top_item = max(pop.items(), key=lambda kv: kv[1])[0]
    bayes_hits = pop_hits = total = 0
    for u, seq in enumerate(seqs):
        for t in range(2, len(seq)):
            total += 1
            key = (u, t % 2, int(seq[t - 2]))
            pred = max(table[key].items(), key=lambda kv: kv[1])[0]
            bayes_hits += pred == seq[t]
            pop_hits += top_item == seq[t]
    assert bayes_hits / total == 1.0
    assert pop_hits / total < 0.5


def test_failed_atomic_write_leaves_the_old_file_or_none(tmp_path):
    # the second path's folders are missing, and atomic_write creates them
    for path in (tmp_path / "history.tsv", tmp_path / "missing" / "dir" / "history.tsv"):

        def torn_write():
            with atomic_write(str(path)) as fh:
                fh.write("epoch\tsplit\n1\ttr")
                raise OSError("disk full")

        with pytest.raises(OSError):
            torn_write()
        assert list(path.parent.iterdir()) == []
        with atomic_write(str(path)) as fh:
            fh.write("complete\n")
        with pytest.raises(OSError):
            torn_write()
        assert path.read_text() == "complete\n"
        assert list(path.parent.iterdir()) == [path]


FILE_HELPERS = {"atomic_write", "read_input", "open_archive"}


def _opens_a_file(call: ast.Call) -> bool:
    """Whether `call` is open(), io.open() or np.load(), in any mode."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in {("io", "open"), ("np", "load")})


def test_files_are_read_and_written_only_through_the_file_helpers():
    src = Path(data_module.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = set()
        if path == Path(data_module.__file__):
            helpers = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name in FILE_HELPERS]
            assert {node.name for node in helpers} == FILE_HELPERS
            exempt = {id(node) for helper in helpers for node in ast.walk(helper)}
        found += [f"{path.relative_to(src)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and _opens_a_file(node)]
    assert found == []


class TornFile:
    """An open file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._fh.write(data[: max(1, len(data) // 2)])
        raise OSError("disk full")


def _inputs(workdir):
    """A small dataset, its log and a checkpoint over it."""
    ds = synth.build_dataset("positional", users=6, items=10, seq_len=6, seed=2)
    log, checkpoint = str(workdir / "log.tsv"), str(workdir / "model.npz")
    save_interactions(ds, log)
    config = ModelConfig(d=8, g=8, blocks=1, heads=1, max_len=6)
    save_checkpoint(Model(ds.num_items, config, Rng(0)), checkpoint)
    return ds, log, checkpoint


def _evaluate_out(inputs, path):
    _, log, checkpoint = inputs
    args = cli.build_parser().parse_args(["evaluate", checkpoint, "--data", log,
                                          "--negatives", "3", "--out", path])
    args.func(args)


def _write_record(inputs, path):
    """Write a train run's record in the directory of `path`: its
    config.yaml, then resolved.json."""
    _, log, _ = inputs
    config = os.path.join(os.path.dirname(log), "run.yaml")
    with open(config, "w") as fh:
        fh.write(f"data: {{path: {log}}}\n")
    args = cli.build_parser().parse_args(["train", "--config", config,
                                          "--out", os.path.dirname(path)])
    _, _, run_dir, record = cli._start_run(args, cli._run_config(args), "train")
    cli._write_record(run_dir, record)


# each writer(inputs, path) writes `path`, and any other file, through
# data.atomic_write
WRITERS = {
    "config.yaml": _write_record,
    "save_interactions": lambda inputs, path: save_interactions(inputs[0], path),
    "save_checkpoint": lambda inputs, path: save_checkpoint(load_checkpoint(inputs[2]), path),
    "write_stats_tsv": lambda inputs, path: write_stats_tsv(stats(inputs[0]), path),
    "synth.write_dataset": lambda inputs, path: synth.write_dataset("positional", 5, 20, 8,
                                                                    seed=4, path=path),
    "evaluate --out": _evaluate_out,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_torn_write_leaves_the_old_file_or_none(writer, tmp_path, monkeypatch):
    inputs = _inputs(tmp_path)  # made before any write is torn
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # the name a run gives its config copy; every other writer writes exactly
    # the path it is given (np.savez gets a handle, so it adds no suffix)
    path = out_dir / "config.yaml"

    def torn_write():
        with monkeypatch.context() as patch:
            patch.setattr(data_module, "open", lambda *a, **kw: TornFile(open(*a, **kw)),
                          raising=False)
            with pytest.raises(OSError, match="disk full"):
                WRITERS[writer](inputs, str(path))

    torn_write()
    assert list(out_dir.iterdir()) == []
    WRITERS[writer](inputs, str(path))
    complete = {p: p.read_bytes() for p in out_dir.iterdir()}
    assert path in complete
    torn_write()
    assert {p: p.read_bytes() for p in out_dir.iterdir()} == complete
