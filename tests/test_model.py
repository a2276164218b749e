"""Batch construction, loss, clamp, and the training loop contract."""

import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from posrec import cli, synth
from posrec.data import leave_one_out, load_interactions, save_interactions
from posrec.encodings import VARIANTS, EncodingConfig
from posrec.errors import TrainingDiverged, UserError
from posrec.metrics import evaluate
from posrec import model as model_module
from posrec.model import (
    TEST_EVAL_STREAM,
    MetricRecord,
    Model,
    ModelConfig,
    _loss_and_gradients,
    _sample_negatives,
    apply_max_norm,
    bce_loss,
    block_rows,
    build_sequences,
    dropout_masks,
    left_pad,
    load_checkpoint,
    run_epoch,
    save_checkpoint,
    score,
    start_run,
    train,
    write_history_tsv,
)
from posrec import numeric as nm
from posrec.numeric import Rng
from posrec.numeric.tensor import OpRecord
from posrec.presets import get_preset


def tiny_cfg(**kw):
    base = dict(d=8, g=16, blocks=2, heads=2, dropout=0.0, max_len=6,
                activation="leaky", encoding="None", lr=1e-3, epochs=2,
                batch_size=16, seed=3, eval_negatives=20)
    base.update(kw)
    return ModelConfig(**base)


def tiny_ds(profile="memorizable", users=12, items=15, seq_len=7, seed=2):
    return synth.build_dataset(profile, users, items, seq_len, seed)


# ---------------------------------------------------------------------------
# batch construction


def batch_of(histories, num_items, max_len, rngs):
    """build_sequences with each row's own history as its forbidden items."""
    histories = [np.asarray(h, dtype=np.int64) for h in histories]
    return build_sequences(histories, [np.unique(h) for h in histories], num_items, max_len,
                           rngs)


def one_row_per_user(history, exclude, num_items, max_len, rng):
    """The builder's former one-row-per-user form: the oracle of the batch
    form.  (inputs, positives, negatives, mask) of one left-padded row."""
    history = np.asarray(history, dtype=np.int64)
    inputs = history[:-1][-max_len:]
    positives = history[1:][-max_len:]
    negatives = _sample_negatives(inputs.size, num_items, np.unique(exclude), rng)
    ids, mask = left_pad((inputs, positives, negatives), max_len)
    return ids[0], ids[1], ids[2], mask[0]


def test_build_sequences_matches_the_one_row_per_user_form_bitwise():
    num_items, max_len = 40, 6
    gen = np.random.default_rng(3)
    # 2 to 10 events: inputs shorter than, equal to and longer than max_len
    histories = [gen.integers(0, num_items, size) for size in (2, 5, 7, 8, 10, 3, 7)]
    # forbidden items beyond the training history, as a held-out tail adds
    excludes = [np.concatenate([h, gen.integers(0, num_items, 2)]) for h in histories]
    rng = Rng(12)
    batch = build_sequences(histories, [np.unique(e) for e in excludes], num_items, max_len,
                            [rng.child(u) for u in range(len(histories))])
    rows = [one_row_per_user(h, e, num_items, max_len, rng.child(u))
            for u, (h, e) in enumerate(zip(histories, excludes))]
    assert batch.mask.sum(axis=1).tolist() == [1, 4, 6, 6, 6, 2, 6]
    for k, name in enumerate(("inputs", "positives", "negatives", "mask")):
        got = getattr(batch, name)
        want = np.stack([row[k] for row in rows])
        assert got.dtype == want.dtype and got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_build_sequences_shifts_by_one():
    batch = batch_of([[3, 7, 1, 9]], num_items=12, max_len=6, rngs=[Rng(1)])
    np.testing.assert_array_equal(batch.inputs[0], [0, 0, 0, 4, 8, 2])
    np.testing.assert_array_equal(batch.positives[0], [0, 0, 0, 8, 2, 10])
    np.testing.assert_array_equal(batch.mask[0], [False, False, False, True, True, True])


def test_build_sequences_keeps_most_recent():
    batch = batch_of([np.arange(10)], num_items=20, max_len=4, rngs=[Rng(1)])
    np.testing.assert_array_equal(batch.inputs[0], np.array([5, 6, 7, 8]) + 1)
    np.testing.assert_array_equal(batch.positives[0], np.array([6, 7, 8, 9]) + 1)
    assert batch.mask.all()


def test_length_two_history_single_position():
    batch = batch_of([[4, 2]], num_items=10, max_len=6, rngs=[Rng(1)])
    assert batch.positions == 1
    assert batch.inputs[0, -1] == 5 and batch.positives[0, -1] == 3


def test_negatives_never_collide_with_history():
    history = np.arange(101)  # items 0..100 of a 150-item catalogue
    seen = set((history + 1).tolist())
    rng = Rng(11)
    batch = batch_of([history] * 100, num_items=150, max_len=100,
                     rngs=[rng.child(k) for k in range(100)])
    negs = batch.negatives[batch.mask]
    assert negs.size == 10_000
    assert not (set(negs.tolist()) & seen)
    assert (negs >= 1).all() and (negs <= 150).all()
    assert (batch.negatives[~batch.mask] == 0).all()


def test_negatives_match_the_isin_rejection_draws():
    # the same rejection loop, testing membership with np.isin
    def isin_form(count, num_items, forbidden, rng):
        out = []
        while len(out) < count:
            draw = rng.integers(0, num_items, (2 * (count - len(out)) + 4,))
            out += draw[~np.isin(draw, forbidden)][:count - len(out)].tolist()
        return out

    histories = np.random.default_rng(8)
    for k in range(50):
        num_items = int(histories.integers(2, 60))
        history = histories.integers(0, num_items, int(histories.integers(1, 2 * num_items)))
        forbidden = np.unique(history)
        if forbidden.size == num_items:
            continue
        count = int(histories.integers(1, 120))
        got = _sample_negatives(count, num_items, forbidden, Rng(4).child(k))
        assert got.tolist() == isin_form(count, num_items, forbidden, Rng(4).child(k))


def test_history_covering_catalogue_rejected():
    with pytest.raises(UserError):
        batch_of([np.arange(10)], num_items=10, max_len=12, rngs=[Rng(1)])


# ---------------------------------------------------------------------------
# scoring and loss


def test_score_matches_loop_oracle():
    rng = Rng(5)
    h = nm.constant(rng.normal((2, 3, 4)))
    t = nm.constant(rng.normal((2, 3, 4)))
    got = score(h, t).values
    for b in range(2):
        for l in range(3):
            dot = float(np.dot(h.values[b, l], t.values[b, l]))
            assert got[b, l] == pytest.approx(dot, abs=1e-12)


def test_score_orthogonal_is_zero_and_aligned_is_unbounded():
    h = nm.constant(np.array([[[1.0, 0.0], [30.0, 40.0]]]))
    t = nm.constant(np.array([[[0.0, 1.0], [30.0, 40.0]]]))
    got = score(h, t).values[0]
    assert got[0] == 0.0
    assert got[1] == 2500.0


def last_position_mask(rows=1):
    mask = np.zeros((rows, 3), dtype=bool)
    mask[:, -1] = True
    return mask


def test_bce_half_half_is_two_log_two():
    zeros = nm.constant(np.zeros((1, 3)))
    loss = nm.bce(zeros, zeros, last_position_mask(), 1)
    assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    # a mean over unpadded positions: three of them give the same value
    zeros = nm.constant(np.zeros((3, 3)))
    loss = nm.bce(zeros, zeros, last_position_mask(3), 3)
    assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_bce_perfect_predictions_nearly_zero():
    loss = nm.bce(nm.constant(np.full((1, 3), 40.0)), nm.constant(np.full((1, 3), -40.0)),
                  last_position_mask(), 1)
    assert 0.0 <= loss.item() <= 2.1e-7


def test_fully_padded_row_contributes_exactly_zero():
    rng = Rng(9)
    z1 = rng.uniform((1, 4), -3.0, 3.0)
    z2 = rng.uniform((1, 4), -3.0, 3.0)
    mask_one = np.array([[False, True, True, True]])
    lone = nm.bce(nm.constant(z1), nm.constant(z2), mask_one, 3).item()

    padded = nm.bce(
        nm.constant(np.concatenate([z1, rng.uniform((1, 4), -3.0, 3.0)])),
        nm.constant(np.concatenate([z2, rng.uniform((1, 4), -3.0, 3.0)])),
        np.concatenate([mask_one, np.zeros((1, 4), dtype=bool)]), 3,
    ).item()
    assert padded == lone


def test_loss_invariant_to_user_order_in_batch():
    ds = tiny_ds()
    cfg = tiny_cfg()
    model = Model(ds.num_items, cfg, Rng(0))

    def loss_of(order):
        batch = batch_of([ds.sequences[u] for u in order], ds.num_items, 6,
                         [Rng(3).child(u) for u in order])
        return bce_loss(model, batch).item()

    assert loss_of([0, 1, 2, 3]) == pytest.approx(loss_of([2, 0, 3, 1]), rel=1e-12)


def test_training_loss_is_one_bce_node():
    ds = tiny_ds()
    batch = batch_of(ds.sequences[:3], ds.num_items, 6, [Rng(3).child(u) for u in range(3)])
    model = Model(ds.num_items, tiny_cfg(encoding="RMHA4", dropout=0.2), Rng(0))
    loss = bce_loss(model, batch, dropout_masks(model.config, 3, Rng(4)))
    ops = [record.op for record in op_records(loss)]
    assert loss.op_record.op == "bce" and ops.count("bce") == 1
    retired = {"sigmoid", "log", "clip", "scale", "add_const", "sum_all"}
    assert not retired & set(ops)
    assert not retired & set(vars(nm))


def op_records(loss):
    """Every op record of loss's backward graph, walked from loss.op_record."""
    records, stack, seen = [], [loss.op_record], set()
    while stack:
        vertex = stack.pop()
        if not isinstance(vertex, OpRecord) or id(vertex) in seen:
            continue
        seen.add(id(vertex))
        records.append(vertex)
        stack.extend(vertex.parents)
    return records


@pytest.mark.parametrize("variant, with_attributes",
                         [(v, False) for v in VARIANTS] + [("LearntCon", True)])
def test_the_graph_holds_no_activations(variant, with_attributes):
    ds = tiny_ds()
    attributes = Rng(4).normal((ds.num_items, 3)) if with_attributes else None
    batch = batch_of(ds.sequences[:3], ds.num_items, 6, [Rng(3).child(u) for u in range(3)])
    model = Model(ds.num_items, tiny_cfg(encoding=variant, dropout=0.3), Rng(0),
                  attributes=attributes)
    loss = bce_loss(model, batch, dropout_masks(model.config, 3, Rng(4)))
    for record in op_records(loss):
        for parent in record.parents:
            assert parent is None or isinstance(parent, OpRecord) or (
                isinstance(parent, nm.TensorNode) and parent.op_record is None), record.op
        for cell in record.push_grads.__closure__ or ():
            try:
                held = cell.cell_contents
            except ValueError:  # a name the op left unbound, such as attend's `sums`
                continue
            assert not (isinstance(held, nm.TensorNode) and held.op_record is not None), record.op


def test_a_games_row_block_graph_stays_under_45_mib():
    """The bytes one games-preset RMHA4 row block's loss leaves allocated: its
    graph, which keeps only what the adjoints read (about 38.8 MiB; every
    activation, as when closures held nodes, is about 68.8 MiB)."""
    config = ModelConfig(**get_preset("games"), encoding="RMHA4")
    rows, num_items = block_rows(config), 200
    model = Model(num_items, config, Rng(0))
    rng = Rng(1)
    batch = batch_of([rng.child(u).integers(0, num_items, (config.max_len + 1,))
                      for u in range(rows)], num_items, config.max_len,
                     [rng.child(100 + u) for u in range(rows)])
    drop = dropout_masks(config, rows, Rng(2))
    tracemalloc.start()
    try:
        loss = bce_loss(model, batch, drop)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.op_record is not None
    assert held < 45 * 2**20, held / 2**20


# ---------------------------------------------------------------------------
# max-norm clamp


def test_max_norm_rescales_three_four_five_row():
    t = nm.parameter(np.array([[3.0, 4.0], [3e-5, 4e-5]]))
    apply_max_norm([t], 1e-4)
    np.testing.assert_allclose(t.values[0], [6e-5, 8e-5], rtol=1e-12)
    np.testing.assert_array_equal(t.values[1], [3e-5, 4e-5])  # already inside


def test_max_norm_none_is_identity():
    t = nm.parameter(np.array([[3.0, 4.0]]))
    before = t.values.copy()
    apply_max_norm([t], None)
    np.testing.assert_array_equal(t.values, before)


@given(rows=st.integers(1, 20), cols=st.integers(1, 8), seed=st.integers(0, 2**16),
       log_scale=st.floats(-6, 6), nmax=st.floats(1e-6, 1e3))
@settings(max_examples=80, deadline=None)
def test_max_norm_is_idempotent(rows, cols, seed, log_scale, nmax):
    values = Rng(seed).normal((rows, cols)) * 10.0 ** log_scale
    t = nm.parameter(values)
    apply_max_norm([t], nmax)
    once = t.values.copy()
    norms = np.linalg.norm(values, axis=1)
    unclamped = norms <= nmax  # rows already inside the bound are left as they are
    np.testing.assert_array_equal(once[unclamped], values[unclamped])
    assert (np.linalg.norm(once, axis=1) <= nmax * (1 + 1e-12)).all()
    apply_max_norm([t], nmax)
    np.testing.assert_array_equal(t.values, once)


def test_max_norm_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(UserError, match="nmax"):
            ModelConfig(nmax=bad)


def test_nan_nmax_means_disabled():
    assert tiny_cfg(nmax=float("nan")).nmax is None


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    for bad in (dict(max_len=1), dict(epochs=0), dict(batch_size=0),
                dict(lr=-1e-4), dict(l2_weight=-0.1), dict(eval_negatives=-1),
                dict(activation="identity"), dict(d=10, heads=3), dict(dropout=1.0),
                dict(d=6, heads=2, encoding="RoPE"),  # head dim 3 is odd
                dict(d=9, heads=3, encoding="Abs"),  # d must be even
                dict(encoding=EncodingConfig("LearntCon", projection_activation="relu")),
                # non-finite rates and non-integer counts
                dict(lr=float("nan")), dict(lr=float("inf")), dict(l2_weight=float("nan")),
                dict(dropout=float("nan")), dict(d=24.0), dict(eval_negatives=float("nan")),
                dict(epochs=True), dict(batch_size="16"), dict(nmax="none"),
                dict(encoding=EncodingConfig("RMHA4", clip_distance=2.5)),
                # encoding options of the wrong type or out of range
                *(dict(encoding=EncodingConfig(variant, rope_base=base))
                  for variant in ("RoPE", "RopeOne")
                  for base in (0, -1.0, float("nan"), float("inf"), "abc", True)),
                dict(encoding=EncodingConfig("RMHA4", use_value_bias="false")),
                dict(encoding=EncodingConfig("RMHA4", use_value_bias=1)),
                dict(encoding=[1])):
        with pytest.raises(UserError):
            tiny_cfg(**bad)
    # integral numpy values are counts too, stored as int
    cfg = tiny_cfg(d=np.int64(8), epochs=np.int32(2))
    assert type(cfg.d) is int and type(cfg.epochs) is int and cfg.d == 8


# one non-default value of every encoding option
ENCODING_OPTIONS = dict(clip_distance=7, rope_base=5.0, use_value_bias=False,
                        projection_activation="identity")


def test_config_round_trips_through_dict():
    for variant in VARIANTS:
        for activation in ("leaky", "silu"):
            cfg = tiny_cfg(encoding=variant, activation=activation, nmax=1e-4)
            assert cfg.encoding.projection_activation == activation
            assert cfg.as_dict()["encoding"] == cfg.encoding.as_dict()
            again = ModelConfig.from_dict(cfg.as_dict())
            assert again == cfg, (variant, activation)
            assert again.nmax == 1e-4 and again.encoding.variant == variant
        for option, value in ENCODING_OPTIONS.items():
            # an option the variant does not read is reset, so the stored
            # form and the config cannot disagree
            cfg = tiny_cfg(encoding=EncodingConfig(variant, **{option: value}),
                           activation="silu")
            assert ModelConfig.from_dict(cfg.as_dict()) == cfg, (variant, option)
            if option not in cfg.encoding.as_dict():
                value = "silu" if option == "projection_activation" else (
                    getattr(EncodingConfig(), option))
            assert getattr(cfg.encoding, option) == value, (variant, option)


def test_config_rejects_unknown_keys():
    with pytest.raises(UserError):
        ModelConfig.from_dict({"d": 8, "momentum": 0.9})
    with pytest.raises(UserError):
        ModelConfig.from_dict({"encoding": {"variant": "RoPE", "base": 500.0}})


# ---------------------------------------------------------------------------
# training loop


def test_lr_zero_is_a_dry_run():
    ds = tiny_ds()
    cfg = tiny_cfg(lr=0.0, epochs=1, dropout=0.2)
    result = train(cfg, ds)
    fresh = Model(ds.num_items, cfg, Rng(cfg.seed).child(0))
    for (name, trained), (_, init) in zip(result.model.parameters(), fresh.parameters()):
        assert np.array_equal(trained.values, init.values), name


def test_training_is_deterministic(tmp_path):
    ds = tiny_ds()
    cfg = tiny_cfg(epochs=4, dropout=0.1)
    a = train(cfg, ds)
    b = train(cfg, ds)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_history_tsv(a.history, str(pa))
    write_history_tsv(b.history, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    assert a.test_hit == b.test_hit and a.best_epoch == b.best_epoch


@pytest.mark.parametrize("encoding, dropout", [("Learnt", 0.3), ("RMHA4", 0.0)])
def test_a_run_stepped_by_hand_through_run_epoch_equals_train(encoding, dropout, tmp_path):
    """start_run, then run_epoch for each epoch (the fifth skips validation),
    then train's finish: the seam a resumed or observed run steps through."""
    ds, cfg = tiny_ds(), tiny_cfg(encoding=encoding, dropout=dropout, epochs=6)
    trained = train(cfg, ds)
    run = start_run(cfg, ds)
    for epoch in range(1, cfg.epochs + 1):
        run_epoch(run, epoch)
    run.model.restore(run.best_values)
    test = evaluate(run.model, run.split.test, cfg.eval_negatives,
                    Rng(cfg.seed).child(TEST_EVAL_STREAM))
    run.history.append(MetricRecord(run.best_epoch, "test", math.nan,
                                    100.0 * test.hit_at_10, 100.0 * test.ndcg))
    for name, result in (("train.tsv", trained), ("by_hand.tsv", run)):
        write_history_tsv(result.history, str(tmp_path / name))
    assert (tmp_path / "train.tsv").read_bytes() == (tmp_path / "by_hand.tsv").read_bytes()
    assert [r.split for r in run.history].count("valid") == 5
    for (name, a), (other, b) in zip(trained.model.parameters(), run.model.parameters(),
                                     strict=True):
        assert name == other and np.array_equal(a.values, b.values), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_epoch():
    # lr this large pushes weights past overflow, poisoning the next forward
    ds = tiny_ds()
    with pytest.raises(TrainingDiverged) as err:
        train(tiny_cfg(lr=1e200, epochs=4), ds)
    assert err.value.epoch >= 1


def test_validation_epochs_follow_log_schedule():
    ds = tiny_ds()
    total = 20
    result = train(tiny_cfg(epochs=total), ds)
    got = [r.epoch for r in result.history if r.split == "valid"]
    expected, last = [], 0
    for epoch in range(1, total + 1):
        if epoch == 1 or epoch == total or epoch >= last * 1.3:
            expected.append(epoch)
            last = epoch
    assert got == expected


def test_best_checkpoint_is_first_validation_peak():
    """The TrainResult repeats its history: the first valid row with the
    highest Hit, and the one test row."""
    ds = tiny_ds(users=20, seq_len=8)
    result = train(tiny_cfg(epochs=12, lr=3e-3, encoding="Learnt"), ds)
    valid = [r for r in result.history if r.split == "valid"]
    first_peak = next(r for r in valid if r.hit == max(v.hit for v in valid))
    assert (result.best_epoch, result.valid_hit, result.valid_ndcg) == (
        first_peak.epoch, first_peak.hit, first_peak.ndcg)
    test_rows = [r for r in result.history if r.split == "test"]
    assert len(test_rows) == 1
    assert (test_rows[0].epoch, test_rows[0].hit, test_rows[0].ndcg) == (
        first_peak.epoch, result.test_hit, result.test_ndcg)


def test_short_train_sequences_are_skipped(tmp_path):
    lines = []
    for u in range(3):
        for t in range(4):
            lines.append(f"long{u}\titem{u}_{t}\t{t}")
    lines += ["shortA\tx\t0", "shortA\ty\t1", "shortB\tx\t0", "shortB\ty\t1"]
    path = tmp_path / "log.tsv"
    path.write_text("\n".join(lines) + "\n")
    ds = load_interactions(str(path))
    result = train(tiny_cfg(epochs=1), ds)
    assert result.skipped_users == 2  # len-2 users have empty train splits


def test_max_norm_enforced_during_training():
    ds = tiny_ds()
    cfg = tiny_cfg(encoding="Learnt", nmax=1e-4, epochs=3, lr=1e-2)
    result = train(cfg, ds)
    for table in result.model.clamped_tables():
        norms = np.linalg.norm(table.values, axis=-1)
        assert (norms <= 1e-4 * (1 + 1e-9)).all()
    assert len(result.model.clamped_tables()) == 2  # item table + position table


def test_l2_weight_changes_the_trajectory():
    ds = tiny_ds()
    plain = train(tiny_cfg(epochs=2), ds)
    decayed = train(tiny_cfg(epochs=2, l2_weight=0.1), ds)
    assert not np.array_equal(plain.model.item_table.values,
                              decayed.model.item_table.values)


def test_attribute_fusion_trains_and_round_trips(tmp_path):
    ds = tiny_ds()
    ds.attributes = Rng(7).normal((ds.num_items, 3))
    result = train(tiny_cfg(epochs=1), ds)
    names = [n for n, _ in result.model.parameters()]
    assert "fuse_weight" in names and "fuse_bias" in names
    path = str(tmp_path / "ck.npz")
    save_checkpoint(result.model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(again.attribute_table.values,
                                  result.model.attribute_table.values)
    np.testing.assert_array_equal(again.fuse_weight.values,
                                  result.model.fuse_weight.values)


# ---------------------------------------------------------------------------
# checkpoints


# ---------------------------------------------------------------------------
# the ranking forward


def padded_inputs(contexts, max_len):
    """Model-space inputs and mask, left-padded and cut to max_len."""
    inputs = np.zeros((len(contexts), max_len), dtype=np.int64)
    mask = np.zeros((len(contexts), max_len), dtype=bool)
    for b, ctx in enumerate(contexts):
        ctx = np.asarray(ctx)[-max_len:]
        inputs[b, max_len - ctx.size:] = ctx + 1
        mask[b, max_len - ctx.size:] = True
    return inputs, mask


@pytest.mark.parametrize("with_attributes", [False, True])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_final_hidden_is_last_row_of_hidden_states(variant, blocks, with_attributes):
    num_items = 15
    attributes = Rng(4).normal((num_items, 3)) if with_attributes else None
    model = Model(num_items, tiny_cfg(encoding=variant, blocks=blocks), Rng(5),
                  attributes=attributes)
    random_rel_tables(model)
    # max_len is 6: left-padded short contexts, one exactly full, one cut
    contexts = [[3], [4, 1, 9], [0, 2, 4, 6, 8, 10], list(range(14, 3, -1))]
    inputs, mask = padded_inputs(contexts, model.config.max_len)
    expected = model.hidden_states(inputs, mask).values[:, -1]
    np.testing.assert_allclose(model.final_hidden(contexts), expected, rtol=0, atol=1e-12)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    model = Model(15, tiny_cfg(), Rng(5))
    path = str(tmp_path / "checkpoint.npz")
    save_checkpoint(model, path)
    before = Path(path).read_bytes()

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError):
        save_checkpoint(model, path)
    assert Path(path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]


def set_block_rows(monkeypatch, config, rows):
    """Patch the byte budget so that block_rows(config) == rows."""
    widest = max(config.g, config.d, config.heads * config.max_len)
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", rows * 8 * config.max_len * widest)
    assert block_rows(config) == rows


def random_rel_tables(model):
    """Random values for RMHA4's zero-initialised bias tables, so the offsets matter."""
    tables = model.encoding_tables
    for i, table in enumerate((tables.rel_key_table, tables.rel_value_table)):
        if table is not None:
            table.values = Rng(6, i).normal(table.shape)


@pytest.mark.parametrize("with_attributes", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_row_blocks_give_the_whole_batch_loss_and_gradients(variant, with_attributes,
                                                            monkeypatch):
    num_items = 15
    attributes = Rng(4).normal((num_items, 3)) if with_attributes else None
    config = tiny_cfg(encoding=variant, dropout=0.3)
    rng = Rng(8)
    # 7 rows of 1 to 8 positions (max_len 6: padded, full and cut rows)
    batch = batch_of([rng.child(u).integers(0, num_items, (2 + u,)) for u in range(7)],
                     num_items, config.max_len, [rng.child(100 + u) for u in range(7)])

    def run(rows):
        set_block_rows(monkeypatch, config, rows)
        model = Model(num_items, config, Rng(5), attributes=attributes)
        random_rel_tables(model)
        loss = _loss_and_gradients(model, batch, Rng(9, 2))
        return loss, {name: node.adjoint for name, node in model.parameters()}

    whole_loss, whole = run(7)
    blocked_loss, blocked = run(3)  # blocks of 3, 3 and 1 rows
    assert blocked_loss == pytest.approx(whole_loss, rel=1e-12, abs=0)
    assert whole.keys() == blocked.keys()
    for name, adjoint in whole.items():
        assert (adjoint is None) == (blocked[name] is None), name
        if adjoint is not None:
            np.testing.assert_allclose(blocked[name], adjoint, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluation_applies_no_dropout(variant):
    ds = tiny_ds()
    dropped = Model(ds.num_items, tiny_cfg(encoding=variant, dropout=0.5), Rng(5))
    random_rel_tables(dropped)
    plain = Model(ds.num_items, tiny_cfg(encoding=variant), Rng(5))
    plain.restore(dropped.snapshot())
    contexts = [[3], [4, 1, 9], [0, 2, 4, 6, 8, 10], list(range(14, 3, -1))]
    assert np.array_equal(dropped.final_hidden(contexts), plain.final_hidden(contexts))
    test_rows = leave_one_out(ds).test
    ranks = [evaluate(m, test_rows, 5, Rng(3)).per_user_ranks for m in (dropped, plain)]
    assert ranks[0] == ranks[1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_final_hidden_equals_one_block(variant, monkeypatch):
    config = tiny_cfg(encoding=variant)
    model = Model(15, config, Rng(5))
    random_rel_tables(model)
    contexts = [[3], [4, 1, 9], [0, 2, 4, 6, 8, 10], list(range(14, 3, -1)), [7, 7]]
    set_block_rows(monkeypatch, config, len(contexts))
    whole = model.final_hidden(contexts)
    set_block_rows(monkeypatch, config, 2)
    np.testing.assert_allclose(model.final_hidden(contexts), whole, rtol=0, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    ds = tiny_ds()
    result = train(tiny_cfg(epochs=1, encoding="Rotatory"), ds)
    path = str(tmp_path / "model.npz")
    save_checkpoint(result.model, path)
    again = load_checkpoint(path)
    for (n1, p1), (n2, p2) in zip(result.model.parameters(), again.parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.values, p2.values)
    ctx = ds.sequences[0][:-1]
    np.testing.assert_allclose(again.final_hidden([ctx]),
                               result.model.final_hidden([ctx]), atol=1e-15)


# metadata of a silu RotatoryCon model, whose concat projection inherits
# the activation, as the current writer stores it: each value once
WRITTEN_META = (
    '{"config": {"activation": "silu", "batch_size": 8, "blocks": 2, "d": 8, '
    '"dropout": 0.2, "encoding": {"projection_activation": "silu", "variant": "RotatoryCon"}, '
    '"epochs": 4, "eval_negatives": 20, "g": 16, "heads": 2, "l2_weight": 0.0, '
    '"lr": 0.003, "max_len": 6, "nmax": null, "seed": 3}, "format_version": 1, '
    '"has_attributes": false, "num_items": 30}'
)
# the same model as format 1's first writer stored it: an extra_epochs, and
# max_len and d repeated in the encoding mapping
FIRST_WRITER_META = WRITTEN_META.replace(
    '"encoding": {', '"encoding": {"max_len": 6, "model_dim": 8, ').replace(
    '"eval_negatives": 20, ', '"eval_negatives": 20, "extra_epochs": 0, ')


def _with_meta(path, meta: str) -> None:
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    np.savez(path, **{**arrays, "__meta__": np.array(meta)})


def test_checkpoint_metadata_is_written_with_each_value_once(tmp_path):
    config = ModelConfig.from_dict(json.loads(WRITTEN_META)["config"])
    path = str(tmp_path / "ck.npz")
    save_checkpoint(Model(30, config, Rng(config.seed)), path)
    with np.load(path, allow_pickle=False) as archive:
        assert str(archive["__meta__"]) == WRITTEN_META
        names = [k[len("param:"):] for k in archive.files if k.startswith("param:")]
    assert load_checkpoint(path).config == config
    assert [n for n in names if not n.startswith("block")] == [
        "item_table", "angle_table", "projection_weight", "projection_bias",
        "final_gain", "final_bias"]


@pytest.mark.parametrize("meta, refusal", [
    (FIRST_WRITER_META, "unknown model config keys: extra_epochs"),
    (FIRST_WRITER_META.replace('"extra_epochs": 0', '"extra_epochs": 3'),
     "unknown model config keys: extra_epochs"),
    (FIRST_WRITER_META.replace('"extra_epochs": 0', '"extra_epochs": 1.5'),
     "unknown model config keys: extra_epochs"),
    (FIRST_WRITER_META.replace('"extra_epochs": 0, ', ''),
     "unknown encoding keys: max_len, model_dim"),
], ids=["first-writer", "extra-epochs-3", "extra-epochs-1.5", "encoding-copies"])
def test_checkpoint_of_the_first_writer_exits_1_naming_the_file_and_key(tmp_path, capsys,
                                                                        meta, refusal):
    # only format 1 as this version writes it loads
    ds = synth.build_dataset("positional", users=12, items=30, seq_len=8, seed=0)
    config = ModelConfig.from_dict(json.loads(WRITTEN_META)["config"])
    path = str(tmp_path / "ck.npz")
    save_checkpoint(Model(ds.num_items, config, Rng(config.seed)), path, ds)
    _with_meta(path, meta)
    data = str(tmp_path / "log.tsv")
    save_interactions(ds, data)
    assert cli.main(["evaluate", path, "--data", data]) == 1
    assert capsys.readouterr().err == f"error: {path}: {refusal}\n"


def test_checkpoint_is_checked_against_the_dataset_it_is_used_on(tmp_path):
    ds = tiny_ds("positional")
    other = tiny_ds("positional", seed=9)  # same sizes, other content
    assert other.num_items == ds.num_items and other.identity != ds.identity
    model = Model(ds.num_items, tiny_cfg(), Rng(1))
    path = str(tmp_path / "ck.npz")
    save_checkpoint(model, path, ds)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
    assert meta["dataset_sha256"] == ds.identity["sha256"]
    load_checkpoint(path, ds)
    load_checkpoint(path)  # no dataset, no check
    with pytest.raises(UserError, match=f"sha256 {ds.identity['sha256'][:12]}, this dataset "
                                        f"has {other.identity['sha256'][:12]}"):
        load_checkpoint(path, other)
    with pytest.raises(UserError, match="trained over 15 items, dataset has 9"):
        load_checkpoint(path, tiny_ds("positional", items=9))
    # a checkpoint that holds no hash gets the item-count check only
    save_checkpoint(model, path)
    load_checkpoint(path, other)


NO_VALUE_BIAS = EncodingConfig("RMHA4", use_value_bias=False)


def test_rmha4_without_value_bias_trains_and_stores_no_value_table(tmp_path):
    result = train(tiny_cfg(epochs=1, encoding=NO_VALUE_BIAS), tiny_ds())
    names = [n for n, _ in result.model.parameters()]
    assert "rel_key_table" in names and "rel_value_table" not in names
    path = str(tmp_path / "ck.npz")
    save_checkpoint(result.model, path)
    with np.load(path, allow_pickle=False) as archive:
        assert "param:rel_key_table" in archive.files
        assert "param:rel_value_table" not in archive.files


def test_checkpoint_with_an_unread_value_table_loads_and_ranks_as_before(tmp_path):
    # checkpoints written while every RMHA4 model kept a value table carry a
    # zero one even when use_value_bias is false; nothing reads it
    ds = tiny_ds()
    result = train(tiny_cfg(epochs=1, encoding=NO_VALUE_BIAS), ds)
    path = str(tmp_path / "ck.npz")
    save_checkpoint(result.model, path)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["param:rel_value_table"] = np.zeros_like(arrays["param:rel_key_table"])
    np.savez(path, **arrays)
    test_rows = leave_one_out(ds).test
    ranks = [evaluate(model, test_rows, 5, Rng(3).child(model_module.TEST_EVAL_STREAM))
             .per_user_ranks for model in (result.model, load_checkpoint(path))]
    assert ranks[1] == ranks[0]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_text("not a checkpoint")
    with pytest.raises(UserError):
        load_checkpoint(str(path))


def test_checkpoint_missing_parameter_detected(tmp_path):
    ds = tiny_ds()
    model = Model(ds.num_items, tiny_cfg(), Rng(1))
    path = str(tmp_path / "ck.npz")
    save_checkpoint(model, path)
    with np.load(path, allow_pickle=False) as archive:
        kept = {k: archive[k] for k in archive.files if k != "param:final_gain"}
    np.savez(path, **kept)
    with pytest.raises(UserError):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_non_finite_parameter_is_rejected(tmp_path, bad):
    # a NaN item score would rank first and report a perfect Hit@10
    ds = tiny_ds()
    model = Model(ds.num_items, tiny_cfg(), Rng(1))
    model.item_table.values[3, 0] = bad
    path = str(tmp_path / "ck.npz")
    save_checkpoint(model, path)
    with pytest.raises(UserError, match="item_table"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# gradients through the whole model


def condition_for_fd(model, rng):
    """Redraw the embedding-scale tables at a larger magnitude.

    At the default 0.02 init the layer-norm input variance sits near eps,
    where the loss curvature makes h=1e-5 central differences truncation-
    dominated; the comparison needs a well-conditioned parameter point.
    """
    table = model.item_table
    table.values = rng.child(0).normal(table.values.shape, scale=0.4)
    pos = model.encoding_tables.position_table
    if pos is not None:
        pos.values = rng.child(1).normal(pos.values.shape, scale=0.4)


@pytest.mark.parametrize("variant", ["Learnt", "RMHA4", "RoPE"])
def test_full_model_gradients_match_finite_differences(variant):
    cfg = ModelConfig(d=8, g=8, blocks=2, heads=2, max_len=5, encoding=variant,
                      epochs=1, seed=13)
    model = Model(9, cfg, Rng(21))
    condition_for_fd(model, Rng(23))
    rng = Rng(22)
    batch = batch_of([rng.child(u).integers(0, 9, (4,)) for u in range(2)], 9, 5,
                     [rng.child(100 + u) for u in range(2)])
    # floor 1e-6: entries seven orders below the loss scale sit at central-
    # difference roundoff (~eps*f/2h) and carry no signal to compare against
    report = check_gradients(lambda: bce_loss(model, batch), model.parameters(), floor=1e-6)
    assert report.max_rel_err < 1e-4, report.worst_param


# ---------------------------------------------------------------------------
# memory

FAULT_SCRIPT = """
import resource
from posrec import synth
from posrec.model import ModelConfig, train

dataset = synth.build_dataset("positional", 64, 150, 49, 11)
config = ModelConfig(d=24, g=48, blocks=1, heads=2, max_len=48, encoding="RMHA4",
                     lr=5e-3, epochs=2, batch_size=16)
train(config, dataset)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(config, dataset)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_a_warm_training_run_reuses_the_heap_instead_of_faulting_pages():
    # a step's freed activations stay in the heap for the next step; handed
    # back to the kernel, they cost ~1000 page faults per step
    src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
    got = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                         timeout=120)
    assert got.returncode == 0, got.stderr
    assert int(got.stdout) < 500
