"""Batch construction, loss, clamp, and the training loop contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posrec import synth
from posrec.data import load_interactions
from posrec.encodings import VARIANTS, EncodingConfig
from posrec.errors import GraphError, TrainingDiverged, UserError
from posrec import model as model_module
from posrec.model import (
    Model,
    ModelConfig,
    SequenceBatch,
    _loss_and_gradients,
    apply_max_norm,
    bce_loss,
    block_rows,
    build_sequences,
    load_checkpoint,
    save_checkpoint,
    score,
    train,
    write_history_tsv,
)
from posrec import numeric as nm
from posrec.numeric import Rng, check_gradients


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


def test_build_sequences_shifts_by_one():
    row = build_sequences([3, 7, 1, 9], num_items=12, max_len=6, rng=Rng(1))
    np.testing.assert_array_equal(row.inputs[0], [0, 0, 0, 4, 8, 2])
    np.testing.assert_array_equal(row.positives[0], [0, 0, 0, 8, 2, 10])
    np.testing.assert_array_equal(row.mask[0], [False, False, False, True, True, True])


def test_build_sequences_keeps_most_recent():
    row = build_sequences(np.arange(10), num_items=20, max_len=4, rng=Rng(1))
    np.testing.assert_array_equal(row.inputs[0], np.array([5, 6, 7, 8]) + 1)
    np.testing.assert_array_equal(row.positives[0], np.array([6, 7, 8, 9]) + 1)
    assert row.mask.all()


def test_length_two_history_single_position():
    row = build_sequences([4, 2], num_items=10, max_len=6, rng=Rng(1))
    assert row.positions == 1
    assert row.inputs[0, -1] == 5 and row.positives[0, -1] == 3


def test_too_short_history_yields_none():
    assert build_sequences([4], num_items=10, max_len=6, rng=Rng(1)) is None


def test_negatives_never_collide_with_history():
    history = np.arange(101)  # items 0..100 of a 150-item catalogue
    seen = set((history + 1).tolist())
    rng = Rng(11)
    drawn = 0
    for k in range(100):
        row = build_sequences(history, num_items=150, max_len=100, rng=rng.child(k))
        negs = row.negatives[row.mask]
        drawn += negs.size
        assert not (set(negs.tolist()) & seen)
        assert (negs >= 1).all() and (negs <= 150).all()
    assert drawn == 10_000


def test_history_covering_catalogue_rejected():
    with pytest.raises(UserError):
        build_sequences(np.arange(10), num_items=10, max_len=12, rng=Rng(1))


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
    rows = [build_sequences(ds.sequences[u], ds.num_items, 6, Rng(3).child(u))
            for u in range(4)]
    cfg = tiny_cfg()
    model = Model(ds.num_items, cfg, Rng(0))

    def loss_of(order):
        return bce_loss(model, SequenceBatch.stack([rows[i] for i in order])).item()

    assert loss_of([0, 1, 2, 3]) == pytest.approx(loss_of([2, 0, 3, 1]), rel=1e-12)


def test_training_loss_is_one_bce_node():
    ds = tiny_ds()
    rows = [build_sequences(ds.sequences[u], ds.num_items, 6, Rng(3).child(u))
            for u in range(3)]
    model = Model(ds.num_items, tiny_cfg(encoding="RMHA4", dropout=0.2), Rng(0))
    loss = bce_loss(model, SequenceBatch.stack(rows), rng=Rng(4), train=True)
    ops, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.op_record is None:
            continue
        seen.add(id(node))
        ops.append(node.op_record.op)
        stack.extend(node.op_record.parents)
    assert loss.op_record.op == "bce" and ops.count("bce") == 1
    retired = {"sigmoid", "log", "clip", "scale", "add_const", "sum_all"}
    assert not retired & set(ops)
    assert not retired & set(vars(nm))


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
    t = nm.parameter(np.ones((2, 2)))
    with pytest.raises(UserError):
        apply_max_norm([t], 0.0)
    with pytest.raises(UserError):
        ModelConfig(nmax=-1.0)


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
                dict(encoding=EncodingConfig("RMHA4", clip_distance=2.5))):
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
            cfg = tiny_cfg(encoding=variant, activation=activation, nmax=1e-4, extra_epochs=3)
            assert cfg.encoding.projection_activation == activation
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
    ds = tiny_ds(users=20, seq_len=8)
    result = train(tiny_cfg(epochs=12, lr=3e-3, encoding="Learnt"), ds)
    valid = [(r.epoch, r.hit) for r in result.history if r.split == "valid"]
    best_hit = max(h for _, h in valid)
    first_peak = next(e for e, h in valid if h == best_hit)
    assert result.best_epoch == first_peak
    test_rows = [r for r in result.history if r.split == "test"]
    assert len(test_rows) == 1 and test_rows[0].epoch == first_peak


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
    if model.rel_tables is not None:  # zero-initialised: make the offsets matter
        for i, table in enumerate(model.rel_tables):
            table.values = Rng(6, i).normal(table.shape)
    # max_len is 6: left-padded short contexts, one exactly full, one cut
    contexts = [[3], [4, 1, 9], [0, 2, 4, 6, 8, 10], list(range(14, 3, -1))]
    inputs, mask = padded_inputs(contexts, model.config.max_len)
    expected = model.hidden_states(inputs, mask).values[:, -1]
    np.testing.assert_allclose(model.final_hidden(contexts), expected, rtol=0, atol=1e-12)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    model = Model(15, tiny_cfg(), Rng(5))
    path = str(tmp_path / "checkpoint.npz")
    save_checkpoint(model, path)
    before = open(path, "rb").read()

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError):
        save_checkpoint(model, path)
    assert open(path, "rb").read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]


def set_block_rows(monkeypatch, config, rows):
    """Patch the byte budget so that block_rows(config) == rows."""
    widest = max(config.g, config.d, config.heads * config.max_len)
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", rows * 8 * config.max_len * widest)
    assert block_rows(config) == rows


def random_rel_tables(model):
    if model.rel_tables is not None:  # zero-initialised: make the offsets matter
        for i, table in enumerate(model.rel_tables):
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
    batch = SequenceBatch.stack([
        build_sequences(rng.child(u).integers(0, num_items, (2 + u,)), num_items,
                        config.max_len, rng.child(100 + u))
        for u in range(7)
    ])

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


# metadata of a checkpoint written by format 1's first writer: a silu
# RotatoryCon model, whose concat projection inherits the activation
STORED_META = (
    '{"config": {"activation": "silu", "batch_size": 8, "blocks": 2, "d": 8, '
    '"dropout": 0.2, "encoding": {"max_len": 6, "model_dim": 8, '
    '"projection_activation": "silu", "variant": "RotatoryCon"}, "epochs": 4, '
    '"eval_negatives": 20, "extra_epochs": 0, "g": 16, "heads": 2, "l2_weight": 0.0, '
    '"lr": 0.003, "max_len": 6, "nmax": null, "seed": 3}, "format_version": 1, '
    '"has_attributes": false, "num_items": 30}'
)


def test_checkpoint_metadata_keeps_the_stored_format(tmp_path):
    config = ModelConfig.from_dict(json.loads(STORED_META)["config"])
    path = str(tmp_path / "ck.npz")
    save_checkpoint(Model(30, config, Rng(config.seed)), path)
    with np.load(path, allow_pickle=False) as archive:
        assert str(archive["__meta__"]) == STORED_META
        names = [k[len("param:"):] for k in archive.files if k.startswith("param:")]
    assert load_checkpoint(path).config == config
    assert [n for n in names if not n.startswith("block")] == [
        "item_table", "angle_table", "projection_weight", "projection_bias",
        "final_gain", "final_bias"]


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
    rows = [build_sequences(rng.child(u).integers(0, 9, (4,)), 9, 5, rng.child(100 + u))
            for u in range(2)]
    batch = SequenceBatch.stack(rows)
    # floor 1e-6: entries seven orders below the loss scale sit at central-
    # difference roundoff (~eps*f/2h) and carry no signal to compare against
    report = check_gradients(lambda: bce_loss(model, batch), model.parameters(), floor=1e-6)
    assert report.max_rel_err < 1e-4, report.worst_param
