"""Acceptance gate: one test per shipped guarantee, in order.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Every tolerance is pinned inline so each test reads standalone;
the expensive multi-seed sweeps are shared through a module fixture.
"""

import math
import time

import numpy as np
import pytest

from gradcheck import check_gradients
from posrec import numeric as nm
from posrec import synth
from posrec.attention import relative_attention, scaled_dot_attention
from posrec.data import EvalRow, _assemble
from posrec.encodings import EncodingTables, rope_rotate, rotatory_table
from posrec.metrics import evaluate, ndcg_single
from posrec.model import (
    Model,
    ModelConfig,
    bce_loss,
    build_sequences,
    train,
    write_history_tsv,
)
from posrec.numeric import Rng
from posrec.stability import aggregate, recommend_encoding, sweep


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


GRAD_VARIANTS = ("Learnt", "LearntCon", "AbsCon", "Rotatory", "RotatoryCon", "RMHA4")


def _conditioned_model(variant, seed):
    """Tiny model at a smooth parameter point.

    The 0.02 init leaves layer-norm input variance near eps, where h=1e-5
    central differences are truncation-dominated; redrawing the embedding-
    scale tables at 0.4 moves the check to a well-conditioned point.
    """
    # silu keeps the loss smooth: central differences straddle the kink of
    # the piecewise-linear activation whenever a unit sits within h of zero
    cfg = ModelConfig(d=8, g=8, blocks=2, heads=2, max_len=5, encoding=variant,
                      activation="silu", epochs=1, seed=seed)
    model = Model(9, cfg, Rng(seed))
    rng = Rng(1000 + seed)
    model.item_table.values = rng.child(0).normal(model.item_table.values.shape, scale=0.4)
    pos = model.encoding_tables.position_table
    if pos is not None:
        pos.values = rng.child(1).normal(pos.values.shape, scale=0.4)
    return model


def _tiny_batch(seed):
    rng = Rng(2000 + seed)
    histories = [rng.child(u).integers(0, 9, (4,)) for u in range(2)]
    return build_sequences(histories, [np.unique(h) for h in histories], 9, 5,
                           [rng.child(100 + u) for u in range(2)])


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst = {}
    for variant in GRAD_VARIANTS:
        errs = []
        for seed in range(5):
            model = _conditioned_model(variant, seed)
            batch = _tiny_batch(seed)

            # floor 1e-6: entries seven orders below the loss scale sit at
            # central-difference roundoff and carry no comparable signal
            report = check_gradients(lambda: bce_loss(model, batch), model.parameters(),
                                     h=1e-5, floor=1e-6)
            errs.append(report.max_rel_err)
            assert report.max_rel_err < 1e-4, (variant, seed, report.worst_param)
        worst[variant] = max(errs)
    elapsed = time.time() - t0
    print("criterion 1: gradient suite "
          + "  ".join(f"{v}={e:.2e}" for v, e in worst.items())
          + f"  ({elapsed:.0f}s)")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 2: rotation offset identity


def test_criterion_02_rope_offset_identity():
    for d_h in (4, 8, 16):
        rng = Rng(77, d_h)
        for _ in range(100):
            q = rng.normal((d_h,))
            k = rng.normal((d_h,))
            m = int(rng.integers(0, 64))
            n = int(rng.integers(0, 64))
            qm = rope_rotate(nm.tensor(q[None, :]), positions=np.array([m])).values[0]
            kn = rope_rotate(nm.tensor(k[None, :]), positions=np.array([n])).values[0]
            qmn = rope_rotate(nm.tensor(q[None, :]), positions=np.array([m - n])).values[0]
            assert abs(float(qm @ kn) - float(qmn @ k)) < 1e-10, (d_h, m, n)


# ---------------------------------------------------------------------------
# criterion 3: trainable rotation rows keep unit pair norms


def test_criterion_03_rotatory_unit_pair_norm():
    for max_len in (1, 35, 75):
        for d in (4, 90):
            angles = nm.parameter(
                Rng(17, max_len + d).normal((max_len, d // 2), scale=3.0))
            rows = rotatory_table(angles).values
            pair_norm = rows[:, 0::2] ** 2 + rows[:, 1::2] ** 2
            np.testing.assert_allclose(pair_norm, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 4: relative attention vs a double-loop oracle


def _loop_relative(q, k, v, a_k, a_v, clip, keep):
    L, d_h = q.shape
    out = np.zeros_like(v)
    for i in range(L):
        logits, cols = [], []
        for j in range(L):
            if keep[i, j]:
                r = min(max(j - i, -clip), clip) + clip
                logits.append((float(q[i] @ k[j]) + float(q[i] @ a_k[r])) / np.sqrt(d_h))
                cols.append(j)
        e = np.exp(np.array(logits) - max(logits))
        p = e / e.sum()
        for p_ij, j in zip(p, cols):
            r = min(max(j - i, -clip), clip) + clip
            out[i] += p_ij * (v[j] + a_v[r])
    return out


def test_criterion_04_relative_attention_oracle():
    clip = 4
    for L, d_h in ((5, 6), (8, 4)):
        rng = Rng(4, L)
        q, k, v = (rng.normal((L, d_h)) for _ in range(3))
        a_k = rng.normal((2 * clip + 1, d_h))
        a_v = rng.normal((2 * clip + 1, d_h))
        keep = np.tril(np.ones((L, L), dtype=bool))
        out = relative_attention(
            nm.tensor(q[None, None]), nm.tensor(k[None, None]),
            nm.tensor(v[None, None]),
            nm.tensor(a_k), nm.tensor(a_v), keep[None, None],
        )
        expected = _loop_relative(q, k, v, a_k, a_v, clip, keep)
        np.testing.assert_allclose(out.values[0, 0], expected, atol=1e-10)

    # zeroed tables reduce it to standard attention
    rng = Rng(5)
    L, d_h = 7, 4
    q = nm.tensor(rng.normal((2, 2, L, d_h)))
    k = nm.tensor(rng.normal((2, 2, L, d_h)))
    v = nm.tensor(rng.normal((2, 2, L, d_h)))
    keep = np.tril(np.ones((L, L), dtype=bool))[None, None]
    tables = EncodingTables.create(ModelConfig(d=d_h, heads=1, encoding="RMHA4"), Rng(5, 1))
    rel = relative_attention(q, k, v, tables.rel_key_table, tables.rel_value_table, keep)
    std = scaled_dot_attention(q, k, v, keep)
    np.testing.assert_allclose(rel.values, std.values, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 5: confidence-interval anchors


def _rows_with_moments(mean, dev, runs):
    """Exact sample moments: two symmetric outliers, the rest at the mean."""
    values = np.full(runs, mean)
    if runs > 1:
        spread = dev * math.sqrt((runs - 1) / 2.0)
        values[0] += spread
        values[1] -= spread
    return [{"seed": s, "status": "ok", "hit": float(v), "ndcg": float(v)}
            for s, v in enumerate(values)]


def test_criterion_05_ci_anchors():
    s = aggregate(_rows_with_moments(56.00, 0.96, 9))
    assert s.ci[0] == pytest.approx(55.37, abs=0.01)
    assert s.ci[1] == pytest.approx(56.63, abs=0.01)
    assert s.ci_length == pytest.approx(1.26, abs=0.01)

    s = aggregate(_rows_with_moments(67.93, 4.17, 5))
    assert s.ci[0] == pytest.approx(64.27, abs=0.01)
    assert s.ci[1] == pytest.approx(71.59, abs=0.01)
    assert s.ci_length == pytest.approx(7.32, abs=0.01)
    print("criterion 5: CI anchors (55.37, 56.63)/1.26 and (64.27, 71.59)/7.32")


# ---------------------------------------------------------------------------
# criterion 6: corpus density anchors


def _counts_dataset(user_counts, num_items):
    rows = []
    item = 0
    for u, count in enumerate(user_counts):
        for t in range(count):
            rows.append((str(u), str(item % num_items), float(t)))
            item += 1
    return _assemble(rows, min_interactions=2, source="counts")


def test_criterion_06_density_anchors():
    cases = [
        ([8] * 29480 + [7] * 22724, 57289, 1.320e-4),
        ([8] * 4391 + [7] * 5609, 45129, 1.648e-4),
    ]
    for user_counts, num_items, anchor in cases:
        ds = _counts_dataset(user_counts, num_items)
        assert ds.num_users == len(user_counts)
        assert ds.num_items == num_items
        assert ds.density == pytest.approx(anchor, rel=0.005)


# ---------------------------------------------------------------------------
# criterion 7: ranking-metric oracles


def test_criterion_07_metric_oracles():
    # twelve candidates with distinct scores; walk the truth through every
    # rank and compare against a brute-force sort
    num = 12
    scores = np.arange(num, 0, -1, dtype=np.float64)  # item i scores num - i
    item_values = np.zeros((num + 2, 1))
    item_values[1:num + 1, 0] = scores  # +1: model id space reserves 0 for padding
    item_values[num + 1, 0] = 100.0  # the context item: seen, so never a candidate

    class FixedScorer:  # every hidden state is 1, so item i scores item_values[i + 1]
        num_items = num + 1
        item_table = type("T", (), {"values": item_values})()

        def final_hidden(self, contexts):
            return np.ones((len(contexts), 1))

    rows = [EvalRow(user=truth, context=np.array([num]), target=truth) for truth in range(num)]
    result = evaluate(FixedScorer(), rows, 0, Rng(0))
    assert result.candidate_count == num
    for truth, got in enumerate(result.per_user_ranks):
        oracle_rank = 1 + int(np.sum(scores > scores[truth]))
        assert got == oracle_rank
        oracle_hit = 1.0 if oracle_rank <= 10 else 0.0
        oracle_ndcg = 1.0 / math.log2(oracle_rank + 1) if oracle_rank <= 10 else 0.0
        assert float(got <= 10) == oracle_hit
        assert ndcg_single(got) == oracle_ndcg
    assert ndcg_single(3) == 0.5


# ---------------------------------------------------------------------------
# criterion 8: training sanity on the memorizable profile


def test_criterion_08_memorizable_training():
    ds = synth.build_dataset("memorizable", users=200, items=50, seq_len=10, seed=7)
    cfg = ModelConfig(d=24, g=48, blocks=2, heads=2, max_len=8, encoding="Learnt",
                      lr=3e-3, epochs=30, batch_size=64, eval_negatives=100, seed=0)
    assert cfg.epochs <= 200
    t0 = time.time()
    result = train(cfg, ds)
    elapsed = time.time() - t0
    print(f"criterion 8: memorizable Hit@10 {result.test_hit:.2f} "
          f"(best epoch {result.best_epoch}, {elapsed:.1f}s)")
    assert elapsed < 300.0
    assert result.test_hit >= 95.0


# ---------------------------------------------------------------------------
# criteria 9 and 11: multi-seed sweeps on the positional profile


SWEEP_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def positional_sweeps():
    """Five-seed sweeps differing only in encoding, plus one deliberately
    under-trained rotation sweep whose seeds straddle the late loss
    breakthrough (high seed deviation).  Two workers give the same results
    as one (test_sweep_parallel_matches_serial) in about half the time."""
    ds = synth.build_dataset("positional", users=200, items=150, seq_len=49,
                             seed=11, shift=7)
    base = dict(d=24, g=48, blocks=1, heads=2, max_len=48, lr=5e-3,
                epochs=70, batch_size=16, eval_negatives=100)
    out = {}
    for variant in ("None", "RMHA4", "RotatoryCon"):
        cfg = ModelConfig(encoding=variant, **base)
        out[variant] = sweep(cfg, ds, SWEEP_SEEDS, jobs=2, out_dir=None)
    volatile_cfg = ModelConfig(encoding="RotatoryCon", **{**base, "epochs": 30})
    out["volatile"] = sweep(volatile_cfg, ds, SWEEP_SEEDS, jobs=2, out_dir=None)
    return out


def test_criterion_09_encodings_beat_no_encoding(positional_sweeps):
    none = positional_sweeps["None"]
    lines = [f"None {none.hit_mean:.2f}±{none.hit_dev:.2f}"]
    for variant in ("RMHA4", "RotatoryCon"):
        s = positional_sweeps[variant]
        gap = s.hit_mean - none.hit_mean
        pooled_se = math.sqrt(s.hit_dev ** 2 / s.runs + none.hit_dev ** 2 / none.runs)
        lines.append(f"{variant} {s.hit_mean:.2f}±{s.hit_dev:.2f} "
                     f"(gap {gap:.2f} > 2se {2 * pooled_se:.2f})")
        assert gap > 2.0 * pooled_se, (variant, gap, pooled_se)
    print("criterion 9: " + "; ".join(lines))


def test_criterion_10_determinism_and_resume(tmp_path):
    ds = synth.build_dataset("memorizable", users=40, items=12, seq_len=7, seed=3)
    cfg = ModelConfig(d=8, g=16, blocks=1, heads=2, max_len=6, encoding="Learnt",
                      lr=1e-3, epochs=3, batch_size=16, eval_negatives=10, seed=5)

    paths = []
    for run in range(2):
        result = train(cfg, ds)
        path = tmp_path / f"history_{run}.tsv"
        write_history_tsv(result.history, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    resumed_dir = tmp_path / "resumed"
    sweep(cfg, ds, SWEEP_SEEDS[:2], out_dir=str(resumed_dir))  # interrupted run
    resumed = sweep(cfg, ds, SWEEP_SEEDS[:3], out_dir=str(resumed_dir))
    fresh = sweep(cfg, ds, SWEEP_SEEDS[:3], out_dir=str(tmp_path / "fresh"))
    assert resumed.hit_mean == fresh.hit_mean
    assert resumed.hit_dev == fresh.hit_dev
    assert resumed.ndcg_mean == fresh.ndcg_mean
    assert resumed.ci == fresh.ci
    assert resumed.ci_length == fresh.ci_length


def test_criterion_11_encoding_recommendation(positional_sweeps):
    stable = positional_sweeps["None"]
    volatile = positional_sweeps["volatile"]
    assert stable.hit_dev <= 3.0, "low-deviation premise"
    assert volatile.hit_dev > 3.0, "high-deviation premise"
    assert recommend_encoding(stable).choice == "RotatoryCon"
    assert recommend_encoding(volatile).choice == "RMHA4"
    print(f"criterion 11: dev {stable.hit_dev:.2f} -> RotatoryCon, "
          f"dev {volatile.hit_dev:.2f} -> RMHA4")
