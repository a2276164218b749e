"""Ranking metric oracles and the evaluation loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posrec import synth
from posrec.data import EvalRow, leave_one_out
from posrec.errors import UserError
from posrec import metrics
from posrec.metrics import EvalResult, evaluate, ndcg_single
from posrec.model import Model, ModelConfig
from posrec.numeric import Rng


def fresh_model(num_items=30, seed=1, **kw):
    base = dict(d=8, g=16, blocks=1, heads=2, max_len=6, epochs=1)
    base.update(kw)
    return Model(num_items, ModelConfig(**base), Rng(seed))


# ---------------------------------------------------------------------------
# ndcg


def test_ndcg_single_values():
    assert ndcg_single(1) == 1.0
    assert ndcg_single(3) == 0.5
    assert ndcg_single(2) == pytest.approx(1.0 / np.log2(3.0), abs=1e-15)
    assert ndcg_single(10) == pytest.approx(1.0 / np.log2(11.0), abs=1e-15)
    assert ndcg_single(11) == 0.0
    assert ndcg_single(500) == 0.0


def test_ndcg_single_strictly_decreasing_then_zero():
    values = [ndcg_single(r) for r in range(1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(ndcg_single(r) == 0.0 for r in range(11, 30))


def test_ndcg_single_rejects_rank_below_one():
    with pytest.raises(ValueError):
        ndcg_single(0)


# ---------------------------------------------------------------------------
# ranking


def eval_rows(num_users=40, num_items=50, seed=5):
    ds = synth.build_dataset("random", num_users, num_items, 6, seed)
    return ds, leave_one_out(ds).test


def test_rank_matches_sort_oracle_on_twelve_candidates():
    # a 15-item catalogue: 3 context items, the truth and 11 negatives
    model = fresh_model(num_items=15)
    gen = np.random.default_rng(17)
    for _ in range(10):
        items = gen.permutation(15)
        context, truth, negatives = items[:3], int(items[3]), items[4:]
        result = evaluate(model, [EvalRow(user=0, context=context, target=truth)], 0, Rng(1))
        got = result.per_user_ranks[0]

        hidden = model.final_hidden([context])[0]
        table = model.item_table.values
        truth_score = float(table[truth + 1] @ hidden)
        neg_scores = table[np.asarray(negatives) + 1] @ hidden
        oracle = 1 + int(np.sum(neg_scores >= truth_score))
        assert got == oracle
        assert 1 <= got <= 12
        assert result.candidate_count == 12


def test_all_equal_scores_rank_pessimistically():
    model = fresh_model(num_items=150)
    model.item_table.values[:] = 0.0  # constant scorer
    rows = [EvalRow(user=0, context=np.array([1, 2, 3]), target=5)]
    assert evaluate(model, rows, 100, Rng(1)).per_user_ranks == [101]
    assert evaluate(model, rows, 0, Rng(1)).per_user_ranks == [147]  # 146 unseen items tie


@given(num_items=st.integers(3, 20), model_seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=30, deadline=None)
def test_rank_invariant_to_negative_order(num_items, model_seed, data):
    # every item outside the history is a negative; shuffling which of them
    # holds which embedding reorders them without moving the rank
    items = data.draw(st.permutations(range(num_items)))
    context_size = data.draw(st.integers(1, min(5, num_items - 2)))
    context, target = np.array(items[:context_size]), items[context_size]
    negatives = np.setdiff1d(np.arange(num_items), items[:context_size + 1])
    model = fresh_model(num_items=num_items, seed=model_seed)
    rows = [EvalRow(user=0, context=context, target=target)]
    base = evaluate(model, rows, 0, Rng(1)).per_user_ranks
    shuffled = np.array(data.draw(st.permutations(negatives.tolist())), dtype=np.int64)
    table = model.item_table.values
    table[negatives + 1] = table[shuffled + 1]
    assert evaluate(model, rows, 0, Rng(1)).per_user_ranks == base


def oracle_evaluate(model, rows, num_negatives, rng):
    """Brute force: each user's pool by setdiff1d, negatives drawn from the
    pool itself, the candidates scored one row at a time."""
    ranks, counts, draws = [], [], []
    for i, row in enumerate(rows):
        hidden = model.final_hidden([row.context])[0]
        seen = np.concatenate((np.asarray(row.context), [row.target]))
        pool = np.setdiff1d(np.arange(model.num_items), seen)
        if num_negatives and num_negatives < pool.size:
            pool = rng.child(i).choice(pool, num_negatives, replace=False)
        candidates = np.concatenate(([row.target], pool))
        scores = model.item_table.values[candidates + 1] @ hidden
        ranks.append(1 + int(np.sum(scores[1:] >= scores[0])))
        counts.append(candidates.size)
        draws.append(pool)
    return ranks, int(round(np.mean(counts))), draws


@pytest.mark.parametrize("num_items,num_negatives", [
    (50, 20),   # sampled
    (50, 0),    # full catalogue
    (12, 10),   # pools of 6-9 items: smaller than the request, so whole
    (13, 8),    # pools of 7-10 items: some whole, some sampled
])
def test_evaluate_matches_brute_force_oracle(num_items, num_negatives, monkeypatch):
    ds, rows = eval_rows(num_items=num_items)
    model = fresh_model(num_items=ds.num_items, seed=4)
    monkeypatch.setattr(metrics, "EVAL_CHUNK_USERS", 16)
    result = evaluate(model, rows, num_negatives, Rng(6))
    ranks, count, _ = oracle_evaluate(model, rows, num_negatives, Rng(6))
    assert result.per_user_ranks == ranks
    assert result.candidate_count == count


class FixedScores:
    """Stub: every hidden state is 1, so item i scores scores[i] for every user."""

    def __init__(self, scores):
        self.num_items = len(scores)
        table = np.zeros((self.num_items + 1, 1))
        table[1:, 0] = scores
        self.item_table = type("T", (), {"values": table})()

    def final_hidden(self, contexts):
        return np.ones((len(contexts), 1))


def test_sampled_negatives_are_the_pool_draws(monkeypatch):
    # users share the target T; probing one item j at a time (j scores above
    # T, the rest below) makes each rank 1 + [j was drawn], which spells out
    # every user's negatives
    n, target, k = 30, 7, 9
    gen = np.random.default_rng(11)
    rows = []
    for u in range(25):
        context = gen.choice(np.setdiff1d(np.arange(n), [target]), gen.integers(1, 12))
        rows.append(EvalRow(user=u, context=context, target=target))
    drawn = [set() for _ in rows]
    monkeypatch.setattr(metrics, "EVAL_CHUNK_USERS", 8)
    for j in np.setdiff1d(np.arange(n), [target]):
        scores = np.zeros(n)
        scores[target], scores[j] = 1.0, 2.0
        result = evaluate(FixedScores(scores), rows, k, Rng(3))
        for u, rank in enumerate(result.per_user_ranks):
            if rank == 2:
                drawn[u].add(int(j))
    _, _, draws = oracle_evaluate(FixedScores(np.zeros(n)), rows, k, Rng(3))
    assert drawn == [set(d.tolist()) for d in draws]
    assert all(len(d) == k for d in drawn)


# ---------------------------------------------------------------------------
# evaluation loop


def test_hit_iff_positive_ndcg():
    ds, rows = eval_rows()
    model = fresh_model(num_items=ds.num_items)
    result = evaluate(model, rows, 20, Rng(2))
    for rank in result.per_user_ranks:
        assert (rank <= 10) == (ndcg_single(rank) > 0.0)
    assert result.hit_at_10 == pytest.approx(
        np.mean([r <= 10 for r in result.per_user_ranks]), abs=1e-15)
    assert result.ndcg == pytest.approx(
        np.mean([ndcg_single(r) for r in result.per_user_ranks]), abs=1e-15)


def test_untrained_model_hit_matches_binomial_expectation():
    ds = synth.build_dataset("random", 300, 300, 5, seed=9)
    rows = leave_one_out(ds).test
    model = fresh_model(num_items=ds.num_items, seed=31)
    result = evaluate(model, rows, 100, Rng(12))
    p = 10.0 / 101.0
    sigma = np.sqrt(p * (1 - p) / len(rows))
    assert abs(result.hit_at_10 - p) < 3 * sigma
    assert result.candidate_count == 101


def test_evaluate_deterministic_and_batch_size_free(monkeypatch):
    ds, rows = eval_rows()
    model = fresh_model(num_items=ds.num_items)
    a = evaluate(model, rows, 15, Rng(8))
    b = evaluate(model, rows, 15, Rng(8))
    monkeypatch.setattr(metrics, "EVAL_CHUNK_USERS", 7)
    c = evaluate(model, rows, 15, Rng(8))
    assert a.per_user_ranks == b.per_user_ranks == c.per_user_ranks
    assert a.hit_at_10 == b.hit_at_10 == c.hit_at_10


def test_negatives_exclude_history_and_truth():
    model = fresh_model(num_items=6)
    rows = [EvalRow(user=0, context=np.array([0, 1, 2]), target=3)]
    result = evaluate(model, rows, 100, Rng(1))
    assert result.candidate_count == 3  # truth + the only two unseen items
    assert result.per_user_ranks[0] <= 3


def test_zero_negatives_means_full_catalogue():
    model = fresh_model(num_items=40)
    rows = [EvalRow(user=0, context=np.array([4, 9, 9]), target=2)]
    result = evaluate(model, rows, 0, Rng(1))
    assert result.candidate_count == 40 - 3 + 1  # catalogue minus seen, plus truth


def test_only_sampled_ranking_builds_child_streams(monkeypatch):
    ds, rows = eval_rows()
    model = fresh_model(num_items=ds.num_items)
    built = []
    child = Rng.child
    monkeypatch.setattr(Rng, "child", lambda self, k: built.append(k) or child(self, k))
    evaluate(model, rows, 0, Rng(8))
    assert built == []  # full ranking draws nothing
    evaluate(model, rows, 15, Rng(8))
    assert built == list(range(len(rows)))  # user i draws from rng.child(i)


class NextItemOracle:
    """Stub: the hidden state is a one-hot pointer at (last item + 1) mod n."""

    def __init__(self, num_items):
        self.num_items = num_items
        table = np.zeros((num_items + 1, num_items + 1))
        table[np.arange(1, num_items + 1), np.arange(1, num_items + 1)] = 1.0
        self.item_table = type("T", (), {"values": table})()

    def final_hidden(self, contexts):
        out = np.zeros((len(contexts), self.num_items + 1))
        for b, ctx in enumerate(contexts):
            out[b, (int(ctx[-1]) + 1) % self.num_items + 1] = 1.0
        return out


def test_perfect_model_scores_one():
    n = 12
    model = NextItemOracle(n)
    rows = [EvalRow(user=u, context=np.array([u]), target=(u + 1) % n)
            for u in range(n)]
    result = evaluate(model, rows, 0, Rng(4))
    assert result.hit_at_10 == 1.0
    assert result.ndcg == 1.0
    assert result.per_user_ranks == [1] * n


def test_empty_rows_rejected():
    model = fresh_model()
    with pytest.raises(UserError):
        evaluate(model, [], 10, Rng(1))


def test_tsv_row_shape():
    result = EvalResult(hit_at_10=0.5, ndcg=0.25, per_user_ranks=[1, 20],
                        candidate_count=101, seed=9)
    header, row, trailing = result.tsv().split("\n")
    assert header.split("\t") == ["Hit@10", "NDCG", "users", "candidates", "seed"]
    assert row.split("\t") == ["50.0000", "25.0000", "2", "101", "9"]
    assert trailing == ""
