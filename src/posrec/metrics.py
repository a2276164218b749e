"""Hit@10 / NDCG under leave-one-out ranking, sampled or full-catalogue.

Each user's ground-truth next item is ranked by the logit that
`model.score` computes in training, the dot product of its embedding with
the model's final hidden state, either against `num_negatives` items
sampled outside the user's history or, with 0 or a request larger than
what is left, against every item outside it.  Ties break against the
ground truth: a constant scorer lands at the bottom, not the top.

Only the last position's hidden state is ranked, so `Model.final_hidden`
computes the last block for that one row, and each chunk of users is scored
against the whole catalogue with one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UserError
from .numeric import Rng

NDCG_CUTOFF = 10


@dataclass
class EvalResult:
    hit_at_10: float          # fraction of users with rank <= 10
    ndcg: float
    per_user_ranks: list[int] = field(repr=False)
    candidate_count: int      # typical candidate-list size (rounded mean)
    seed: int

    def tsv(self) -> str:
        header = "Hit@10\tNDCG\tusers\tcandidates\tseed"
        row = (f"{100.0 * self.hit_at_10:.4f}\t{100.0 * self.ndcg:.4f}\t"
               f"{len(self.per_user_ranks)}\t{self.candidate_count}\t{self.seed}")
        return header + "\n" + row + "\n"


def ndcg_single(rank: int) -> float:
    """DCG of one relevant item at `rank`, cutoff 10, against an ideal of 1."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > NDCG_CUTOFF:
        return 0.0
    return 1.0 / np.log2(rank + 1.0)


def _rank_user(scores: np.ndarray, row, num_negatives: int | None, rng: Rng) -> tuple[int, int]:
    """(rank, candidate count) of row.target given every item's score.

    Sampled negatives are the pool indices rng.choice(pool_size, k) of the
    sorted items outside `seen`, mapped to item ids without building the pool.
    """
    seen = np.unique(np.append(np.asarray(row.context, dtype=np.int64), row.target))
    pool_size = scores.size - seen.size
    if pool_size == 0:
        raise UserError(f"user {row.user}: no candidate items outside the history")
    truth = scores[row.target]
    if not num_negatives or num_negatives >= pool_size:
        # the target is in `seen` and ties with itself, so both counts include it
        beaten_by = np.count_nonzero(scores >= truth) - np.count_nonzero(scores[seen] >= truth)
        return 1 + int(beaten_by), pool_size + 1
    picks = rng.choice(pool_size, num_negatives, replace=False)
    # pool index t is item t + #{seen items s: s - (their index in seen) <= t}
    negatives = picks + np.searchsorted(seen - np.arange(seen.size), picks, side="right")
    return 1 + int(np.count_nonzero(scores[negatives] >= truth)), num_negatives + 1


def evaluate(model, rows, num_negatives: int | None, rng: Rng, batch_size: int = 256) -> EvalResult:
    """Average Hit@10 and NDCG over evaluation rows.

    Deterministic given rng: user i always draws from rng.child(i), so the
    result is independent of batching.
    """
    if not rows:
        raise UserError("evaluation split is empty")
    if num_negatives is not None and num_negatives < 0:
        raise UserError(f"num_negatives must be >= 0 (0 ranks the full catalogue), "
                        f"got {num_negatives}")
    ranks = []
    counts = []
    items = model.item_table.values[1:]  # model id i + 1 is dataset item i
    for start in range(0, len(rows), batch_size):
        chunk = rows[start:start + batch_size]
        scores = model.final_hidden([row.context for row in chunk]) @ items.T
        for j, row in enumerate(chunk):
            rank, count = _rank_user(scores[j], row, num_negatives, rng.child(start + j))
            ranks.append(rank)
            counts.append(count)
    hit = float(np.mean([r <= NDCG_CUTOFF for r in ranks]))
    ndcg = float(np.mean([ndcg_single(r) for r in ranks]))
    return EvalResult(
        hit_at_10=hit,
        ndcg=ndcg,
        per_user_ranks=ranks,
        candidate_count=int(round(np.mean(counts))),
        seed=rng.seed,
    )
