"""Sequential recommender over item histories.

Item embeddings (optionally fused with per-item attribute vectors through the
same concatenate-then-project helper as the Con encodings), a
positional-encoding stage whose tables, RMHA4's bias tables included, all live
in one EncodingTables, a stack of causal transformer blocks, and a final
layer norm produce one hidden state per position; a target's score is the
logit given by the dot product of that state with the target's embedding.
Training minimises masked binary cross-entropy over the logits of
(positive, sampled-negative) target pairs with Adam, an optional per-row
max-norm clamp on the embedding/encoding tables, and a logarithmic
validation schedule that keeps the best checkpoint.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import numeric as nm
from .attention import TransformerBlock, causal_keep_mask
from .data import InteractionDataset, Split, atomic_write, leave_one_out, open_archive
from .encodings import (ACTIVATIONS, PROJECTION_ACTIVATIONS, VARIANTS, EncodingConfig,
                        EncodingTables, apply_vector_encoding, project_concat, xavier)
from .errors import TrainingDiverged, UserError, require_int
from .metrics import evaluate
from .numeric import AdamState, Rng, TensorNode, adam_step

CHECKPOINT_FORMAT_VERSION = 1
# validation runs at epoch 1, then whenever epoch >= 1.3 * last-evaluated epoch
EVAL_SCHEDULE_FACTOR = 1.3
# a run draws from Rng(seed).child(k): 0 the model; at epoch e, .child(e) of 1
# negatives, 2 shuffle, 3 dropout, 4 validation; train() ranks the test split here
TEST_EVAL_STREAM = 5
# training and final_hidden run a batch in blocks of rows whose largest
# activation stays under this many bytes, so the working set fits in cache
ROW_BLOCK_BYTES = 4 << 20

HISTORY_COLUMNS = ("epoch", "split", "loss", "Hit@10", "NDCG")


def _require_finite(name: str, value):
    """`value` itself; a bool, non-number or non-finite number raises UserError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise UserError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass
class ModelConfig:
    """Hyperparameters for one training run, validated here and only here.

    `encoding` accepts a variant name or an EncodingConfig; a name becomes
    an EncodingConfig with that variant's defaults, and an unset concat
    projection activation follows `activation`.  Options the variant does
    not read are reset to their defaults.  `nmax` is the per-row norm
    bound on embedding and vector-encoding tables (None or NaN disables it).
    `lr == 0` turns the run into a dry run: forward and backward execute,
    parameters never move.  `epochs` alone sets the run length.  The stored
    form (as_dict) holds each value once: the encoding mapping carries only
    the variant and the options it reads.
    """

    d: int = 90
    g: int = 450
    blocks: int = 3
    heads: int = 3
    dropout: float = 0.0
    max_len: int = 50
    activation: str = "leaky"
    encoding: str | EncodingConfig = field(default_factory=EncodingConfig)
    lr: float = 1e-4
    nmax: float | None = None
    l2_weight: float = 0.0
    epochs: int = 200
    batch_size: int = 128
    seed: int = 0
    eval_negatives: int = 100

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":  # annotations are strings under `from __future__`
                setattr(self, f.name, require_int(f.name, getattr(self, f.name)))
        for name in ("dropout", "lr", "l2_weight"):
            _require_finite(name, getattr(self, name))
        if self.nmax is not None and (isinstance(self.nmax, bool)
                                      or not isinstance(self.nmax, numbers.Real)):
            raise UserError(f"nmax must be a number or None, got {self.nmax!r}")
        if self.d < 1 or self.g < 1 or self.blocks < 1 or self.heads < 1:
            raise UserError("d, g, blocks and heads must all be positive")
        if self.d % self.heads:
            raise UserError(f"d {self.d} not divisible by heads {self.heads}")
        if self.max_len < 2:
            raise UserError(f"max_len must be at least 2, got {self.max_len}")
        if self.activation not in ACTIVATIONS:
            raise UserError(f"activation '{self.activation}' not one of {', '.join(ACTIVATIONS)}")
        if not 0.0 <= self.dropout < 1.0:
            raise UserError(f"dropout {self.dropout} outside [0, 1)")
        if self.epochs < 1:
            raise UserError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UserError("batch_size must be positive")
        if self.lr < 0:
            raise UserError(f"lr must be >= 0, got {self.lr}")
        if self.l2_weight < 0:
            raise UserError("l2_weight must be >= 0")
        if self.eval_negatives < 0:
            raise UserError("eval_negatives must be >= 0 (0 ranks the full catalogue)")
        if self.nmax is not None:
            if math.isnan(self.nmax):
                self.nmax = None
            elif self.nmax <= 0:
                raise UserError(f"nmax must be positive or None, got {self.nmax}")
        if isinstance(self.encoding, str):
            self.encoding = EncodingConfig(variant=self.encoding)
        if not isinstance(self.encoding, EncodingConfig):
            raise UserError(f"encoding must be a variant name or mapping, got {self.encoding!r}")
        if self.encoding.projection_activation is None:
            self.encoding = replace(self.encoding, projection_activation=self.activation)
        enc = self.encoding
        if enc.variant not in VARIANTS:
            raise UserError(f"unknown encoding variant '{enc.variant}'; valid variants are: "
                            + ", ".join(VARIANTS))
        if enc.variant in ("Abs", "AbsCon", "Rotatory", "RotatoryCon") and self.d % 2:
            raise UserError(f"variant {enc.variant} needs an even d, got {self.d}")
        if enc.is_rope and self.head_dim % 2:
            raise UserError(f"variant {enc.variant} needs an even head dim, got "
                            f"{self.head_dim} (d {self.d} / heads {self.heads})")
        if enc.is_relative and require_int("clip_distance", enc.clip_distance) < 1:
            raise UserError(f"clip_distance must be >= 1, got {enc.clip_distance}")
        if enc.is_relative and not isinstance(enc.use_value_bias, bool):
            raise UserError(f"use_value_bias must be true or false, got {enc.use_value_bias!r}")
        if enc.is_rope and _require_finite("rope_base", enc.rope_base) <= 0:
            raise UserError(f"rope_base must be > 0, got {enc.rope_base!r}")
        if enc.projection_activation not in PROJECTION_ACTIVATIONS:
            raise UserError(f"projection activation '{enc.projection_activation}' not one of "
                            + ", ".join(PROJECTION_ACTIVATIONS))
        # options the variant does not read go back to their defaults (the
        # projection activation to `activation`), so from_dict(as_dict())
        # gives back an equal config
        self.encoding = EncodingConfig(**{"projection_activation": self.activation,
                                          **enc.as_dict()})

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    def as_dict(self) -> dict:
        """The stored form: every field once, the encoding as EncodingConfig.as_dict()."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "encoding": self.encoding.as_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The config of its stored form, as_dict()'s; any other key raises."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise UserError(f"unknown model config keys: {', '.join(sorted(unknown))}")
        data = dict(data)
        if isinstance(data.get("encoding"), dict):
            unknown = set(data["encoding"]) - {f.name for f in fields(EncodingConfig)}
            if unknown:
                raise UserError(f"unknown encoding keys: {', '.join(sorted(unknown))}")
            data["encoding"] = EncodingConfig(**data["encoding"])
        return cls(**data)


@dataclass
class SequenceBatch:
    """Training rows in model id space: 0 is padding, item i maps to i + 1."""

    inputs: np.ndarray     # [B, L] int
    positives: np.ndarray  # [B, L] item following inputs[b, t]
    negatives: np.ndarray  # [B, L] sampled outside the user's history
    mask: np.ndarray       # [B, L] bool, True at real positions

    @property
    def positions(self) -> int:
        return int(self.mask.sum())

    def rows(self, start: int, stop: int) -> "SequenceBatch":
        return SequenceBatch(self.inputs[start:stop], self.positives[start:stop],
                             self.negatives[start:stop], self.mask[start:stop])


def dropout_masks(config: ModelConfig, rows: int, rng: Rng) -> np.ndarray | None:
    """The dropout keep masks of a batch of `rows` rows, drawn once: bool
    [1 + 2 * blocks, rows, max_len, d], the embedding's first, then each
    block's attention and feed-forward outputs.  The embedding draws from
    rng.child(0) and block i's sublayer j from rng.child(i + 1).child(j).
    None when config.dropout is 0."""
    if config.dropout == 0.0:
        return None
    shape = (rows, config.max_len, config.d)
    sites = [rng.child(0)] + [rng.child(i + 1).child(j) for i in range(config.blocks) for j in (0, 1)]
    return np.stack([site.uniform(shape) >= config.dropout for site in sites])


def block_rows(config: ModelConfig) -> int:
    """Rows per block: the widest float64 activation of one row, [max_len,
    max(g, d, heads * max_len)], times this stays within ROW_BLOCK_BYTES."""
    widest = max(config.g, config.d, config.heads * config.max_len)
    return max(1, ROW_BLOCK_BYTES // (8 * config.max_len * widest))


def _sample_negatives(count: int, num_items: int, forbidden: np.ndarray, rng: Rng) -> np.ndarray:
    """Uniform item ids avoiding `forbidden` (sorted unique), via rejection."""
    if num_items - forbidden.size <= 0:
        raise UserError("cannot sample negatives: the history covers the whole catalogue")
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        draw = rng.integers(0, num_items, (2 * (count - filled) + 4,))
        # an id is forbidden when its left and right insertion points differ
        draw = draw[np.searchsorted(forbidden, draw) == np.searchsorted(forbidden, draw, "right")]
        take = min(count - filled, draw.size)
        out[filled:filled + take] = draw[:take]
        filled += take
    return out


def left_pad(sequences, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[N, max_len] model ids (dataset id + 1) of N item-id sequences, each
    keeping its most recent max_len items and left-padded with 0, plus the
    bool mask that is True at real positions."""
    ids = np.zeros((len(sequences), max_len), dtype=np.int64)
    for row, seq in enumerate(sequences):
        seq = np.asarray(seq, dtype=np.int64)[-max_len:]
        ids[row, max_len - seq.size:] = seq + 1
    return ids, ids > 0


def build_sequences(histories, forbidden, num_items: int, max_len: int, rngs) -> SequenceBatch:
    """A batch of training rows, one per history of at least 2 events: inputs
    are the history minus its last item, positives the history shifted by
    one, and row r's negatives are drawn from rngs[r] uniformly outside
    forbidden[r] (sorted unique item ids).  Each row keeps its most recent
    max_len steps, left-padded.
    """
    inputs, mask = left_pad([h[:-1] for h in histories], max_len)
    positives, _ = left_pad([h[1:] for h in histories], max_len)
    negatives = np.zeros_like(inputs)
    negatives[mask] = 1 + np.concatenate([
        _sample_negatives(int(n), num_items, f, rng)
        for n, f, rng in zip(mask.sum(axis=1), forbidden, rngs)
    ])
    return SequenceBatch(inputs, positives, negatives, mask)


def score(hidden: TensorNode, target_emb: TensorNode) -> TensorNode:
    """Per-position logit: the dot product of a hidden state and a target
    embedding.  Ranking compares the same products; the logistic is applied
    only inside the loss."""
    return nm.dot_last(hidden, target_emb)


def bce_loss(model: Model, batch: SequenceBatch, drop: np.ndarray | None = None,
             positions: int | None = None) -> TensorNode:
    """The batch's training loss: one forward pass, the logits of its
    positive and negative targets, and their masked binary cross-entropy
    (nm.bce).

    `drop` holds the batch's dropout masks (dropout_masks; None: no
    dropout).  The masked sum is divided by `positions` (default: the
    unpadded positions of `batch`), which keeps the gradient scale
    comparable across batch sizes; a row block passes its whole batch's
    count, so the blocks' losses sum to the batch's.
    """
    hidden = model.hidden_states(batch.inputs, batch.mask, drop)
    z_pos = score(hidden, nm.gather(model.item_table, batch.positives))
    z_neg = score(hidden, nm.gather(model.item_table, batch.negatives))
    return nm.bce(z_pos, z_neg, batch.mask,
                  batch.positions if positions is None else positions)


def apply_max_norm(tables: list[TensorNode], nmax: float | None) -> None:
    """Rescale any row with Euclidean norm above nmax (None or > 0, as
    ModelConfig leaves it) back to exactly nmax."""
    if nmax is None:
        return
    for table in tables:
        vals = table.values
        norms = np.sqrt(np.sum(vals * vals, axis=-1, keepdims=True))
        # the relative band keeps already-clamped rows (norm = nmax up to
        # rounding) as fixed points, making the clamp exactly idempotent
        over = norms > nmax * (1.0 + 1e-12)
        if over.any():
            table.values = vals * np.where(over, nmax / np.where(over, norms, 1.0), 1.0)


class Model:
    """The encoder plus every parameter one training run owns."""

    def __init__(self, num_items: int, config: ModelConfig, rng: Rng, attributes=None):
        if num_items < 1:
            raise UserError("model needs at least one item")
        self.config = config
        self.num_items = num_items
        d = config.d
        self.encoding_tables = EncodingTables.create(config, rng.child(1))
        table = rng.child(0).normal((num_items + 1, d), scale=0.02)
        table[0] = 0.0  # padding row
        self.item_table = nm.parameter(table)

        self.attribute_table = None
        self.fuse_weight = None
        self.fuse_bias = None
        if attributes is not None:
            attributes = np.asarray(attributes, dtype=np.float64)
            if attributes.ndim != 2:
                raise UserError(f"attribute matrix must be 2-D, got shape {attributes.shape}")
            if attributes.shape[0] != num_items:
                raise UserError(
                    f"attribute matrix covers {attributes.shape[0]} items, dataset has {num_items}"
                )
            if not np.isfinite(attributes).all():  # else it surfaces as a diverged loss
                raise UserError("attribute matrix holds non-finite values (NaN or inf)")
            rows = np.zeros((num_items + 1, attributes.shape[1]))
            rows[1:] = attributes
            self.attribute_table = nm.constant(rows)
            self.fuse_weight = nm.parameter(xavier(rng.child(2), (d, d + attributes.shape[1])))
            self.fuse_bias = nm.parameter(np.zeros(d))

        self.blocks = [TransformerBlock(config, i, rng.child(10 + i), self.encoding_tables)
                       for i in range(config.blocks)]
        self.final_gain = nm.parameter(np.ones(d))
        self.final_bias = nm.parameter(np.zeros(d))

    def parameters(self) -> list[tuple[str, TensorNode]]:
        out = [("item_table", self.item_table)]
        if self.fuse_weight is not None:
            out += [("fuse_weight", self.fuse_weight), ("fuse_bias", self.fuse_bias)]
        out += self.encoding_tables.parameters()
        for block in self.blocks:
            out += block.parameters()
        out += [("final_gain", self.final_gain), ("final_bias", self.final_bias)]
        return out

    def clamped_tables(self) -> list[TensorNode]:
        return [self.item_table] + self.encoding_tables.clamped()

    def _embed(self, inputs: np.ndarray, drop: np.ndarray | None) -> TensorNode:
        """[B, L, d] block input: item embeddings, attributes, vector encoding."""
        ids = np.asarray(inputs, dtype=np.int64)
        x = nm.gather(self.item_table, ids)
        if self.fuse_weight is not None:
            attrs = nm.gather(self.attribute_table, ids)
            x = project_concat(x, attrs, self.fuse_weight, self.fuse_bias)
        encoding = self.config.encoding
        if encoding.is_vector:
            x = apply_vector_encoding(x, encoding, self.encoding_tables)
        return nm.dropout(x, drop, self.config.dropout)

    def hidden_states(self, inputs: np.ndarray, mask: np.ndarray, drop: np.ndarray | None = None,
                      query_positions=None) -> TensorNode:
        """[B, L_q, d] hidden states for inputs already in model id space, at
        the positions `query_positions` (default: all L).  Every block but the
        last runs all L positions, since later blocks attend to them; the last
        block and the final layer norm run the query positions only.  `drop`
        holds the rows' dropout masks (dropout_masks), which cover all L query
        positions; None applies no dropout.
        """
        sites = [None] * (1 + 2 * len(self.blocks)) if drop is None else drop
        x = self._embed(inputs, sites[0])
        keep = causal_keep_mask(mask)
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            x = block(x, keep, sites[1 + 2 * i:3 + 2 * i], query_positions if i == last else None)
        return nm.layer_norm(x, self.final_gain, self.final_bias)

    def final_hidden(self, contexts) -> np.ndarray:
        """Graph-free [B, d] hidden state at each context's last position.

        Contexts are dataset item-id sequences, left-padded by left_pad.  They
        run through hidden_states in blocks of block_rows(config) rows, so the
        activations stay cache-sized however many are passed.  Ranking reads
        only the last position, so that is the one query position asked for.
        """
        ids, mask = left_pad(contexts, self.config.max_len)
        if not mask[:, -1].all():
            raise UserError("cannot score an empty context")
        rows = block_rows(self.config)
        last = [self.config.max_len - 1]
        with nm.no_graph():
            return np.concatenate([
                self.hidden_states(ids[s:s + rows], mask[s:s + rows],
                                   query_positions=last).values[:, 0]
                for s in range(0, max(len(ids), 1), rows)
            ])

    def snapshot(self) -> dict:
        return {name: node.values.copy() for name, node in self.parameters()}

    def restore(self, values: dict) -> None:
        for name, node in self.parameters():
            node.values = values[name].copy()


@dataclass
class MetricRecord:
    epoch: int
    split: str   # train | valid | test
    loss: float  # NaN on eval rows
    hit: float   # percentage scale; NaN on train rows
    ndcg: float


def _fmt(value: float) -> str:
    return f"{value:.6f}" if np.isfinite(value) else "NaN"


def write_history_tsv(history: list[MetricRecord], path: str) -> None:
    lines = ["\t".join(HISTORY_COLUMNS)]
    for r in history:
        lines.append(f"{r.epoch}\t{r.split}\t{_fmt(r.loss)}\t{_fmt(r.hit)}\t{_fmt(r.ndcg)}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class TrainResult:
    """A run's whole state: its outcome so far and all that its next epoch reads."""

    model: Model
    history: list[MetricRecord] = field(repr=False)
    best_epoch: int
    valid_hit: float   # percentage scale
    valid_ndcg: float
    test_hit: float
    test_ndcg: float
    skipped_users: int
    split: Split = field(repr=False)
    forbidden: dict[int, np.ndarray] = field(repr=False)  # eligible user -> items seen
    adam: AdamState = field(repr=False)
    best_values: dict | None = field(default=None, repr=False)  # the model at best_epoch
    last_eval: int = field(default=0, repr=False)  # the last validated epoch


def _loss_and_gradients(model: Model, batch: SequenceBatch, drop_rng: Rng) -> float:
    """Mean batch loss; when finite, its gradient is added to the parameters'
    adjoints.

    The batch's dropout masks are drawn once from `drop_rng`
    (dropout_masks).  The batch then runs in blocks of block_rows(config)
    rows, one forward pass, loss and backward() each; a batch that fits one
    block is not split.  Each block takes its rows of the masks, and its
    masked sum is divided by the whole batch's position count, so the summed
    losses and the accumulated adjoints equal those of one pass over the
    batch up to rounding.  A non-finite block loss is returned at once, with
    the adjoints of the blocks before it left in place.
    """
    drop = dropout_masks(model.config, batch.inputs.shape[0], drop_rng)
    rows = block_rows(model.config)
    total = 0.0
    for start in range(0, batch.inputs.shape[0], rows):
        loss = bce_loss(model, batch.rows(start, start + rows),
                        drop if drop is None else drop[:, start:start + rows], batch.positions)
        value = loss.item()
        if not np.isfinite(value):
            return value
        loss.backward()
        del loss  # frees the block's graph before the next block's forward pass
        total += value
    return total


def start_run(config: ModelConfig, dataset: InteractionDataset) -> TrainResult:
    """A run before epoch 1; UserError when no user has a training sequence
    of at least 2 events, or one's history covers the catalogue."""
    split = leave_one_out(dataset)
    model = Model(dataset.num_items, config, Rng(config.seed).child(0), dataset.attributes)
    adam = AdamState.for_params([node for _, node in model.parameters()])
    # negatives avoid every item of the user's whole history, valid and test
    # included: the items its test row has seen
    forbidden = {u: split.test[u].seen for u, seq in enumerate(split.train_sequences)
                 if seq.size >= 2}
    if not forbidden:
        raise UserError("no user has a training sequence of at least 2 events")
    for u, seen in forbidden.items():
        if seen.size >= dataset.num_items:
            raise UserError(f"user {dataset.user_ids[u]}: the history covers the whole "
                            "catalogue, so no negative item can be sampled")
    # an eligible user has >= 4 events, so split.valid is never empty and
    # epoch 1's validation always sets the best epoch
    return TrainResult(model, [], best_epoch=0, valid_hit=-1.0, valid_ndcg=float("nan"),
                       test_hit=float("nan"), test_ndcg=float("nan"),
                       skipped_users=dataset.num_users - len(forbidden), split=split,
                       forbidden=forbidden, adam=adam)


def run_epoch(run: TrainResult, epoch: int, progress=None) -> None:
    """Epoch `epoch` of `run`: Adam and the clamp over shuffled user batches,
    a train row, and the scheduled validation.  Its draws depend on (seed,
    epoch) alone; a non-finite loss raises TrainingDiverged."""
    model, config = run.model, run.model.config
    nodes = [node for _, node in model.parameters()]
    eligible = list(run.forbidden)
    root = Rng(config.seed)
    order = root.child(2).child(epoch).permutation(len(eligible))
    neg_epoch, drop_epoch = root.child(1).child(epoch), root.child(3).child(epoch)
    loss_sum = 0.0
    loss_positions = 0
    for start in range(0, len(order), config.batch_size):
        users = [eligible[i] for i in order[start:start + config.batch_size]]
        batch = build_sequences([run.split.train_sequences[u] for u in users],
                                [run.forbidden[u] for u in users], model.num_items,
                                config.max_len, [neg_epoch.child(u) for u in users])
        value = _loss_and_gradients(model, batch, drop_epoch.child(start))
        if not np.isfinite(value):
            raise TrainingDiverged(
                epoch,
                f"loss became {value} (encoding={config.encoding.variant}, "
                f"lr={config.lr}, seed={config.seed})",
            )
        if config.lr > 0.0:
            adam_step(nodes, run.adam, lr=config.lr, l2_weight=config.l2_weight)
            apply_max_norm(model.clamped_tables(), config.nmax)
        else:  # dry run: gradients computed, parameters untouched
            for node in nodes:
                node.adjoint = None
        loss_sum += value * batch.positions
        loss_positions += batch.positions

    epoch_loss = loss_sum / loss_positions
    run.history.append(MetricRecord(epoch, "train", epoch_loss, float("nan"), float("nan")))

    if epoch == 1 or epoch == config.epochs or epoch >= run.last_eval * EVAL_SCHEDULE_FACTOR:
        run.last_eval = epoch
        valid = evaluate(model, run.split.valid, config.eval_negatives, root.child(4).child(epoch))
        hit, ndcg = 100.0 * valid.hit_at_10, 100.0 * valid.ndcg
        run.history.append(MetricRecord(epoch, "valid", float("nan"), hit, ndcg))
        if hit > run.valid_hit:
            run.best_epoch, run.valid_hit, run.valid_ndcg = epoch, hit, ndcg
            run.best_values = model.snapshot()
        if progress:
            progress(f"epoch {epoch}: loss {epoch_loss:.4f}  "
                     f"valid Hit@10 {hit:.2f}  NDCG {ndcg:.2f}")


def train(config: ModelConfig, dataset: InteractionDataset, progress=None) -> TrainResult:
    """A whole run: start_run, each epoch's run_epoch, then the best snapshot's test ranking."""
    result = start_run(config, dataset)
    for epoch in range(1, config.epochs + 1):
        run_epoch(result, epoch, progress)
    result.model.restore(result.best_values)
    test = evaluate(result.model, result.split.test, config.eval_negatives,
                    Rng(config.seed).child(TEST_EVAL_STREAM))
    result.test_hit, result.test_ndcg = 100.0 * test.hit_at_10, 100.0 * test.ndcg
    result.history.append(MetricRecord(result.best_epoch, "test", float("nan"),
                                       result.test_hit, result.test_ndcg))
    if progress:
        progress(f"best epoch {result.best_epoch}: "
                 f"test Hit@10 {result.test_hit:.2f}  NDCG {result.test_ndcg:.2f}")
    return result


def save_checkpoint(model: Model, path: str, dataset: InteractionDataset | None = None) -> None:
    """Write `model` to `path`; given the dataset it was trained on, the
    metadata also holds that dataset's sha256, which load_checkpoint checks."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "num_items": model.num_items,
        "has_attributes": model.attribute_table is not None,
        "config": model.config.as_dict(),
    }
    if dataset is not None:
        meta["dataset_sha256"] = dataset.identity["sha256"]
    arrays = {f"param:{name}": node.values for name, node in model.parameters()}
    if model.attribute_table is not None:
        arrays["attributes"] = model.attribute_table.values[1:]
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path: str, dataset: InteractionDataset | None = None) -> Model:
    """The model stored at `path`.  Given the dataset it is to be used on,
    the checkpoint must cover as many items and, when it holds the sha256 of
    the dataset it was trained on, that same sha256.  The hash is taken with
    the checkpoint's own attributes in place of the dataset's: those are the
    ones the model ranks with.  Every refusal names `path`."""
    archive = open_archive(path, "model checkpoint")
    if "__meta__" not in archive:
        raise UserError(f"{path} is not a model checkpoint")
    try:
        try:
            meta = json.loads(str(archive["__meta__"]))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise UserError("checkpoint metadata is not a JSON object")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise UserError(f"checkpoint format {meta.get('format_version')} is not supported")
        missing = sorted({"config", "has_attributes", "num_items"} - set(meta))
        if missing:
            raise UserError(f"checkpoint metadata lacks {', '.join(missing)}")
        if meta["has_attributes"] and "attributes" not in archive:
            raise UserError("checkpoint metadata sets has_attributes "
                            "but the 'attributes' array is missing")
        if not isinstance(meta["config"], dict):
            raise UserError("checkpoint metadata field 'config' is not a JSON object")
        for name, stored in archive.items():  # before numpy meets a string array
            if name != "__meta__" and stored.dtype.kind != "f":
                raise UserError(f"checkpoint member '{name}' has dtype {stored.dtype}, not floats")
        config = ModelConfig.from_dict(meta["config"])
        num_items = require_int("checkpoint metadata field 'num_items'", meta["num_items"])
        attributes = archive["attributes"] if meta["has_attributes"] else None
        if dataset is not None:
            if num_items != dataset.num_items:
                raise UserError(f"checkpoint was trained over {num_items} items, "
                                f"dataset has {dataset.num_items}")
            stored = meta.get("dataset_sha256")
            given = replace(dataset, attributes=attributes).identity["sha256"]
            if stored is not None and stored != given:
                raise UserError("checkpoint was trained on a dataset with sha256 "
                                f"{str(stored)[:12]}, this dataset has {given[:12]}; "
                                "pass the log the run was trained on and, with --config, the run's "
                                "config: its data.min_interactions changes the data")
        model = Model(num_items, config, Rng(config.seed), attributes=attributes)
        for name, node in model.parameters():
            key = f"param:{name}"
            if key not in archive:
                raise UserError(f"checkpoint is missing parameter '{name}'")
            stored = archive[key]
            if stored.shape != node.values.shape:
                raise UserError(f"checkpoint parameter '{name}' has shape {stored.shape}, "
                                f"expected {node.values.shape}")
            if not np.isfinite(stored).all():  # a NaN target score would rank first
                raise UserError(f"checkpoint parameter '{name}' holds non-finite values")
            node.values = stored.astype(np.float64)
    except UserError as err:
        raise UserError(f"{path}: {err}") from None
    return model
