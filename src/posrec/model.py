"""Sequential recommender over item histories.

Item embeddings (optionally fused with per-item attribute vectors), a
positional-encoding stage, a stack of causal transformer blocks, and a final
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
from .data import InteractionDataset, atomic_write, leave_one_out
from .encodings import (ACTIVATIONS, PROJECTION_ACTIVATIONS, VARIANTS, EncodingConfig,
                        EncodingTables, apply_vector_encoding, relative_bias_tables, xavier)
from .errors import TrainingDiverged, UserError, require_int
from .metrics import evaluate
from .numeric import AdamState, Rng, TensorNode, adam_step

CHECKPOINT_FORMAT_VERSION = 1
# validation runs at epoch 1, then whenever epoch >= 1.3 * last-evaluated epoch
EVAL_SCHEDULE_FACTOR = 1.3
# train() ranks the test split on Rng(seed).child(TEST_EVAL_STREAM)
TEST_EVAL_STREAM = 5
# training and final_hidden run a batch in blocks of rows whose largest
# activation stays under this many bytes, so the working set fits in cache
ROW_BLOCK_BYTES = 4 << 20

HISTORY_COLUMNS = ("epoch", "split", "loss", "Hit@10", "NDCG")


@dataclass
class ModelConfig:
    """Hyperparameters for one training run, validated here and only here.

    `encoding` accepts a variant name or an EncodingConfig; a name becomes
    an EncodingConfig with that variant's defaults, and an unset concat
    projection activation follows `activation`.  Options the variant does
    not read are reset to their defaults.  `nmax` is the per-row norm
    bound on embedding and vector-encoding tables (None or NaN disables it).
    `lr == 0` turns the run into a dry run: forward and backward execute,
    parameters never move.
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
    extra_epochs: int = 0
    batch_size: int = 128
    seed: int = 0
    eval_negatives: int = 100

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":  # annotations are strings under `from __future__`
                setattr(self, f.name, require_int(f.name, getattr(self, f.name)))
        for name in ("dropout", "lr", "l2_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise UserError(f"{name} must be a finite number, got {value!r}")
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
        if self.epochs < 1 or self.extra_epochs < 0:
            raise UserError("epochs must be >= 1 and extra_epochs >= 0")
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
        if self.encoding.projection_activation is None:
            self.encoding = replace(self.encoding, projection_activation=self.activation)
        enc = self.encoding
        if enc.variant not in VARIANTS:
            raise UserError(f"unknown encoding variant '{enc.variant}'; valid variants are: "
                            + ", ".join(VARIANTS))
        if enc.variant in ("Abs", "AbsCon", "Rotatory", "RotatoryCon") and self.d % 2:
            raise UserError(f"variant {enc.variant} needs an even d, got {self.d}")
        if enc.variant in ("RoPE", "RopeOne") and self.head_dim % 2:
            raise UserError(f"variant {enc.variant} needs an even head dim, got "
                            f"{self.head_dim} (d {self.d} / heads {self.heads})")
        if enc.is_relative and require_int("clip_distance", enc.clip_distance) < 1:
            raise UserError(f"clip_distance must be >= 1, got {enc.clip_distance}")
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

    @property
    def total_epochs(self) -> int:
        return self.epochs + self.extra_epochs

    def as_dict(self) -> dict:
        """The stored form: the encoding mapping also carries max_len and
        model_dim, so fingerprints and checkpoints keep their format."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["encoding"] = {**self.encoding.as_dict(),
                           "max_len": self.max_len, "model_dim": self.d}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        data = dict(data)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise UserError(f"unknown model config keys: {', '.join(sorted(unknown))}")
        if isinstance(data.get("encoding"), dict):
            enc = {k: v for k, v in data["encoding"].items() if k not in ("max_len", "model_dim")}
            unknown = set(enc) - {f.name for f in fields(EncodingConfig)}
            if unknown:
                raise UserError(f"unknown encoding keys: {', '.join(sorted(unknown))}")
            data["encoding"] = EncodingConfig(**enc)
        return cls(**data)


@dataclass
class SequenceBatch:
    """Training rows in model id space: 0 is padding, item i maps to i + 1."""

    inputs: np.ndarray     # [B, L] int
    positives: np.ndarray  # [B, L] item following inputs[b, t]
    negatives: np.ndarray  # [B, L] sampled outside the user's history
    mask: np.ndarray       # [B, L] bool, True at real positions

    @classmethod
    def stack(cls, rows: list["SequenceBatch"]) -> "SequenceBatch":
        fields = ("inputs", "positives", "negatives", "mask")
        return cls(*(np.concatenate([getattr(r, f) for r in rows]) for f in fields))

    @property
    def positions(self) -> int:
        return int(self.mask.sum())

    def rows(self, start: int, stop: int) -> "SequenceBatch":
        return SequenceBatch(self.inputs[start:stop], self.positives[start:stop],
                             self.negatives[start:stop], self.mask[start:stop])


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
        draw = draw[~np.isin(draw, forbidden)]
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


def build_sequences(history, num_items: int, max_len: int, rng: Rng,
                    exclude=None) -> SequenceBatch | None:
    """One user's training row: inputs are the history minus its last item,
    positives the history shifted by one, negatives drawn uniformly outside
    `exclude` (default: the history itself).  Keeps the most recent max_len
    steps, left-pads shorter ones.  Histories under 2 events yield None.
    """
    history = np.asarray(history, dtype=np.int64)
    if history.size < 2:
        return None
    inputs = history[:-1][-max_len:]
    positives = history[1:][-max_len:]
    forbidden = history if exclude is None else np.asarray(list(exclude), dtype=np.int64)
    negatives = _sample_negatives(inputs.size, num_items, np.unique(forbidden), rng)

    ids, mask = left_pad((inputs, positives, negatives), max_len)
    return SequenceBatch(ids[0:1], ids[1:2], ids[2:3], mask[0:1])


def score(hidden: TensorNode, target_emb: TensorNode) -> TensorNode:
    """Per-position logit: the dot product of a hidden state and a target
    embedding.  Ranking compares the same products; the logistic is applied
    only inside the loss."""
    return nm.dot_last(hidden, target_emb)


def bce_loss(model: Model, batch: SequenceBatch, rng: Rng | None = None, train: bool = False,
             positions: int | None = None) -> TensorNode:
    """The batch's training loss: one forward pass, the logits of its
    positive and negative targets, and their masked binary cross-entropy
    (nm.bce).

    `rng` and `train` drive dropout as in Model.hidden_states.  The masked
    sum is divided by `positions` (default: the unpadded positions of
    `batch`), which keeps the gradient scale comparable across batch sizes;
    a row block passes its whole batch's count, so the blocks' losses sum
    to the batch's.
    """
    hidden = model.hidden_states(batch.inputs, batch.mask, rng=rng, train=train)
    z_pos = score(hidden, nm.gather(model.item_table, batch.positives))
    z_neg = score(hidden, nm.gather(model.item_table, batch.negatives))
    return nm.bce(z_pos, z_neg, batch.mask,
                  batch.positions if positions is None else positions)


def apply_max_norm(tables: list[TensorNode], nmax: float | None) -> None:
    """Rescale any row with Euclidean norm above nmax back to exactly nmax."""
    if nmax is None:
        return
    if not nmax > 0:
        raise UserError(f"nmax must be positive or None, got {nmax}")
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
        self.encoding_tables = EncodingTables.create(config.encoding, d, config.max_len,
                                                     rng.child(1))
        table = rng.child(0).normal((num_items + 1, d), scale=0.02)
        table[0] = 0.0  # padding row
        self.item_table = nm.parameter(table, name="item_table")

        self.attribute_table = None
        self.fuse_weight = None
        self.fuse_bias = None
        if attributes is not None:
            attributes = np.asarray(attributes, dtype=np.float64)
            if attributes.shape[0] != num_items:
                raise UserError(
                    f"attribute matrix covers {attributes.shape[0]} items, dataset has {num_items}"
                )
            rows = np.zeros((num_items + 1, attributes.shape[1]))
            rows[1:] = attributes
            self.attribute_table = nm.constant(rows, name="attribute_table")
            self.fuse_weight = nm.parameter(
                xavier(rng.child(2), (d, d + attributes.shape[1])), name="fuse_weight"
            )
            self.fuse_bias = nm.parameter(np.zeros(d), name="fuse_bias")

        self.rel_tables = None
        if config.encoding.is_relative:
            self.rel_tables = relative_bias_tables(config.encoding.clip_distance, config.head_dim)
        self.blocks = [
            TransformerBlock(config, i, rng.child(10 + i), rel_tables=self.rel_tables)
            for i in range(config.blocks)
        ]
        self.final_gain = nm.parameter(np.ones(d), name="final_gain")
        self.final_bias = nm.parameter(np.zeros(d), name="final_bias")

    def parameters(self) -> list[tuple[str, TensorNode]]:
        out = [("item_table", self.item_table)]
        if self.fuse_weight is not None:
            out += [("fuse_weight", self.fuse_weight), ("fuse_bias", self.fuse_bias)]
        out += self.encoding_tables.parameters()
        if self.rel_tables is not None:
            out += [(t.name, t) for t in self.rel_tables]
        for block in self.blocks:
            out += block.parameters()
        out += [("final_gain", self.final_gain), ("final_bias", self.final_bias)]
        return out

    def clamped_tables(self) -> list[TensorNode]:
        return [self.item_table] + self.encoding_tables.clamped()

    def _embed(self, inputs: np.ndarray, rng: Rng | None, train: bool) -> TensorNode:
        """[B, L, d] block input: item embeddings, attributes, vector encoding."""
        ids = np.asarray(inputs, dtype=np.int64)
        x = nm.gather(self.item_table, ids)
        if self.fuse_weight is not None:
            attrs = nm.gather(self.attribute_table, ids)
            x = nm.linear(nm.concat([x, attrs]), nm.transpose(self.fuse_weight, (1, 0)),
                          self.fuse_bias)
        encoding = self.config.encoding
        if encoding.is_vector or encoding.variant == "None":
            x = apply_vector_encoding(x, encoding, self.encoding_tables)
        return nm.dropout(x, self.config.dropout, rng.child(0) if rng else None, train)

    def hidden_states(self, inputs: np.ndarray, mask: np.ndarray, rng: Rng | None = None,
                      train: bool = False, query_positions=None) -> TensorNode:
        """[B, L_q, d] hidden states for inputs already in model id space, at
        the positions `query_positions` (default: all L).  Every block but the
        last runs all L positions, since later blocks attend to them; the last
        block and the final layer norm run the query positions only.
        """
        x = self._embed(inputs, rng, train)
        keep = causal_keep_mask(mask)
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            x = block(x, keep, rng.child(i + 1) if rng else None, train,
                      query_positions if i == last else None)
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
                self.hidden_states(ids[s:s + rows], mask[s:s + rows], None, False, last).values[:, 0]
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
    model: Model
    history: list[MetricRecord] = field(repr=False)
    best_epoch: int
    valid_hit: float   # percentage scale, NaN when no validation rows exist
    valid_ndcg: float
    test_hit: float
    test_ndcg: float
    skipped_users: int


def _loss_and_gradients(model: Model, batch: SequenceBatch, drop_rng: Rng) -> float:
    """Mean batch loss; when finite, its gradient is added to the parameters'
    adjoints.

    The batch runs in blocks of block_rows(config) rows, one forward pass,
    loss and backward() each; a batch that fits one block is not split.  Each
    block's masked sum is divided by the whole batch's position count and
    its dropout masks are its rows of the whole batch's draws
    (Rng.skip_rows), so the summed losses and the accumulated adjoints equal
    those of one pass over the batch up to rounding.  A non-finite block
    loss is returned at once, with the adjoints of the blocks before it left
    in place.
    """
    rows = block_rows(model.config)
    total = 0.0
    for start in range(0, batch.inputs.shape[0], rows):
        value = _block_loss_and_gradients(model, batch.rows(start, start + rows),
                                          drop_rng.skip_rows(start), batch.positions)
        if not np.isfinite(value):
            return value
        total += value
    return total


def _block_loss_and_gradients(model: Model, part: SequenceBatch, drop_rng: Rng,
                              positions: int) -> float:
    """One row block's share of the batch loss, backpropagated when finite.
    Its graph is freed on return, before the next block's forward pass."""
    loss = bce_loss(model, part, rng=drop_rng, train=True, positions=positions)
    value = loss.item()
    if np.isfinite(value):
        loss.backward()
    return value


def train(config: ModelConfig, dataset: InteractionDataset, progress=None) -> TrainResult:
    """Full training run: leave-one-out split, Adam over shuffled user
    batches, max-norm clamp, logarithmic validation schedule, best-checkpoint
    test metrics.  Deterministic given config.seed; NaN loss aborts.
    """
    split = leave_one_out(dataset)
    root = Rng(config.seed)
    model = Model(dataset.num_items, config, root.child(0), attributes=dataset.attributes)
    nodes = [node for _, node in model.parameters()]
    state = AdamState.for_params(nodes)

    eligible = [u for u, seq in enumerate(split.train_sequences) if seq.size >= 2]
    skipped = dataset.num_users - len(eligible)
    if not eligible:
        raise UserError("no user has a training sequence of at least 2 events")

    neg_root = root.child(1)
    shuffle_root = root.child(2)
    drop_root = root.child(3)
    valid_root = root.child(4)
    test_rng = root.child(TEST_EVAL_STREAM)

    history: list[MetricRecord] = []
    best_values = None
    best_epoch = 0
    best_hit = -1.0
    best_ndcg = float("nan")
    last_eval = 0
    total = config.total_epochs

    for epoch in range(1, total + 1):
        order = shuffle_root.child(epoch).permutation(len(eligible))
        neg_epoch = neg_root.child(epoch)
        drop_epoch = drop_root.child(epoch)
        loss_sum = 0.0
        loss_positions = 0
        for start in range(0, len(order), config.batch_size):
            users = [eligible[i] for i in order[start:start + config.batch_size]]
            rows = [
                build_sequences(
                    split.train_sequences[u], dataset.num_items, config.max_len,
                    neg_epoch.child(u), exclude=dataset.sequences[u],
                )
                for u in users
            ]
            batch = SequenceBatch.stack(rows)
            value = _loss_and_gradients(model, batch, drop_epoch.child(start))
            if not np.isfinite(value):
                raise TrainingDiverged(
                    epoch,
                    f"loss became {value} (encoding={config.encoding.variant}, "
                    f"lr={config.lr}, seed={config.seed})",
                )
            if config.l2_weight > 0.0:
                for node in nodes:
                    grad = node.adjoint if node.adjoint is not None else 0.0
                    node.adjoint = grad + 2.0 * config.l2_weight * node.values
            if config.lr > 0.0:
                adam_step(nodes, state, lr=config.lr)
                apply_max_norm(model.clamped_tables(), config.nmax)
            else:  # dry run: gradients computed, parameters untouched
                for node in nodes:
                    node.adjoint = None
            loss_sum += value * batch.positions
            loss_positions += batch.positions

        epoch_loss = loss_sum / loss_positions
        history.append(MetricRecord(epoch, "train", epoch_loss, float("nan"), float("nan")))

        if epoch == 1 or epoch == total or epoch >= last_eval * EVAL_SCHEDULE_FACTOR:
            last_eval = epoch
            if split.valid:
                result = evaluate(model, split.valid, config.eval_negatives,
                                  valid_root.child(epoch))
                hit, ndcg = 100.0 * result.hit_at_10, 100.0 * result.ndcg
                history.append(MetricRecord(epoch, "valid", float("nan"), hit, ndcg))
                if hit > best_hit:
                    best_hit, best_ndcg, best_epoch = hit, ndcg, epoch
                    best_values = model.snapshot()
                if progress:
                    progress(f"epoch {epoch}: loss {epoch_loss:.4f}  "
                             f"valid Hit@10 {hit:.2f}  NDCG {ndcg:.2f}")
            elif progress:
                progress(f"epoch {epoch}: loss {epoch_loss:.4f}")

    if best_values is None:  # nothing to validate on: final parameters win
        best_epoch = total
        best_hit = best_ndcg = float("nan")
        best_values = model.snapshot()
    model.restore(best_values)

    test_result = evaluate(model, split.test, config.eval_negatives, test_rng)
    test_hit, test_ndcg = 100.0 * test_result.hit_at_10, 100.0 * test_result.ndcg
    history.append(MetricRecord(best_epoch, "test", float("nan"), test_hit, test_ndcg))
    if progress:
        progress(f"best epoch {best_epoch}: test Hit@10 {test_hit:.2f}  NDCG {test_ndcg:.2f}")
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        valid_hit=best_hit,
        valid_ndcg=best_ndcg,
        test_hit=test_hit,
        test_ndcg=test_ndcg,
        skipped_users=skipped,
    )


def save_checkpoint(model: Model, path: str) -> None:
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "num_items": model.num_items,
        "has_attributes": model.attribute_table is not None,
        "config": model.config.as_dict(),
    }
    arrays = {f"param:{name}": node.values for name, node in model.parameters()}
    if model.attribute_table is not None:
        arrays["attributes"] = model.attribute_table.values[1:]
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path: str) -> Model:
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as err:
        raise UserError(f"cannot read checkpoint {path}: {err}") from None
    with archive:
        if "__meta__" not in archive:
            raise UserError(f"{path} is not a model checkpoint")
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise UserError(
                f"checkpoint format {meta.get('format_version')} is not supported"
            )
        config = ModelConfig.from_dict(meta["config"])
        attributes = archive["attributes"] if meta["has_attributes"] else None
        model = Model(meta["num_items"], config, Rng(config.seed), attributes=attributes)
        for name, node in model.parameters():
            key = f"param:{name}"
            if key not in archive:
                raise UserError(f"checkpoint is missing parameter '{name}'")
            stored = archive[key]
            if stored.shape != node.values.shape:
                raise UserError(
                    f"checkpoint parameter '{name}' has shape {stored.shape}, "
                    f"expected {node.values.shape}"
                )
            if not np.isfinite(stored).all():  # a NaN target score would rank first
                raise UserError(f"checkpoint parameter '{name}' holds non-finite values")
            node.values = stored.astype(np.float64)
    return model
