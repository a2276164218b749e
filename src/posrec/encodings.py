"""Positional encoding variants and their parameter tables.

Ten variants, referred to everywhere by these exact names:

    None        no positional information
    Abs         fixed sinusoidal table, added to the embeddings
    AbsCon      fixed sinusoidal table, concatenated then projected
    Learnt      trainable position table, added
    LearntCon   trainable position table, concatenated then projected
    Rotatory    trainable angles rotating unit (sin, cos) pairs, added
    RotatoryCon the same rows, concatenated then projected
    RMHA4       relative attention biases at clamped offsets (in-attention)
    RoPE        query/key pair rotation by position (in-attention)
    RopeOne     RoPE in the first attention block only

The first seven act on the input embeddings (vector encodings); the last
three act inside attention and are applied by the attention module.

Both rotation encodings are the one op `numeric.rotate`: RoPE turns the
query and key pairs by fixed position angles, and a Rotatory table turns the
unit pairs (0, 1) by its trainable angles.

EncodingConfig names the variant and its options; ModelConfig holds it and
validates it against the model's sizes.  EncodingTables holds every table an
encoding trains, built from the model's config: a vector variant's rows and
Con projection, and RMHA4's offset bias tables, which every block shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numeric as nm
from .numeric import Rng, TensorNode

if TYPE_CHECKING:
    from .model import ModelConfig

VARIANTS = (
    "None",
    "Abs",
    "AbsCon",
    "Learnt",
    "LearntCon",
    "Rotatory",
    "RotatoryCon",
    "RMHA4",
    "RoPE",
    "RopeOne",
)
VECTOR_VARIANTS = ("Abs", "AbsCon", "Learnt", "LearntCon", "Rotatory", "RotatoryCon")
CON_VARIANTS = ("AbsCon", "LearntCon", "RotatoryCon")
# feed-forward activations; a Con projection may also use the identity
ACTIVATIONS = ("leaky", "silu")
PROJECTION_ACTIVATIONS = ACTIVATIONS + ("identity",)


def activate(name: str, x: TensorNode) -> TensorNode:
    """The activation `name` (one of PROJECTION_ACTIVATIONS) applied to x."""
    if name == "leaky":
        return nm.leaky_relu(x)
    if name == "silu":
        return nm.silu(x)
    return x


def xavier(rng: Rng, shape: tuple[int, int]) -> np.ndarray:
    """Glorot-uniform weights: U(-l, l) with l = sqrt(6 / sum(shape))."""
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(shape, -limit, limit)


def sinusoidal_table(max_len: int, model_dim: int) -> np.ndarray:
    """Classic interleaved sin/cos table, shape [max_len, model_dim]; model_dim is even."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(model_dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / model_dim)
    table = np.empty((max_len, model_dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def rotatory_table(angle_table: TensorNode) -> TensorNode:
    """Trainable trig rows of width d = 2H: even columns (-1)^i sin, odd columns cos.

    angle_table [L, H] has one column per (sin, cos) pair; entry i is scaled
    by 2*pi / 10000^(2i/d), so a unit angle entry sweeps the full circle at
    the lowest frequency.  The rows are the unit pairs (0, 1) rotated by
    -(-1)^i times that angle, so every pair has unit norm whatever the angles.
    """
    L, H = angle_table.shape
    i = np.arange(H, dtype=np.float64)
    freq = 2.0 * np.pi / np.power(10000.0, 2.0 * i / (2 * H))
    units = nm.constant(np.tile([0.0, 1.0], (L, H)))
    return nm.rotate(units, angle_table, np.where(i % 2 == 0, -freq, freq))


def rope_rotate(x: TensorNode, base: float = 10000.0, positions=None) -> TensorNode:
    """Rotate each (2i, 2i+1) pair of the last axis by its position's angle.

    x is [..., L, head_dim]; position m (default: 0 .. L-1) turns pair i by
    m / base^(2i/head_dim).  An odd head_dim raises ShapeMismatchError.
    """
    L, d_h = x.shape[-2], x.shape[-1]
    if positions is None:
        positions = np.arange(L)
    angles = nm.constant(np.asarray(positions)[:, None])
    return nm.rotate(x, angles, np.power(base, -2.0 * np.arange(d_h // 2) / d_h))


def relative_index_matrix(length: int, clip: int) -> np.ndarray:
    """Table row index for every (query i, key j): clamp(j - i, -clip, clip) + clip."""
    j = np.arange(length)[None, :]
    i = np.arange(length)[:, None]
    return np.clip(j - i, -clip, clip) + clip


@dataclass(frozen=True)
class EncodingConfig:
    """Which variant a model uses, and the options of that variant.

    Holds no dimensions and no tables: the model supplies d and max_len, and
    EncodingTables holds the parameters.  An unset `projection_activation`
    follows the model's feed-forward activation; ModelConfig resolves it and
    validates every field.
    """

    variant: str = "None"
    clip_distance: int = 4
    rope_base: float = 10000.0
    use_value_bias: bool = True
    projection_activation: str | None = None

    @property
    def is_vector(self) -> bool:
        return self.variant in VECTOR_VARIANTS

    @property
    def is_concat(self) -> bool:
        return self.variant in CON_VARIANTS

    @property
    def is_relative(self) -> bool:
        return self.variant == "RMHA4"

    @property
    def is_rope(self) -> bool:
        return self.variant in ("RoPE", "RopeOne")

    def rope_active(self, block_index: int) -> bool:
        return self.variant == "RoPE" or (self.variant == "RopeOne" and block_index == 0)

    def as_dict(self) -> dict:
        """The variant plus exactly the options it reads."""
        cfg = {"variant": self.variant}
        if self.is_relative:
            cfg["clip_distance"] = self.clip_distance
            cfg["use_value_bias"] = self.use_value_bias
        if self.is_rope:
            cfg["rope_base"] = self.rope_base
        if self.is_concat:
            cfg["projection_activation"] = self.projection_activation
        return cfg


@dataclass
class EncodingTables:
    """Every table an encoding trains (or caches, for Abs).

    Fields its variant does not use stay None.  RMHA4's [2 clip + 1, head_dim]
    offset tables start at zero, so relative attention starts out as standard
    attention; the value table exists only under `use_value_bias`.
    """

    abs_table: np.ndarray | None = None
    position_table: TensorNode | None = None
    angle_table: TensorNode | None = None
    projection_weight: TensorNode | None = None
    projection_bias: TensorNode | None = None
    rel_key_table: TensorNode | None = None
    rel_value_table: TensorNode | None = None

    @classmethod
    def create(cls, config: ModelConfig, rng: Rng) -> "EncodingTables":
        """The tables of `config`'s encoding, at its d, max_len and head dim."""
        encoding, d, max_len = config.encoding, config.d, config.max_len
        tables = cls()
        if encoding.variant in ("Abs", "AbsCon"):
            tables.abs_table = sinusoidal_table(max_len, d)
        if encoding.variant in ("Learnt", "LearntCon"):
            tables.position_table = nm.parameter(rng.normal((max_len, d), scale=0.02))
        if encoding.variant in ("Rotatory", "RotatoryCon"):
            # U[0, 1) angle entries sweep the full circle at the base frequency
            tables.angle_table = nm.parameter(rng.uniform((max_len, d // 2)))
        if encoding.is_concat:
            tables.projection_weight = nm.parameter(xavier(rng, (d, 2 * d)))
            tables.projection_bias = nm.parameter(np.zeros(d))
        if encoding.is_relative:
            shape = (2 * encoding.clip_distance + 1, config.head_dim)
            tables.rel_key_table = nm.parameter(np.zeros(shape))
            if encoding.use_value_bias:
                tables.rel_value_table = nm.parameter(np.zeros(shape))
        return tables

    def parameters(self) -> list[tuple[str, TensorNode]]:
        names = ("position_table", "angle_table", "projection_weight", "projection_bias",
                 "rel_key_table", "rel_value_table")
        return [(name, getattr(self, name)) for name in names if getattr(self, name) is not None]

    def clamped(self) -> list[TensorNode]:
        """Vector-encoding tables subject to the max-norm clamp."""
        return [t for t in (self.position_table, self.angle_table) if t is not None]

    def rows(self) -> TensorNode:
        """The [max_len, d] table this vector variant adds or concatenates."""
        if self.abs_table is not None:
            return nm.constant(self.abs_table)
        if self.position_table is not None:
            return self.position_table
        return rotatory_table(self.angle_table)


def project_concat(x: TensorNode, extra: TensorNode, weight: TensorNode,
                   bias: TensorNode) -> TensorNode:
    """W . [x ; extra] + b for W = [W_x | W_e], as x W_x^T + (extra W_e^T + b):
    no concatenation is built, and [L, d_e] rows that every sequence shares
    are projected once per position rather than once per sequence."""
    d_x = x.shape[-1]
    w_t = nm.transpose(weight, (1, 0))  # [d_x + d_e, n]: W_x^T over W_e^T
    w_x_t, w_e_t = nm.gather(w_t, np.arange(d_x)), nm.gather(w_t, np.arange(d_x, w_t.shape[0]))
    return nm.linear(x, w_x_t, nm.linear(extra, w_e_t, bias))


def apply_vector_encoding(x: TensorNode, encoding: EncodingConfig,
                          tables: EncodingTables) -> TensorNode:
    """Combine input embeddings [B, max_len, d] with a vector variant's
    position rows, built at the same max_len and d.

    Plain variants add the rows; the Con variants project
    activation(W . [x ; rows] + b) back to d (project_concat).
    """
    rows = tables.rows()
    if not encoding.is_concat:
        return nm.add(x, rows)
    projected = project_concat(x, rows, tables.projection_weight, tables.projection_bias)
    return activate(encoding.projection_activation, projected)
