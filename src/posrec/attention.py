"""Causal multi-head attention and pre-layer-norm residual blocks.

Standard attention, its relative-bias variant (key/value offset tables), and
the query/key pair rotation are all wired through one block so every encoding
variant runs through identical plumbing. Each attention call is one
`numeric.attend` node; RoPE rotates q and k before it. The relative bias
tables belong to the model's EncodingTables, which every block reads. Masks
are boolean keep-matrices; disallowed keys get weight 0 and fully masked rows
come out as zeros, never NaN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numeric as nm
from .encodings import EncodingTables, activate, relative_index_matrix, rope_rotate, xavier
from .numeric import Rng, TensorNode

if TYPE_CHECKING:
    from .model import ModelConfig


def scaled_dot_attention(q, k, v, keep_mask):
    """softmax(QK^T / sqrt(d_h)) V with boolean keep mask: q [B, h, L_q, d_h],
    k and v [B, h, L, d_h]."""
    return nm.attend(q, k, v, keep_mask)


def relative_attention(q, k, v, a_k, a_v, keep_mask, query_positions=None):
    """Attention with trainable biases indexed by the clamped offset j - i.

    a_k rows enter the pre-softmax scores through a dot with the query;
    a_v rows, unless a_v is None, are added to the values under the
    attention weights.  Query row
    r sits at position query_positions[r] (default: every key position).

    Only C = 2*clip + 1 offsets exist, so both terms work on offset buckets
    (Shaw et al. 2018, section 3.3) and no [L_q, L, d_h] tensor is built.  The
    key term scores each query against every table row, q @ a_k^T of shape
    [B, h, L_q, C], and reads pair (i, j) at its bucket.  The value term sums
    row i's attention weights into the buckets of its keys, [B, h, L_q, C],
    and multiplies that by a_v.
    """
    idx = relative_index_matrix(k.shape[-2], (a_k.shape[0] - 1) // 2)
    if query_positions is not None:
        idx = idx[query_positions]
    return nm.attend(q, k, v, keep_mask, a_k, a_v, idx)


class TransformerBlock:
    """Pre-layer-norm residual block: attention sublayer then feed-forward.

    x -> x + drop(attn(LN(x)))  -> h + drop(W2 act(W1 LN(h) + b1) + b2)

    Sizes, dropout, activation and encoding come from the model's (already
    validated) config.  `tables` are the model's encoding tables, which hold
    the relative bias tables every block shares.
    """

    def __init__(self, config: ModelConfig, block_index: int, rng: Rng, tables: EncodingTables):
        self.config = config
        self.block_index = block_index
        self.tables = tables
        d, g = config.d, config.g
        self.ln1_gain = nm.parameter(np.ones(d))
        self.ln1_bias = nm.parameter(np.zeros(d))
        self.w_query = nm.parameter(xavier(rng, (d, d)))
        self.w_key = nm.parameter(xavier(rng, (d, d)))
        self.w_value = nm.parameter(xavier(rng, (d, d)))
        self.w_out = nm.parameter(xavier(rng, (d, d)))
        self.b_query = nm.parameter(np.zeros(d))
        self.b_key = nm.parameter(np.zeros(d))
        self.b_value = nm.parameter(np.zeros(d))
        self.b_out = nm.parameter(np.zeros(d))
        self.ln2_gain = nm.parameter(np.ones(d))
        self.ln2_bias = nm.parameter(np.zeros(d))
        self.w_ff1 = nm.parameter(xavier(rng, (d, g)))
        self.b_ff1 = nm.parameter(np.zeros(g))
        self.w_ff2 = nm.parameter(xavier(rng, (g, d)))
        self.b_ff2 = nm.parameter(np.zeros(d))

    def parameters(self) -> list[tuple[str, TensorNode]]:
        names = (
            "ln1_gain", "ln1_bias",
            "w_query", "b_query", "w_key", "b_key", "w_value", "b_value",
            "w_out", "b_out",
            "ln2_gain", "ln2_bias",
            "w_ff1", "b_ff1", "w_ff2", "b_ff2",
        )
        return [(f"block{self.block_index}.{n}", getattr(self, n)) for n in names]

    def _split_heads(self, x: TensorNode, B: int, L: int) -> TensorNode:
        h, d_h = self.config.heads, self.config.head_dim
        return nm.transpose(nm.reshape(x, (B, L, h, d_h)), (0, 2, 1, 3))

    def __call__(self, x: TensorNode, keep_mask, drop=(None, None),
                 query_positions=None) -> TensorNode:
        """[B, L, d] -> [B, L_q, d], for the query rows at `query_positions`
        (default: all L).  Keys and values always cover every position; the
        queries, attention rows, residuals and feed-forward only the query rows.
        `drop` holds the dropout keep masks of the attention and feed-forward
        outputs, [B, L_q, d] bool each, or None for no dropout.
        """
        cfg, encoding = self.config, self.config.encoding
        B, L, d = x.shape
        normed = nm.layer_norm(x, self.ln1_gain, self.ln1_bias)
        k = self._split_heads(nm.linear(normed, self.w_key, self.b_key), B, L)
        v = self._split_heads(nm.linear(normed, self.w_value, self.b_value), B, L)
        if query_positions is not None:  # rebinding frees the full-length rows
            x, normed = _rows(x, query_positions), _rows(normed, query_positions)
            keep_mask = keep_mask[..., query_positions, :]
        L_q = x.shape[1]
        q = self._split_heads(nm.linear(normed, self.w_query, self.b_query), B, L_q)
        if encoding.rope_active(self.block_index):
            q = rope_rotate(q, base=encoding.rope_base, positions=query_positions)
            k = rope_rotate(k, base=encoding.rope_base)
        if encoding.is_relative:
            attended = relative_attention(q, k, v, self.tables.rel_key_table,
                                          self.tables.rel_value_table, keep_mask, query_positions)
        else:
            attended = scaled_dot_attention(q, k, v, keep_mask)
        merged = nm.reshape(nm.transpose(attended, (0, 2, 1, 3)), (B, L_q, d))
        attn_out = nm.linear(merged, self.w_out, self.b_out)
        x = nm.add(x, nm.dropout(attn_out, drop[0], cfg.dropout))

        normed = nm.layer_norm(x, self.ln2_gain, self.ln2_bias)
        hidden = activate(cfg.activation, nm.linear(normed, self.w_ff1, self.b_ff1))
        ff_out = nm.linear(hidden, self.w_ff2, self.b_ff2)
        return nm.add(x, nm.dropout(ff_out, drop[1], cfg.dropout))


def _rows(x: TensorNode, positions) -> TensorNode:
    """[B, L, d] -> [B, len(positions), d]: the rows at `positions` of every sequence."""
    B, L, d = x.shape
    flat_ids = np.arange(B)[:, None] * L + np.asarray(positions)[None, :]
    return nm.gather(nm.reshape(x, (B * L, d)), flat_ids)


def causal_keep_mask(valid: np.ndarray) -> np.ndarray:
    """[B, 1, L, L] boolean: key j visible from query i iff j <= i and j is real."""
    B, L = valid.shape
    tri = np.tril(np.ones((L, L), dtype=bool))
    return (tri[None, :, :] & valid[:, None, :].astype(bool))[:, None, :, :]
