"""Attention against double-loop oracles, mask semantics, block wiring."""

import numpy as np
import pytest

from posrec import numeric as nm
from posrec.attention import (
    TransformerBlock,
    causal_keep_mask,
    relative_attention,
    scaled_dot_attention,
)
from posrec.encodings import relative_bias_tables
from posrec.errors import UserError
from posrec.model import ModelConfig


def full_mask(B, L):
    return np.ones((B, 1, L, L), dtype=bool)


def loop_attention(q, k, v, keep):
    """Plain-python reference: per query row, softmax over allowed keys."""
    L, d_h = q.shape
    out = np.zeros_like(v)
    weights = np.zeros((L, L))
    for i in range(L):
        logits = []
        cols = []
        for j in range(L):
            if keep[i, j]:
                logits.append(float(q[i] @ k[j]) / np.sqrt(d_h))
                cols.append(j)
        if not cols:
            continue
        logits = np.array(logits)
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        for p_ij, j in zip(p, cols):
            weights[i, j] = p_ij
            out[i] += p_ij * v[j]
    return out, weights


def loop_relative(q, k, v, a_k, a_v, clip, keep):
    """Reference with key/value offset biases at clamp(j - i)."""
    L, d_h = q.shape
    out = np.zeros_like(v)
    for i in range(L):
        logits, cols = [], []
        for j in range(L):
            if keep[i, j]:
                r = min(max(j - i, -clip), clip) + clip
                logits.append((float(q[i] @ k[j]) + float(q[i] @ a_k[r])) / np.sqrt(d_h))
                cols.append(j)
        if not cols:
            continue
        e = np.exp(np.array(logits) - max(logits))
        p = e / e.sum()
        for p_ij, j in zip(p, cols):
            r = min(max(j - i, -clip), clip) + clip
            out[i] += p_ij * (v[j] + a_v[r])
    return out


def attention_weights(q, k, keep):
    """P itself: attention over the identity values returns its weights."""
    L = k.shape[-2]
    eye = nm.constant(np.broadcast_to(np.eye(L), k.shape[:-2] + (L, L)))
    return scaled_dot_attention(q, k, eye, keep)


def test_single_token_attention_weight_is_one():
    rng = nm.Rng(1)
    q = nm.tensor(rng.normal((1, 1, 1, 4)))
    k = nm.tensor(rng.normal((1, 1, 1, 4)))
    v = nm.tensor(rng.normal((1, 1, 1, 4)))
    w = attention_weights(q, k, full_mask(1, 1))
    out = scaled_dot_attention(q, k, v, full_mask(1, 1))
    np.testing.assert_allclose(w.values, [[[[1.0]]]], atol=1e-15)
    np.testing.assert_allclose(out.values, v.values, atol=1e-15)


def test_equal_keys_give_uniform_weights():
    rng = nm.Rng(2)
    L = 5
    q = nm.tensor(rng.normal((1, 1, L, 4)))
    k = nm.tensor(np.tile(rng.normal((1, 1, 1, 4)), (1, 1, L, 1)))
    w = attention_weights(q, k, full_mask(1, L))
    np.testing.assert_allclose(w.values, 1.0 / L, atol=1e-12)


@pytest.mark.parametrize("variant", ["plain", "relative", "relative_no_value_bias"])
def test_each_attention_call_is_one_attend_node(variant):
    rng = nm.Rng(24)
    L, d_h = 5, 4
    q, k, v = (nm.parameter(rng.normal((2, 2, L, d_h))) for _ in range(3))
    a_k, a_v = (nm.parameter(rng.normal((5, d_h))) for _ in range(2))
    keep = np.tril(np.ones((L, L), dtype=bool))[None, None]
    if variant == "plain":
        out, parents = scaled_dot_attention(q, k, v, keep), (q, k, v)
    else:
        use_value_bias = variant == "relative"
        out = relative_attention(q, k, v, a_k, a_v, keep, use_value_bias=use_value_bias)
        parents = (q, k, v, a_k, a_v) if use_value_bias else (q, k, v, a_k)
    assert out.op_record.op == "attend"
    assert len(out.op_record.parents) == len(parents)
    assert all(got is want for got, want in zip(out.op_record.parents, parents))


def test_attention_matches_double_loop_oracle():
    rng = nm.Rng(3)
    L, d_h = 6, 8
    q, k, v = (rng.normal((L, d_h)) for _ in range(3))
    keep = np.tril(np.ones((L, L), dtype=bool))
    out = scaled_dot_attention(
        nm.tensor(q[None, None]), nm.tensor(k[None, None]), nm.tensor(v[None, None]),
        keep[None, None],
    )
    expected, _ = loop_attention(q, k, v, keep)
    np.testing.assert_allclose(out.values[0, 0], expected, atol=1e-12)


@pytest.mark.parametrize("L,d_h", [(5, 6), (8, 4)])
def test_relative_attention_matches_double_loop_oracle(L, d_h):
    rng = nm.Rng(4, L)
    clip = 4
    q, k, v = (rng.normal((L, d_h)) for _ in range(3))
    a_k = rng.normal((2 * clip + 1, d_h))
    a_v = rng.normal((2 * clip + 1, d_h))
    keep = np.tril(np.ones((L, L), dtype=bool))
    out = relative_attention(
        nm.tensor(q[None, None]), nm.tensor(k[None, None]), nm.tensor(v[None, None]),
        nm.tensor(a_k), nm.tensor(a_v), keep[None, None],
    )
    expected = loop_relative(q, k, v, a_k, a_v, clip, keep)
    np.testing.assert_allclose(out.values[0, 0], expected, atol=1e-10)


@pytest.mark.parametrize("use_value_bias", [True, False])
@pytest.mark.parametrize("query_positions", [None, [1, 4, 7]])
def test_relative_attention_gradients_over_shared_buckets(query_positions, use_value_bias):
    # L=8 with clip 2: the two clamped buckets hold up to six keys of a query
    # row, so their adjoints sum over several pairs.  The keep mask drops only
    # padded keys, so later keys fill the positive buckets too.
    rng = nm.Rng(50)
    L, d_h, clip = 8, 4, 2
    L_q = L if query_positions is None else len(query_positions)
    q = nm.parameter(rng.normal((2, 2, L_q, d_h)))
    k, v = (nm.parameter(rng.normal((2, 2, L, d_h))) for _ in range(2))
    a_k, a_v = (nm.parameter(rng.normal((2 * clip + 1, d_h))) for _ in range(2))
    valid = np.array([[True] * L, [False, False] + [True] * (L - 2)])
    keep = np.broadcast_to(valid[:, None, None, :], (2, 1, L_q, L))
    weights = rng.normal((2, 2, L_q, d_h))

    def build():
        out = relative_attention(q, k, v, a_k, a_v, keep, use_value_bias=use_value_bias,
                                 query_positions=query_positions)
        return nm.dot_last(nm.reshape(out, (-1,)), nm.constant(weights.ravel()))

    params = [("q", q), ("k", k), ("v", v), ("a_k", a_k)]
    if use_value_bias:
        params.append(("a_v", a_v))
    report = nm.check_gradients(build, params, h=1e-5)
    assert report.max_rel_err < 1e-4, f"{report.worst_param} {report.max_rel_err:.2e}"


def test_zero_bias_tables_reduce_to_standard_attention():
    rng = nm.Rng(5)
    L, d_h = 7, 4
    q = nm.tensor(rng.normal((2, 2, L, d_h)))
    k = nm.tensor(rng.normal((2, 2, L, d_h)))
    v = nm.tensor(rng.normal((2, 2, L, d_h)))
    keep = np.tril(np.ones((L, L), dtype=bool))[None, None]
    a_k, a_v = relative_bias_tables(4, d_h)
    rel = relative_attention(q, k, v, a_k, a_v, keep)
    std = scaled_dot_attention(q, k, v, keep)
    np.testing.assert_allclose(rel.values, std.values, atol=1e-14)


def test_all_masked_query_rows_produce_zeros():
    rng = nm.Rng(6)
    q = nm.tensor(rng.normal((1, 1, 3, 4)))
    k = nm.tensor(rng.normal((1, 1, 3, 4)))
    v = nm.tensor(rng.normal((1, 1, 3, 4)))
    keep = np.zeros((1, 1, 3, 3), dtype=bool)
    keep[0, 0, 2, :] = True
    out = scaled_dot_attention(q, k, v, keep)
    assert not np.isnan(out.values).any()
    np.testing.assert_allclose(out.values[0, 0, :2], 0.0)


# ---------------------------------------------------------------------------
# blocks


def make_block(variant="None", d=8, heads=2, L=6, dropout=0.0, seed=11, block_index=0):
    config = ModelConfig(d=d, g=2 * d, heads=heads, max_len=L, dropout=dropout,
                         activation="leaky", encoding=variant)
    rel = None
    if variant == "RMHA4":
        rel = relative_bias_tables(config.encoding.clip_distance, config.head_dim)
    return TransformerBlock(config, block_index, nm.Rng(seed, 2), rel_tables=rel)


def test_block_preserves_shape_for_every_variant():
    x = nm.Rng(7).normal((3, 6, 8))
    valid = np.ones((3, 6), dtype=bool)
    for variant in ("None", "Abs", "Learnt", "Rotatory", "RMHA4", "RoPE", "RopeOne"):
        block = make_block(variant)
        out = block(nm.tensor(x), causal_keep_mask(valid))
        assert out.shape == (3, 6, 8), variant


def test_causal_mask_blocks_future_positions():
    rng = nm.Rng(8)
    block = make_block("RoPE")
    x = rng.normal((1, 6, 8))
    valid = np.ones((1, 6), dtype=bool)
    base = block(nm.tensor(x), causal_keep_mask(valid)).values
    poked = x.copy()
    poked[0, 4:] += rng.normal((2, 8))  # only positions 4, 5 change
    out = block(nm.tensor(poked), causal_keep_mask(valid)).values
    np.testing.assert_allclose(out[0, :4], base[0, :4], atol=1e-12)


def test_padded_keys_never_influence_real_positions():
    rng = nm.Rng(9)
    block = make_block("RMHA4")
    x = rng.normal((1, 6, 8))
    valid = np.array([[False, False, True, True, True, True]])
    base = block(nm.tensor(x), causal_keep_mask(valid)).values
    poked = x.copy()
    poked[0, :2] = rng.normal((2, 8))  # rewrite the padded slots
    out = block(nm.tensor(poked), causal_keep_mask(valid)).values
    np.testing.assert_allclose(out[0, 2:], base[0, 2:], atol=1e-12)


@pytest.mark.parametrize("variant", ["None", "RMHA4", "RoPE"])
def test_query_positions_select_rows_of_the_full_block(variant):
    rng = nm.Rng(23)
    block = make_block(variant)
    if variant == "RMHA4":
        for table in block.rel_tables:
            table.values = rng.normal(table.shape)
    x = rng.normal((2, 6, 8))
    valid = np.array([[False, True, True, True, True, True], [True] * 6])
    mask = causal_keep_mask(valid)
    full = block(nm.tensor(x), mask).values
    for positions in ([5], [1, 3], [0, 2, 5]):
        rows = block(nm.tensor(x), mask, query_positions=positions).values
        np.testing.assert_allclose(rows, full[:, positions], atol=1e-12)


def test_rope_one_matches_plain_block_past_block_zero():
    # identical init streams, so the only difference is the rotation gate
    a = make_block("RopeOne", seed=21, block_index=1)
    b = make_block("None", seed=21, block_index=1)
    x = nm.Rng(22).normal((2, 6, 8))
    valid = np.ones((2, 6), dtype=bool)
    mask = causal_keep_mask(valid)
    np.testing.assert_allclose(a(nm.tensor(x), mask).values, b(nm.tensor(x), mask).values, atol=1e-14)
    a0 = make_block("RopeOne", seed=21, block_index=0)
    b0 = make_block("None", seed=21, block_index=0)
    assert np.abs(a0(nm.tensor(x), mask).values - b0(nm.tensor(x), mask).values).max() > 1e-6


def test_block_gradients_match_finite_differences():
    for variant in ("None", "Rotatory", "RMHA4", "RoPE"):
        block = make_block(variant, d=8, heads=2, L=5, seed=31)
        rng = nm.Rng(32)
        x = nm.parameter(rng.normal((2, 5, 8)))
        weights = rng.normal((2, 5, 8))
        valid = np.array([[True] * 5, [False, False, True, True, True]])
        mask = causal_keep_mask(valid)

        def build():
            out = block(x, mask)
            return nm.dot_last(nm.reshape(out, (-1,)), nm.constant(weights.ravel()))

        params = [("x", x)] + block.parameters()
        if block.rel_tables is not None:
            params += [("a_k", block.rel_tables[0]), ("a_v", block.rel_tables[1])]
        report = nm.check_gradients(build, params, h=1e-5)
        assert report.max_rel_err < 1e-4, f"{variant}: {report.worst_param} {report.max_rel_err:.2e}"


def test_block_config_validation():
    # a block reads its sizes from ModelConfig, which rejects what no block can run
    for bad in (dict(d=9, heads=2),                     # not divisible
                dict(activation="relu"),
                dict(dropout=1.0),
                dict(d=6, heads=2, encoding="RoPE"),     # head dim 3 is odd
                dict(d=6, heads=2, encoding="RopeOne")):
        with pytest.raises(UserError):
            ModelConfig(**bad)
