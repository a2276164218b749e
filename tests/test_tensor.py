"""Op-level checks for the autodiff engine.

Every differentiable op gets its analytic adjoint compared against central
finite differences (h=1e-5, float64) over randomized shapes and values. The
checker only calls forward evaluations, so the two routes are independent.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from posrec import numeric as nm
from posrec.errors import GraphError, ShapeMismatchError
from posrec.numeric.tensor import _sum_offsets, _take_offsets

H = 1e-5
TOL = 1e-4


def weighted_sum(node, rng):
    """Scalar loss with a random downstream weighting so grads are not flat."""
    w = nm.constant(rng.normal((node.values.size,)))
    return nm.dot_last(nm.reshape(node, (-1,)), w)


def away_from(x, points, margin):
    """Push entries of x at least `margin` away from each kink point."""
    for p in points:
        close = np.abs(x - p) < margin
        x = np.where(close, p + np.sign(x - p + 1e-12) * margin, x)
    return x


# one entry per op: rng -> (named params, build_loss)
def _case_add(rng):
    a = nm.parameter(rng.normal((3, 4)))
    b = nm.parameter(rng.normal((4,)))  # broadcasts over rows
    return [("a", a), ("b", b)], lambda: weighted_sum(nm.add(a, b), rng.child(0))


def _case_linear(rng):
    x = nm.parameter(rng.normal((2, 2, 3)))
    w = nm.parameter(rng.normal((3, 2)))  # shared by every row of x
    return [("x", x), ("w", w)], lambda: weighted_sum(nm.linear(x, w), rng.child(0))


def _case_linear_bias(rng):
    x = nm.parameter(rng.normal((2, 3, 4)))
    w = nm.parameter(rng.normal((4, 2)))
    b = nm.parameter(rng.normal((2,)))
    return [("x", x), ("w", w), ("b", b)], lambda: weighted_sum(nm.linear(x, w, b), rng.child(0))


def _case_linear_row_bias(rng):
    x = nm.parameter(rng.normal((2, 3, 4)))
    w = nm.parameter(rng.normal((4, 2)))
    b = nm.parameter(rng.normal((3, 2)))  # one row per position, shared by the batch
    return [("x", x), ("w", w), ("b", b)], lambda: weighted_sum(nm.linear(x, w, b), rng.child(0))


def _case_transpose(rng):
    x = nm.parameter(rng.normal((2, 3, 4)))
    return [("x", x)], lambda: weighted_sum(nm.transpose(x, (2, 0, 1)), rng.child(0))


def _case_reshape(rng):
    x = nm.parameter(rng.normal((2, 6)))
    return [("x", x)], lambda: weighted_sum(nm.reshape(x, (3, 4)), rng.child(0))


def _case_gather(rng):
    t = nm.parameter(rng.normal((5, 3)))
    ids = rng.integers(0, 5, (2, 4))
    return [("t", t)], lambda: weighted_sum(nm.gather(t, ids), rng.child(0))


def _case_dot_last(rng):
    a = nm.parameter(rng.normal((2, 3, 4)))
    b = nm.parameter(rng.normal((2, 3, 4)))
    return [("a", a), ("b", b)], lambda: weighted_sum(nm.dot_last(a, b), rng.child(0))


def _attend_case(rng, keep=None, key_bias=False, value_bias=False, L_q=3, L=4):
    """attend over [2, 2] leading axes; idx puts several keys of a row in one bucket."""
    q = nm.parameter(rng.normal((2, 2, L_q, 3)))
    k = nm.parameter(rng.normal((2, 2, L, 3)))
    v = nm.parameter(rng.normal((2, 2, L, 2)))
    a_k = nm.parameter(rng.normal((3, 3))) if key_bias else None
    a_v = nm.parameter(rng.normal((3, 2))) if value_bias else None
    idx = rng.integers(0, 3, (L_q, L)) if key_bias or value_bias else None
    keep = np.ones((L_q, L), dtype=bool) if keep is None else keep
    params = [(name, t) for name, t in (("q", q), ("k", k), ("v", v), ("a_k", a_k), ("a_v", a_v))
              if t is not None]
    return params, lambda: weighted_sum(nm.attend(q, k, v, keep, a_k, a_v, idx), rng.child(0))


def _case_attend(rng):
    return _attend_case(rng)


def _case_attend_masked(rng):
    keep = rng.uniform((2, 1, 3, 4)) > 0.4  # per sequence, shared by the heads
    keep[:, :, 0, 1:] = True
    keep[:, :, 0, 0] = False  # a partly masked row
    keep[0, :, 1, :] = False  # a fully masked row
    return _attend_case(rng, keep=keep)


def _case_attend_key_bias(rng):
    return _attend_case(rng, key_bias=True)


def _case_attend_both_biases(rng):
    return _attend_case(rng, key_bias=True, value_bias=True)


def _case_attend_query_rows(rng):
    # query rows 1 and 3 of a causal block of 4 keys
    keep = np.tril(np.ones((4, 4), dtype=bool))[[1, 3]]
    return _attend_case(rng, keep=keep, key_bias=True, value_bias=True, L_q=2)


def _case_leaky(rng):
    x = nm.parameter(away_from(rng.normal((3, 4)), [0.0], 0.01))
    return [("x", x)], lambda: weighted_sum(nm.leaky_relu(x), rng.child(0))


def _case_silu(rng):
    x = nm.parameter(rng.normal((3, 4)))
    return [("x", x)], lambda: weighted_sum(nm.silu(x), rng.child(0))


def _case_layer_norm(rng):
    x = nm.parameter(rng.normal((2, 3, 6)))
    g = nm.parameter(rng.uniform((6,), 0.5, 1.5))
    b = nm.parameter(rng.normal((6,)))
    return [("x", x), ("g", g), ("b", b)], lambda: weighted_sum(
        nm.layer_norm(x, g, b), rng.child(0)
    )


def _case_dropout(rng):
    x = nm.parameter(rng.normal((4, 5)))
    keep = rng.uniform((4, 5)) >= 0.35
    return [("x", x)], lambda: weighted_sum(nm.dropout(x, keep, 0.35), rng.child(0))


def _rotate_case(rng, x_trains=True, angles_trains=True, angle_shape=(3, 2)):
    """rotate over a [2, 2, 3, 4] x, whose [2, 2, 3, 2] pairs angles broadcasts to."""
    x = rng.normal((2, 2, 3, 4))
    x = nm.parameter(x) if x_trains else nm.constant(x)
    angles = rng.normal(angle_shape, scale=2.0)
    angles = nm.parameter(angles) if angles_trains else nm.constant(angles)
    freq = rng.uniform((2,), 0.1, 2.0)
    params = [(name, t) for name, t in (("x", x), ("angles", angles)) if t.requires_grad]
    return params, lambda: weighted_sum(nm.rotate(x, angles, freq), rng.child(0))


def _case_rotate(rng):
    return _rotate_case(rng, angle_shape=(2, 1, 3, 2))


def _case_rotate_fixed_angles(rng):
    # RoPE: one angle per position, shared by every batch row, head and pair
    return _rotate_case(rng, angles_trains=False, angle_shape=(3, 1))


def _case_rotate_fixed_x(rng):
    # Rotatory: trainable angles turning constant pairs
    return _rotate_case(rng, x_trains=False)


def _bce_case(rng, mask=None):
    """bce over [3, 4] logits of scale 2, far inside the clip kinks at |z| ~ 16.1."""
    z_pos, z_neg = (nm.parameter(rng.normal((3, 4), scale=2.0)) for _ in range(2))
    mask = np.ones((3, 4)) if mask is None else mask
    count = int(mask.sum()) + 2  # a row block's share of a larger batch
    return [("z_pos", z_pos), ("z_neg", z_neg)], lambda: nm.bce(z_pos, z_neg, mask, count)


def _case_bce(rng):
    return _bce_case(rng)


def _case_bce_masked(rng):
    mask = (rng.uniform((3, 4)) > 0.4).astype(np.float64)
    mask[0] = 0.0  # a fully padded row
    return _bce_case(rng, mask=mask)


def _case_bce_saturated(rng):
    # about a third of the logits lie past the kinks, where the clip leaves
    # no gradient; the rest stay as drawn
    params, build = _bce_case(rng)
    for _, z in params:
        far = rng.uniform((3, 4)) < 1.0 / 3.0
        far[0, 0] = True
        signs = np.where(rng.uniform((3, 4)) < 0.5, -1.0, 1.0)
        z.values[far] = (signs * rng.uniform((3, 4), 20.0, 40.0))[far]
    return params, build


OP_CASES = {
    "add": _case_add,
    "attend": _case_attend,
    "attend_masked": _case_attend_masked,
    "attend_key_bias": _case_attend_key_bias,
    "attend_both_biases": _case_attend_both_biases,
    "attend_query_rows": _case_attend_query_rows,
    "linear": _case_linear,
    "linear_bias": _case_linear_bias,
    "linear_row_bias": _case_linear_row_bias,
    "transpose": _case_transpose,
    "reshape": _case_reshape,
    "gather": _case_gather,
    "dot_last": _case_dot_last,
    "leaky_relu": _case_leaky,
    "silu": _case_silu,
    "layer_norm": _case_layer_norm,
    "dropout": _case_dropout,
    "rotate": _case_rotate,
    "rotate_fixed_angles": _case_rotate_fixed_angles,
    "rotate_fixed_x": _case_rotate_fixed_x,
    "bce": _case_bce,
    "bce_masked": _case_bce_masked,
    "bce_saturated": _case_bce_saturated,
}

def test_every_public_op_has_a_gradient_case():
    # found by inspection, like the benchmark's tracer, so an op added later needs a case
    ops = {
        name for name, fn in vars(nm).items()
        if callable(fn) and getattr(fn, "__module__", "") == "posrec.numeric.tensor"
        and not isinstance(fn, type) and not name.startswith("_")
    } - {"backward", "no_graph", "tensor", "parameter", "constant"}
    assert {"linear", "attend", "rotate"} <= ops
    assert sorted(op for op in ops if op not in OP_CASES) == []


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(op_name):
    factory = OP_CASES[op_name]
    for case in range(20):
        rng = nm.Rng(1000 + case, zlib.crc32(op_name.encode()) % 100_000)
        params, build = factory(rng)
        report = check_gradients(build, params, h=H)
        assert report.max_rel_err < TOL, (
            f"{op_name} case {case}: rel err {report.max_rel_err:.3e} "
            f"on {report.worst_param}"
        )


def test_three_op_composite_matches_finite_differences():
    rng = nm.Rng(42)
    a = nm.parameter(rng.normal((3, 4)))
    b = nm.parameter(rng.normal((4, 2)))

    def build():
        z = nm.linear(a, b)  # feeds both sides of the loss: its adjoints add up
        return nm.bce(z, nm.silu(z), np.ones(z.shape), z.values.size)

    report = check_gradients(build, [("a", a), ("b", b)], h=H)
    assert report.max_rel_err < TOL


# ---------------------------------------------------------------------------
# frozen expected values


def attention_weights(logits, keep=True):
    """softmax(logits) over the last axis, read through attend: with d_h = L,
    q = logits * sqrt(L) and k = v = eye(L), the output is P."""
    L = logits.shape[-1]
    eye = nm.tensor(np.eye(L))
    return nm.attend(nm.tensor(logits * np.sqrt(L)), eye, eye, keep).values


def test_softmax_uniform_logits():
    y = attention_weights(np.zeros((2, 3)))
    np.testing.assert_allclose(y, np.full((2, 3), 1.0 / 3.0), atol=1e-15)


def test_bce_at_zero_logits_is_two_log_two():
    zeros = nm.tensor(np.zeros((2, 3)))
    loss = nm.bce(zeros, zeros, np.ones((2, 3)), 6).item()
    assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-15)


def test_backward_of_square_sum():
    x = nm.parameter(np.array([1.0, 2.0]))
    nm.dot_last(x, x).backward()
    np.testing.assert_allclose(x.adjoint, [2.0, 4.0], atol=1e-15)


def test_bce_derivative_at_zero_logits():
    z_pos, z_neg = nm.parameter(np.zeros((1, 3))), nm.parameter(np.zeros((1, 3)))
    nm.bce(z_pos, z_neg, np.ones((1, 3)), 4).backward()
    np.testing.assert_allclose(z_pos.adjoint, -0.5 / 4, atol=1e-15)
    np.testing.assert_allclose(z_neg.adjoint, 0.5 / 4, atol=1e-15)


# ---------------------------------------------------------------------------
# invariants


@given(st.lists(st.lists(st.floats(-60, 60), min_size=2, max_size=7), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_are_distributions(rows):
    width = len(rows[0])
    rows = [r[:width] + [0.0] * (width - len(r)) for r in rows]
    y = attention_weights(np.array(rows))
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_all_masked_softmax_rows_are_zero_not_nan():
    keep = np.zeros((2, 4), dtype=bool)
    keep[0, :2] = True
    y = attention_weights(np.ones((2, 4)), keep)
    assert not np.isnan(y).any()
    np.testing.assert_allclose(y[1], 0.0)
    np.testing.assert_allclose(y[0], [0.5, 0.5, 0.0, 0.0], atol=1e-15)


@np.errstate(invalid="ignore")  # the infinite logit turns its score row NaN: inf * 0 in q @ eye
def test_non_finite_scores_give_zero_weights_not_nan():
    y = attention_weights(np.array([[0.0, 1.0, 2.0], [0.0, np.inf, 1.0]]))
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y[0], np.exp([0.0, 1.0, 2.0]) / np.exp([0.0, 1.0, 2.0]).sum())
    np.testing.assert_allclose(y[1], 0.0)


def test_dropout_eval_mode_is_identity():
    x = nm.tensor(np.arange(6.0))
    assert nm.dropout(x, None, 0.5) is x


def test_dropout_train_mode_preserves_expectation():
    # one scalar through 1e5 masks; inverted scaling keeps the mean at x
    n = 100_000
    p = 0.4
    x = nm.tensor(np.ones(n))
    y = nm.dropout(x, nm.Rng(9, 4).uniform((n,)) >= p, p)
    sigma = np.sqrt(p / (1.0 - p) / n)
    assert abs(float(y.values.mean()) - 1.0) < 4.5 * sigma


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# signed zeros, infinities and NaN on both the forward and the adjoint side
SPECIAL = np.array([-np.inf, -2.5, -0.0, 0.0, 1e-300, 3.0, np.inf, np.nan])
SPECIAL_GRAD = np.array([1.0, -0.0, np.inf, -np.inf, np.nan, 2.0, -3.0, 0.0])


def test_leaky_relu_matches_its_select_form_bitwise():
    out = nm.leaky_relu(nm.parameter(SPECIAL), 0.01)
    assert same_bits(out.values, np.where(SPECIAL > 0, SPECIAL, 0.01 * SPECIAL))
    (grad,) = out.op_record.push_grads(SPECIAL_GRAD)
    assert same_bits(grad, np.where(SPECIAL > 0, SPECIAL_GRAD, 0.01 * SPECIAL_GRAD))


@np.errstate(invalid="ignore")  # inf * 0 at dropped entries
def test_dropout_matches_mask_times_factor_bitwise():
    x = np.tile(SPECIAL, 4)
    g = np.tile(SPECIAL_GRAD, 4)
    keep = nm.Rng(3, 1).uniform(x.shape) >= 0.3
    assert 0 < keep.sum() < keep.size
    out = nm.dropout(nm.parameter(x), keep, 0.3)
    assert same_bits(out.values, x * keep * (1.0 / 0.7))
    (grad,) = out.op_record.push_grads(g)
    assert same_bits(grad, g * keep * (1.0 / 0.7))


@np.errstate(invalid="ignore")  # the SPECIAL row's mean is NaN
def test_layer_norm_matches_its_two_pass_form_bitwise():
    rng = np.random.default_rng(5)
    d = SPECIAL.size
    v = rng.normal(3.0, 2.0, size=(2, 4, d))
    v[0, 1] = 2.5  # variance 0
    v[1, 2] = SPECIAL
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    g = rng.normal(size=v.shape)
    out = nm.layer_norm(nm.parameter(v), nm.parameter(gain), nm.parameter(bias))
    grads = out.op_record.push_grads(g)

    mu = v.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(v.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (v - mu) * inv
    ghat = g * gain
    want = (
        inv * (ghat - ghat.mean(axis=-1, keepdims=True)
               - xhat * (ghat * xhat).mean(axis=-1, keepdims=True)),
        (g * xhat).reshape(-1, d).sum(axis=0),
        g.reshape(-1, d).sum(axis=0),
    )
    assert same_bits(out.values, xhat * gain + bias)
    assert all(same_bits(got, w) for got, w in zip(grads, want))


def test_attend_zeroes_a_non_finite_row_and_leaves_the_others_bitwise():
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(3, 2, 5, 4)) for _ in range(3))
    keep = np.tril(np.ones((5, 5), dtype=bool))
    finite = nm.attend(nm.constant(q), nm.constant(k), nm.constant(v), keep).values
    q[1, 0, 3, 0] = np.inf
    out = nm.attend(nm.constant(q), nm.constant(k), nm.constant(v), keep).values
    assert same_bits(out[1, 0, 3], np.zeros(4))
    out[1, 0, 3] = finite[1, 0, 3]
    assert same_bits(out, finite)


@np.errstate(invalid="ignore", over="ignore")
def test_attend_matches_its_exp_of_minus_inf_form_bitwise():
    # causal keys of left-padded rows; row 0 of sequence 0 keeps no key at all
    rng = np.random.default_rng(7)
    B, H, L, d_h = 4, 2, 9, 3
    q, k, v, g = (rng.normal(size=(B, H, L, d_h)) for _ in range(4))
    pad = np.array([0, 3, 5, 8])
    keep = np.tril(np.ones((L, L), dtype=bool)) & (np.arange(L) >= pad[:, None, None])[:, None]
    keep[0, :, 0] = False
    out = nm.attend(nm.parameter(q), nm.parameter(k), nm.parameter(v), keep)
    dv = out.op_record.push_grads(g)[2]

    s = q @ np.swapaxes(k, -1, -2)
    s *= 1.0 / np.sqrt(d_h)
    s[~np.broadcast_to(keep, s.shape)] = -np.inf
    top = s.max(axis=-1, keepdims=True)
    p = np.exp(s - np.where(np.isfinite(top), top, 0.0))
    denom = p.sum(axis=-1, keepdims=True)
    p /= np.where(denom == 0.0, 1.0, denom)
    assert same_bits(out.values, p @ v)
    assert same_bits(out.values[0, :, 0], np.zeros((H, d_h)))
    assert same_bits(dv, np.swapaxes(p, -1, -2) @ g)


def test_gather_adjoint_matches_add_at_bitwise():
    # repeated ids sum in order, with signed zeros, infinities and NaN
    table = np.arange(20.0).reshape(5, 4)
    ids = np.array([[3, 1, 3, 0], [3, 4, 1, 3]])
    g = np.resize(np.concatenate([SPECIAL_GRAD, -SPECIAL_GRAD[::-1]]), ids.shape + (4,))
    out = nm.gather(nm.parameter(table), ids)
    (grad,) = out.op_record.push_grads(g)
    want = np.zeros_like(table)
    np.add.at(want, ids, g)
    assert same_bits(out.values, table[ids])
    assert same_bits(grad, want)


def test_backward_twice_accumulates():
    x = nm.parameter(np.array([3.0]))
    loss = nm.dot_last(x, x)
    loss.backward()
    first = x.adjoint.copy()
    loss.backward()
    np.testing.assert_allclose(x.adjoint, 2.0 * first)


def test_backward_keeps_adjoints_on_leaves_only():
    x = nm.parameter(np.array([1.0, -2.0]))
    w = nm.parameter(np.array([0.5, 3.0]))
    total = nm.add(x, w)
    act = nm.silu(total)
    loss = nm.dot_last(act, nm.constant(np.ones(2)))
    loss.backward()
    assert total.adjoint is None and act.adjoint is None and loss.adjoint is None
    v = x.values + w.values
    s = 1.0 / (1.0 + np.exp(-v))
    slope = s * (1.0 + v * (1.0 - s))
    np.testing.assert_allclose(x.adjoint, slope, atol=1e-15)
    np.testing.assert_allclose(w.adjoint, slope, atol=1e-15)


def test_offset_sum_matches_loop_and_inverts_offset_take():
    rng = nm.Rng(12)
    idx = rng.integers(0, 3, (4, 6))
    w = rng.normal((2, 4, 6))
    summed = _sum_offsets(w, idx, 3)
    expected = np.zeros((2, 4, 3))
    for i in range(4):
        for j in range(6):
            expected[:, i, idx[i, j]] += w[:, i, j]
    np.testing.assert_allclose(summed, expected, atol=1e-14)
    taken = _take_offsets(expected, idx)
    for i in range(4):
        for j in range(6):
            np.testing.assert_array_equal(taken[:, i, j], expected[:, i, idx[i, j]])


def test_offset_ops_reject_mismatched_index_rows():
    # attend's offset terms need one bucket per (query row, key) pair
    q, k = nm.tensor(np.zeros((2, 3, 4))), nm.tensor(np.zeros((2, 6, 4)))
    table = nm.tensor(np.zeros((5, 4)))
    with pytest.raises(ShapeMismatchError, match="attend"):
        nm.attend(q, k, k, True, a_k=table, idx=np.zeros((5, 6), dtype=int))
    with pytest.raises(ShapeMismatchError):
        nm.attend(q, k, k, True, a_v=table, idx=np.zeros((3, 5), dtype=int))
    with pytest.raises(ShapeMismatchError):
        nm.attend(q, k, k, True, a_k=table)  # no idx


def test_constant_leaves_have_no_adjoint():
    x = nm.parameter(np.array([1.0, 2.0]))
    c = nm.constant(np.array([5.0, 6.0]))
    nm.dot_last(x, c).backward()
    assert c.adjoint is None
    assert x.adjoint is not None


def test_no_graph_builds_plain_nodes():
    x = nm.parameter(np.ones(3))
    with nm.no_graph():
        y = nm.dot_last(x, x)
    assert y.op_record is None and not y.requires_grad


def test_forward_backward_deterministic_given_seed_and_stream():
    def run():
        rng = nm.Rng(5, 3)
        a = nm.parameter(rng.normal((8, 8)))
        b = nm.parameter(rng.normal((8, 8)))
        h = nm.dropout(nm.silu(nm.linear(a, b)), rng.child(1).uniform((8, 8)) >= 0.3, 0.3)
        loss = weighted_sum(h, rng.child(2))
        loss.backward()
        return loss.values.copy(), a.adjoint.copy(), b.adjoint.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# ---------------------------------------------------------------------------
# structured errors


def test_backward_from_non_scalar_fails():
    x = nm.parameter(np.ones((2, 2)))
    with pytest.raises(GraphError):
        nm.add(x, x).backward()



def test_rotate_rejects_shapes_that_do_not_pair_up():
    for x_shape, angle_shape, pairs in [((2, 3, 5), (3, 1), 2),  # odd last axis
                                        ((2, 3, 4), (3, 1), 3),  # one freq per pair
                                        ((2, 3, 4), (4, 2), 2),  # angle rows
                                        ((2, 3, 4), (2, 2, 3, 2), 2)]:  # more axes than x
        with pytest.raises(ShapeMismatchError, match="rotate"):
            nm.rotate(nm.tensor(np.zeros(x_shape)), nm.tensor(np.zeros(angle_shape)),
                      np.ones(pairs))
    x = nm.tensor(np.zeros((2, 3, 4)))
    assert nm.rotate(x, nm.tensor(np.zeros((3, 1))), np.ones(2)).shape == x.shape


def test_bce_rejects_mismatched_shapes():
    z = nm.tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError, match="bce"):
        nm.bce(z, nm.tensor(np.zeros((3, 2))), np.ones((2, 3)), 6)
    with pytest.raises(ShapeMismatchError, match="bce"):
        nm.bce(z, z, np.ones(3), 6)
