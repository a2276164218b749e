"""Dense tensors with reverse-mode differentiation on numpy arrays.

Every op returns a TensorNode holding the forward values and, when any input
requires gradients, an op record: its parents' graph vertices (op record,
gradient leaf or None) and a closure pushing the output adjoint to them that
keeps only the arrays and shapes the adjoint reads, never a node, so a node's
values live only as long as the caller or a closure holds them. backward()
walks the op records once in reverse topological order and accumulates
adjoints into the leaves, so calling it twice doubles them; intermediate
adjoints are dropped as soon as they are pushed to the parents.

Leaves are float64. `add`, the bias of `linear` and the angles of `rotate`
follow numpy broadcasting; gradients of broadcast inputs are summed back to
the input shape. Each model-level computation is one node: a product with a
shared 2-D weight is `linear`; the attention products, mask and softmax are
`attend`; the pairwise (sin, cos) rotation behind every rotation encoding is
`rotate`; the sampled binary cross-entropy of a batch is `bce`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import GraphError, ShapeMismatchError

_graph_enabled = True


@contextmanager
def no_graph():
    """Run forward passes without recording the graph (evaluation mode)."""
    global _graph_enabled
    previous = _graph_enabled
    _graph_enabled = False
    try:
        yield
    finally:
        _graph_enabled = previous


class OpRecord:
    """Backpointer from an op output to its inputs' vertices: each one's
    OpRecord, the input itself if it is a gradient leaf, or None.

    push_grads(adjoint), which holds arrays and never a node, returns one
    gradient array per parent, aligned with the parents tuple; None marks a
    parent that takes no gradient.
    """

    __slots__ = ("op", "parents", "push_grads")

    def __init__(self, op, parents, push_grads):
        self.op = op
        self.parents = parents
        self.push_grads = push_grads


class TensorNode:
    __slots__ = ("values", "adjoint", "requires_grad", "op_record")

    def __init__(self, values, requires_grad=False, op_record=None):
        self.values = values
        self.adjoint = None
        self.requires_grad = requires_grad
        self.op_record = op_record

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        tag = self.op_record.op if self.op_record else "leaf"
        return f"TensorNode({tag}, shape={tuple(self.shape)}, grad={self.requires_grad})"


def tensor(values, requires_grad=False):
    """Wrap array-like data as a float64 leaf node."""
    return TensorNode(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def parameter(values):
    return tensor(values, requires_grad=True)


def constant(values):
    return tensor(values, requires_grad=False)


def _vertex(node):
    """node's vertex in the backward graph: its op record, a gradient leaf itself, or None."""
    return node.op_record or (node if node.requires_grad else None)


def _make(op, values, parents, push_grads):
    needs = _graph_enabled and any(p.requires_grad for p in parents)
    if not needs:
        return TensorNode(values)
    record = OpRecord(op, tuple(_vertex(p) for p in parents), push_grads)
    return TensorNode(values, requires_grad=True, op_record=record)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original input shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _rows_at(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x [..., k] @ w [k, n] as one [M, k] @ [k, n] product."""
    return (x.reshape(-1, w.shape[0]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    try:
        out = a.values + b.values
    except ValueError:
        raise ShapeMismatchError("add", a.shape, b.shape) from None
    a_shape, b_shape = a.shape, b.shape

    def push(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make("add", out, (a, b), push)


def linear(x, w, b=None):
    """x @ w (+ b) for a shared weight w [k, n] and x [..., k].

    One [M, k] @ [k, n] product over every row of x; b, when given, is added
    in place and broadcasts against the [..., n] output ([n], [L, n] rows
    shared by every sequence of a batch, or the output's own shape).
    """
    if w.values.ndim != 2 or x.values.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError("linear", x.shape, w.shape)
    k, n = w.shape
    out = _rows_at(x.values, w.values)
    if b is not None:
        try:
            out += b.values
        except ValueError:
            raise ShapeMismatchError("linear", x.shape, w.shape, b.shape) from None
    xv, wv, b_shape = x.values, w.values, None if b is None else b.shape

    def push(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ wv.T).reshape(xv.shape)
        gw = xv.reshape(-1, k).T @ g2
        return (gx, gw) if b_shape is None else (gx, gw, _unbroadcast(g, b_shape))

    return _make("linear", out, (x, w) if b is None else (x, w, b), push)


def transpose(x, axes):
    axes = tuple(axes)
    inverse = tuple(int(i) for i in np.argsort(axes))

    def push(g):
        return (np.transpose(g, inverse),)

    return _make("transpose", np.transpose(x.values, axes), (x,), push)


def reshape(x, shape):
    original = x.shape

    def push(g):
        return (g.reshape(original),)

    return _make("reshape", x.values.reshape(shape), (x,), push)


def gather(table, ids):
    """Pick rows of a 2-D table by an integer index array of any shape."""
    if table.values.ndim != 2:
        raise ShapeMismatchError("gather", table.shape)
    idx = np.asarray(ids)
    out = table.values[idx]
    rows, d = table.shape

    def push(g):
        # np.add.at's sums in the same order, as one pass over flat cells
        cells = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
        return (np.bincount(cells, weights=g.ravel(), minlength=rows * d).reshape(rows, d),)

    return _make("gather", out, (table,), push)


def dot_last(a, b):
    """Rowwise dot product over the last axis."""
    if a.shape != b.shape:
        raise ShapeMismatchError("dot_last", a.shape, b.shape)
    av, bv = a.values, b.values
    out = np.einsum("...d,...d->...", av, bv)

    def push(g):
        return g[..., None] * bv, g[..., None] * av

    return _make("dot_last", out, (a, b), push)


# ---------------------------------------------------------------------------
# nonlinearities


def _logistic(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-v)) without overflow for large |v|."""
    with np.errstate(over="ignore", invalid="ignore"):
        # the unselected where-branch may evaluate to inf/inf; NaN inputs
        # still propagate, since NaN >= 0 picks the exp(v) branch
        return np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))


def leaky_relu(x, slope: float = 0.01):
    """max(x * slope, x), which is x where x > 0 and x * slope elsewhere for
    0 < slope < 1.  Only the output is kept: the adjoint's factor, 1 where
    out > 0 and slope elsewhere, is built from it during backward."""
    out = x.values * slope
    np.maximum(out, x.values, out=out)

    def push(g):
        factor = np.maximum(out > 0, slope)
        factor *= g
        return (factor,)

    return _make("leaky_relu", out, (x,), push)


def silu(x):
    v = x.values
    s = _logistic(v)
    out = v * s

    def push(g):
        return (g * s * (1.0 + v * (1.0 - s)),)

    return _make("silu", out, (x,), push)


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Normalize the last axis to zero mean, unit variance, then scale+shift.

    The input is centred once and its variance is the mean of the squared
    centred values, the same operations `np.var` runs, so the result equals
    the two-pass `v.var` form bit for bit.  The normalized input xhat and the
    [..., 1] inverse deviations are kept for the adjoint.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape, bias.shape)
    xhat = x.values - x.values.mean(axis=-1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    gv = gain.values
    np.multiply(xhat, gv, out=out)
    out += bias.values

    def push(g):
        # gx = inv * (ghat - mean(ghat) - xhat * mean(ghat * xhat)), with one
        # scratch array for the products
        ghat = g * gv
        gx = ghat - ghat.mean(axis=-1, keepdims=True)
        scratch = np.multiply(ghat, xhat, out=ghat)
        gx -= np.multiply(xhat, scratch.mean(axis=-1, keepdims=True), out=scratch)
        gx *= inv
        ggain = np.multiply(g, xhat, out=scratch).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return _make("layer_norm", out, (x, gain, bias), push)


def dropout(x, keep, p: float):
    """Inverted dropout under a given bool mask `keep` of x's shape, drawn
    with drop rate p; `x` itself when keep is None.

    The output is (x * keep) * (1 / (1 - p)), and the adjoint is
    (g * keep) * (1 / (1 - p)): the mask, one byte per entry, is all the
    adjoint keeps.
    """
    if keep is None:
        return x
    scale = 1.0 / (1.0 - p)
    out = x.values * keep
    out *= scale

    def push(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _make("dropout", out, (x,), push)


# ---------------------------------------------------------------------------
# rotation


def rotate(x, angles, freq):
    """Turn each (2i, 2i+1) pair (a, b) of x's last axis by t = angles[..., i] * freq[i].

    (a, b) -> (a cos t - b sin t, b cos t + a sin t).  freq has one entry per
    pair and angles broadcasts to x's [..., H] pairs.  The adjoint turns the
    output adjoint g by -t for x, and gives (g_b out_a - g_a out_b) * freq
    for angles, summed back over the axes angles was broadcast along.
    """
    freq = np.asarray(freq, dtype=np.float64)
    pairs = x.shape[:-1] + (x.shape[-1] // 2,)
    try:
        theta = angles.values * freq
        fits = x.shape[-1] % 2 == 0 and freq.shape == pairs[-1:] \
            and np.broadcast_shapes(theta.shape, pairs) == pairs
    except ValueError:
        fits = False
    if not fits:
        raise ShapeMismatchError("rotate", x.shape, angles.shape, freq.shape)
    c, s = np.cos(theta), np.sin(theta)
    a, b = x.values[..., 0::2], x.values[..., 1::2]
    out = np.empty(x.shape)
    out[..., 0::2] = a * c - b * s
    out[..., 1::2] = b * c + a * s
    x_grad, angles_grad, angles_shape = x.requires_grad, angles.requires_grad, angles.shape

    def push(g):
        g_a, g_b = g[..., 0::2], g[..., 1::2]
        gx = g_angles = None
        if x_grad:
            gx = np.empty_like(g)
            gx[..., 0::2] = g_a * c + g_b * s
            gx[..., 1::2] = g_b * c - g_a * s
        if angles_grad:
            g_theta = g_b * out[..., 0::2] - g_a * out[..., 1::2]
            g_angles = _unbroadcast(g_theta * freq, angles_shape)
        return gx, g_angles

    return _make("rotate", out, (x, angles), push)


# ---------------------------------------------------------------------------
# attention


def _take_offsets(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[..., i, idx[i, j]] for every row i and column j of idx."""
    return x[..., np.arange(idx.shape[0])[:, None], idx]


def _sum_offsets(w: np.ndarray, idx: np.ndarray, buckets: int) -> np.ndarray:
    """out[..., i, c] = sum of w[..., i, j] over the j with idx[i, j] == c.

    One batched product over the rows i of idx: [L_q, N, L] @ [L_q, L, C]
    against a one-hot of idx, with the leading axes of w folded into N.
    """
    rows, cols = idx.shape
    one_hot = (idx[..., None] == np.arange(buckets)).astype(w.dtype)
    by_row = np.moveaxis(w, -2, 0).reshape(rows, -1, cols)
    summed = (by_row @ one_hot).reshape((rows,) + w.shape[:-2] + (buckets,))
    return np.moveaxis(summed, 0, -2)


def attend(q, k, v, keep, a_k=None, a_v=None, idx=None):
    """softmax(S) @ v as one node, S = (q k^T + q a_k^T read at idx) / sqrt(d_h).

    q is [..., L_q, d_h], k [..., L, d_h] and v [..., L, d_v] over equal
    leading axes; keep is a boolean array broadcasting to [..., L_q, L].  The
    optional offset tables a_k [C, d_h] and a_v [C, d_v] need idx, an integer
    [L_q, L] array of buckets in [0, C): score (i, j) adds q_i . a_k[idx[i, j]],
    and output row i adds the sum of its weights per bucket times a_v.

    Dropped keys get weight 0.  A row with no kept key comes out as zeros,
    never NaN, and so does any weight whose exponential is not finite; the
    pass that zeroes those runs only when some row's sum of exponentials is
    not finite.  Only P = softmax(S) is kept for the adjoint (plus its
    [..., L_q, C] bucket sums when a_v is given), which is
    dS = P * (dP - rowsum(dP * P)) (Dao et al. 2022, FlashAttention, App. B).
    """
    if (min(q.values.ndim, k.values.ndim) < 2 or k.shape[:-2] != q.shape[:-2]
            or k.shape[-1] != q.shape[-1] or v.shape[:-1] != k.shape[:-1]):
        raise ShapeMismatchError("attend", q.shape, k.shape, v.shape)
    L_q, d_h = q.shape[-2:]
    L, d_v = v.shape[-2:]
    tables = [t for t in (a_k, a_v) if t is not None]
    if tables:
        idx = np.asarray(idx)
        C = tables[0].shape[0]
        if (idx.shape != (L_q, L) or (a_k is not None and a_k.shape != (C, d_h))
                or (a_v is not None and a_v.shape != (C, d_v))):
            raise ShapeMismatchError("attend", q.shape, idx.shape, *(t.shape for t in tables))
    c = 1.0 / np.sqrt(d_h)
    qv, kv, vv = q.values, k.values, v.values
    akv, avv = (None if t is None else t.values for t in (a_k, a_v))

    p = qv @ np.swapaxes(kv, -1, -2)
    if akv is not None:
        p += _take_offsets(_rows_at(qv, akv.T), idx)
    p *= c
    dropped = ~np.asarray(keep, dtype=bool)
    np.copyto(p, -np.inf, where=dropped)
    top = p.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", over="ignore"):
        p -= np.where(np.isfinite(top), top, 0.0)
        # exp(-inf) is numpy's slow path: exponentiate 0 there, then zero it
        np.copyto(p, 0.0, where=dropped)
        np.exp(p, out=p)
        np.copyto(p, 0.0, where=dropped)
    denom = p.sum(axis=-1, keepdims=True)
    if not np.isfinite(denom).all():
        # exp gives no negative entry, so a row holds an inf or NaN exactly
        # when its sum is not finite; a sum of finite entries that overflowed
        # comes out the same from the re-sum
        np.copyto(p, 0.0, where=~np.isfinite(p))
        denom = p.sum(axis=-1, keepdims=True)
    p /= np.where(denom == 0.0, 1.0, denom)
    out = p @ vv
    if avv is not None:
        sums = _sum_offsets(p, idx, C)
        out += _rows_at(sums, avv)

    def push(g):
        dv = np.swapaxes(p, -1, -2) @ g
        ds = g @ np.swapaxes(vv, -1, -2)  # dP, turned into dS in place
        if avv is not None:
            ds += _take_offsets(_rows_at(g, avv.T), idx)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= c
        dq = ds @ kv
        grads = [dq, np.swapaxes(ds, -1, -2) @ qv, dv]
        if akv is not None:
            by_bucket = _sum_offsets(ds, idx, C)
            dq += _rows_at(by_bucket, akv)
            grads.append(by_bucket.reshape(-1, C).T @ qv.reshape(-1, d_h))
        if avv is not None:
            grads.append(sums.reshape(-1, C).T @ g.reshape(-1, d_v))
        return grads

    return _make("attend", out, (q, k, v, *tables), push)


# ---------------------------------------------------------------------------
# loss

# bce clamps each probability into [BCE_EPS, 1 - BCE_EPS] before its log
BCE_EPS = 1e-7


def bce(z_pos, z_neg, mask, count):
    """Masked binary cross-entropy of (positive, negative) logit pairs.

    -(1/count) * sum of mask * [log clip(s(z_pos)) + log clip(1 - s(z_neg))],
    with s the logistic and clip into [BCE_EPS, 1 - BCE_EPS]; mask is a 0/1
    array of z_pos's shape.  A term takes gradient only strictly inside the
    clip range, d/dz_pos = -mask * (1 - s(z_pos)) / count and d/dz_neg =
    mask * s(z_neg) / count.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if z_neg.shape != z_pos.shape or mask.shape != z_pos.shape:
        raise ShapeMismatchError("bce", z_pos.shape, z_neg.shape, mask.shape)
    lo, hi = BCE_EPS, 1.0 - BCE_EPS
    s_pos = _logistic(z_pos.values)
    s_neg = _logistic(z_neg.values)
    p_neg = 1.0 - s_neg
    terms = np.log(np.clip(s_pos, lo, hi)) + np.log(np.clip(p_neg, lo, hi))
    c = -1.0 / count
    out = np.asarray((mask * terms).sum()) * c

    def push(g):
        w = g * c * mask
        return (np.where((s_pos > lo) & (s_pos < hi), w * (1.0 - s_pos), 0.0),
                np.where((p_neg > lo) & (p_neg < hi), -w * s_neg, 0.0))

    return _make("bce", out, (z_pos, z_neg), push)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: TensorNode) -> None:
    """Add d(loss)/d(leaf) to the adjoint of every leaf `loss` depends on.

    Leaves with requires_grad get their .adjoint populated (lazily allocated);
    repeated calls keep accumulating, which callers must zero between steps.
    The walk visits op records and leaves depth first from loss's op record,
    never an intermediate node.  Intermediate nodes keep adjoint None: their
    gradient lives only until it has been pushed to their parents.
    """
    if loss.values.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")

    root = _vertex(loss)
    order: list[OpRecord | TensorNode] = []
    seen = set()
    stack: list[tuple[OpRecord | TensorNode | None, bool]] = [(root, False)]
    while stack:
        vertex, expanded = stack.pop()
        if expanded:
            order.append(vertex)
            continue
        if vertex is None or vertex in seen:
            continue
        seen.add(vertex)
        stack.append((vertex, True))
        if isinstance(vertex, OpRecord):
            for parent in vertex.parents:
                stack.append((parent, False))

    grads: dict[OpRecord | TensorNode, np.ndarray] = {root: np.ones_like(loss.values)}
    for vertex in reversed(order):
        g = grads.pop(vertex, None)
        if g is None:
            continue
        if isinstance(vertex, TensorNode):
            vertex.adjoint = g if vertex.adjoint is None else vertex.adjoint + g
            continue
        for parent, pg in zip(vertex.parents, vertex.push_grads(g)):
            if pg is None or parent is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
