"""Dense tensors with reverse-mode differentiation on numpy arrays.

Every op returns a TensorNode holding the forward values and, when any input
requires gradients, an op record (parents + a closure pushing the output
adjoint to the parents). backward() walks the recorded graph once in reverse
topological order and accumulates adjoints into the leaves, so calling it
twice doubles them; intermediate adjoints are dropped as soon as they are
pushed to the parents.

Leaves are float64. Elementwise ops follow standard numpy
broadcasting; gradients of broadcast inputs are summed back to the input
shape. A product with a shared 2-D weight is `linear`; the attention
products, mask and softmax are one `attend` node per call; the sampled
binary cross-entropy of a batch is one `bce` node.
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
    """Backpointer from an op output to its inputs.

    push_grads(adjoint) returns one gradient array per parent, aligned with
    the parents tuple; None marks a parent that takes no gradient.
    """

    __slots__ = ("op", "parents", "push_grads")

    def __init__(self, op, parents, push_grads):
        self.op = op
        self.parents = parents
        self.push_grads = push_grads


class TensorNode:
    __slots__ = ("values", "adjoint", "requires_grad", "op_record", "name")

    def __init__(self, values, requires_grad=False, op_record=None, name=None):
        self.values = values
        self.adjoint = None
        self.requires_grad = requires_grad
        self.op_record = op_record
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def backward(self) -> None:
        backward(self)

    def zero_adjoint(self) -> None:
        self.adjoint = None

    def __repr__(self):
        tag = self.name or (self.op_record.op if self.op_record else "leaf")
        return f"TensorNode({tag}, shape={tuple(self.shape)}, grad={self.requires_grad})"


def tensor(values, requires_grad=False, name=None):
    """Wrap array-like data as a float64 leaf node."""
    return TensorNode(np.asarray(values, dtype=np.float64), requires_grad=requires_grad, name=name)


def parameter(values, name=None):
    return tensor(values, requires_grad=True, name=name)


def constant(values, name=None):
    return tensor(values, requires_grad=False, name=name)


def _make(op, values, parents, push_grads):
    needs = _graph_enabled and any(p.requires_grad for p in parents)
    if not needs:
        return TensorNode(values)
    return TensorNode(values, requires_grad=True, op_record=OpRecord(op, tuple(parents), push_grads))


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

    def push(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make("add", out, (a, b), push)


def mul(a, b):
    try:
        out = a.values * b.values
    except ValueError:
        raise ShapeMismatchError("mul", a.shape, b.shape) from None

    def push(g):
        return _unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)

    return _make("mul", out, (a, b), push)


def linear(x, w, b=None):
    """x @ w (+ b) for a shared weight w [k, n] and x [..., k].

    One [M, k] @ [k, n] product over every row of x; b, when given, is added
    in place and broadcasts against the [..., n] output ([n], or [L, n] rows
    shared by every sequence of a batch).
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

    def push(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.values.T).reshape(x.shape)
        gw = x.values.reshape(-1, k).T @ g2
        return (gx, gw) if b is None else (gx, gw, _unbroadcast(g, b.shape))

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


def concat(nodes):
    """Concatenate along the last axis."""
    nodes = list(nodes)
    sizes = [n.shape[-1] for n in nodes]
    out = np.concatenate([n.values for n in nodes], axis=-1)
    offsets = np.cumsum([0] + sizes)

    def push(g):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(nodes)))

    return _make("concat", out, tuple(nodes), push)


def gather(table, ids):
    """Pick rows of a 2-D table by an integer index array of any shape."""
    if table.values.ndim != 2:
        raise ShapeMismatchError("gather", table.shape)
    idx = np.asarray(ids)
    out = table.values[idx]

    def push(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make("gather", out, (table,), push)


def dot_last(a, b):
    """Rowwise dot product over the last axis."""
    if a.shape != b.shape:
        raise ShapeMismatchError("dot_last", a.shape, b.shape)
    out = np.einsum("...d,...d->...", a.values, b.values)

    def push(g):
        return g[..., None] * b.values, g[..., None] * a.values

    return _make("dot_last", out, (a, b), push)


# ---------------------------------------------------------------------------
# nonlinearities


def _logistic(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-v)) without overflow for large |v|."""
    with np.errstate(over="ignore", invalid="ignore"):
        # the unselected where-branch may evaluate to inf/inf; NaN inputs
        # still propagate, since NaN >= 0 picks the exp(v) branch
        return np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))


def sin(x):
    def push(g):
        return (g * np.cos(x.values),)

    return _make("sin", np.sin(x.values), (x,), push)


def cos(x):
    def push(g):
        return (g * -np.sin(x.values),)

    return _make("cos", np.cos(x.values), (x,), push)


def leaky_relu(x, slope: float = 0.01):
    factor = np.where(x.values > 0, 1.0, slope)
    out = x.values * factor

    def push(g):
        return (g * factor,)

    return _make("leaky_relu", out, (x,), push)


def silu(x):
    v = x.values
    s = _logistic(v)
    out = v * s

    def push(g):
        return (g * s * (1.0 + v * (1.0 - s)),)

    return _make("silu", out, (x,), push)


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Normalize the last axis to zero mean, unit variance, then scale+shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape, bias.shape)
    v = x.values
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (v - mu) * inv
    out = xhat * gain.values + bias.values

    def push(g):
        ghat = g * gain.values
        gx = inv * (
            ghat
            - ghat.mean(axis=-1, keepdims=True)
            - xhat * (ghat * xhat).mean(axis=-1, keepdims=True)
        )
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return _make("layer_norm", out, (x, gain, bias), push)


def dropout(x, p: float, rng, train: bool):
    """Inverted dropout: mask from `rng` in train mode, identity otherwise."""
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise GraphError(f"dropout rate {p} outside [0, 1)")
    keep = (rng.uniform(x.shape) >= p) * (1.0 / (1.0 - p))
    out = x.values * keep

    def push(g):
        return (g * keep,)

    return _make("dropout", out, (x,), push)


# ---------------------------------------------------------------------------
# pairwise interleave ops used by the rotation-style encodings


def interleave_last(a, b):
    """out[..., 2i] = a[..., i], out[..., 2i+1] = b[..., i]."""
    if a.shape != b.shape:
        raise ShapeMismatchError("interleave_last", a.shape, b.shape)
    h = a.shape[-1]
    out = np.empty(a.shape[:-1] + (2 * h,), dtype=a.dtype)
    out[..., 0::2] = a.values
    out[..., 1::2] = b.values

    def push(g):
        return g[..., 0::2], g[..., 1::2]

    return _make("interleave_last", out, (a, b), push)


def pair_swap(x):
    """(x0, x1) -> (-x1, x0) on every adjacent pair of the last axis."""
    if x.shape[-1] % 2:
        raise ShapeMismatchError("pair_swap", x.shape)
    v = x.values
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]

    def push(g):
        gx = np.empty_like(g)
        gx[..., 1::2] = -g[..., 0::2]
        gx[..., 0::2] = g[..., 1::2]
        return (gx,)

    return _make("pair_swap", out, (x,), push)


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
    never NaN, and so does any weight whose exponential is not finite.  Only
    P = softmax(S) is kept for the adjoint (plus its [..., L_q, C] bucket sums
    when a_v is given), which is dS = P * (dP - rowsum(dP * P)) (Dao et al.
    2022, FlashAttention, App. B).
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

    p = q.values @ np.swapaxes(k.values, -1, -2)
    if a_k is not None:
        p += _take_offsets(_rows_at(q.values, a_k.values.T), idx)
    p *= c
    np.copyto(p, -np.inf, where=~np.asarray(keep, dtype=bool))
    top = p.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", over="ignore"):
        p -= np.where(np.isfinite(top), top, 0.0)
        np.exp(p, out=p)
    np.copyto(p, 0.0, where=~np.isfinite(p))
    denom = p.sum(axis=-1, keepdims=True)
    p /= np.where(denom == 0.0, 1.0, denom)
    out = p @ v.values
    if a_v is not None:
        sums = _sum_offsets(p, idx, C)
        out += _rows_at(sums, a_v.values)

    def push(g):
        dv = np.swapaxes(p, -1, -2) @ g
        ds = g @ np.swapaxes(v.values, -1, -2)  # dP, turned into dS in place
        if a_v is not None:
            ds += _take_offsets(_rows_at(g, a_v.values.T), idx)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= c
        dq = ds @ k.values
        grads = [dq, np.swapaxes(ds, -1, -2) @ q.values, dv]
        if a_k is not None:
            by_bucket = _sum_offsets(ds, idx, C)
            dq += _rows_at(by_bucket, a_k.values)
            grads.append(by_bucket.reshape(-1, C).T @ q.values.reshape(-1, d_h))
        if a_v is not None:
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
    if count == 0:
        raise GraphError("loss over a fully padded batch")
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
    Intermediate nodes keep adjoint None: their gradient lives only until it
    has been pushed to their parents.
    """
    if loss.values.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")

    order: list[TensorNode] = []
    seen = set()
    stack: list[tuple[TensorNode, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.op_record is not None:
            for parent in node.op_record.parents:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.op_record is None:
            node.adjoint = g if node.adjoint is None else node.adjoint + g
            continue
        for parent, pg in zip(node.op_record.parents, node.op_record.push_grads(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
