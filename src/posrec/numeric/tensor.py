"""Dense tensors with reverse-mode differentiation on numpy arrays.

Every op returns a TensorNode holding the forward values and, when any input
requires gradients, an op record (parents + a closure pushing the output
adjoint to the parents). backward() walks the recorded graph once in reverse
topological order and accumulates adjoints into the leaves, so calling it
twice doubles them; intermediate adjoints are dropped as soon as they are
pushed to the parents.

Float64 is the default dtype. Elementwise ops follow standard numpy
broadcasting; gradients of broadcast inputs are summed back to the input
shape. `matmul` multiplies stacks of matrices with equal leading axes and
does not broadcast; a product with a shared 2-D weight is `linear`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import GraphError, ShapeMismatchError

DEFAULT_DTYPE = np.float64

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


def tensor(values, requires_grad=False, name=None, dtype=None):
    """Wrap array-like data as a leaf node."""
    arr = np.asarray(values, dtype=dtype or DEFAULT_DTYPE)
    return TensorNode(arr, requires_grad=requires_grad, name=name)


def parameter(values, name=None, dtype=None):
    return tensor(values, requires_grad=True, name=name, dtype=dtype)


def constant(values, name=None, dtype=None):
    return tensor(values, requires_grad=False, name=name, dtype=dtype)


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


def scale(x, c: float):
    c = float(c)

    def push(g):
        return (g * c,)

    return _make("scale", x.values * c, (x,), push)


def add_const(x, c: float):
    c = float(c)

    def push(g):
        return (g,)

    return _make("add_const", x.values + c, (x,), push)


def matmul(a, b):
    """a @ b over equal leading axes: [..., m, k] @ [..., k, n] -> [..., m, n]."""
    if (a.values.ndim < 2 or b.values.ndim != a.values.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]):
        raise ShapeMismatchError("matmul", a.shape, b.shape)

    def push(g):
        return g @ np.swapaxes(b.values, -1, -2), np.swapaxes(a.values, -1, -2) @ g

    return _make("matmul", a.values @ b.values, (a, b), push)


def linear(x, w, b=None):
    """x @ w (+ b) for a shared weight w [k, n] and x [..., k].

    One [M, k] @ [k, n] product over every row of x; b, when given, is added
    in place and broadcasts against the [..., n] output ([n], or [L, n] rows
    shared by every sequence of a batch).
    """
    if w.values.ndim != 2 or x.values.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError("linear", x.shape, w.shape)
    k, n = w.shape
    out = (x.values.reshape(-1, k) @ w.values).reshape(x.shape[:-1] + (n,))
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


def mask_fill(x, keep, fill=-np.inf):
    """Keep entries where the boolean mask is true, write `fill` elsewhere."""
    keepb = np.asarray(keep, dtype=bool)
    out = np.where(keepb, x.values, x.dtype.type(fill))

    def push(g):
        return (np.where(keepb, g, 0.0),)

    return _make("mask_fill", out, (x,), push)


def dot_last(a, b):
    """Rowwise dot product over the last axis."""
    if a.shape != b.shape:
        raise ShapeMismatchError("dot_last", a.shape, b.shape)
    out = np.einsum("...d,...d->...", a.values, b.values)

    def push(g):
        return g[..., None] * b.values, g[..., None] * a.values

    return _make("dot_last", out, (a, b), push)


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


def offset_take(x, idx):
    """out[..., i, j] = x[..., i, idx[i, j]]: row i's bucket idx[i, j] at column j.

    x is [..., L_q, C] and idx an integer [L_q, L] array of buckets in [0, C).
    The adjoint is offset_sum.
    """
    idx = np.asarray(idx)
    if idx.ndim != 2 or x.values.ndim < 2 or x.shape[-2] != idx.shape[0]:
        raise ShapeMismatchError("offset_take", x.shape, idx.shape)
    buckets = x.shape[-1]

    def push(g):
        return (_sum_offsets(g, idx, buckets),)

    return _make("offset_take", _take_offsets(x.values, idx), (x,), push)


def offset_sum(w, idx, buckets: int):
    """out[..., i, c] = sum of w[..., i, j] over the columns j with idx[i, j] == c.

    w is [..., L_q, L] and idx an integer [L_q, L] array of buckets in
    [0, buckets); the output is [..., L_q, buckets].  The adjoint is offset_take.
    """
    idx = np.asarray(idx)
    if idx.ndim != 2 or w.shape[-2:] != idx.shape:
        raise ShapeMismatchError("offset_sum", w.shape, idx.shape)

    def push(g):
        return (_take_offsets(g, idx),)

    return _make("offset_sum", _sum_offsets(w.values, idx, buckets), (w,), push)


def sum_all(x):
    out = np.asarray(x.values.sum())

    def push(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _make("sum_all", out, (x,), push)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax_last(x):
    """Softmax over the last axis; rows that are entirely -inf come out zero."""
    v = x.values
    rowmax = np.max(v, axis=-1, keepdims=True)
    dead = ~np.isfinite(rowmax)
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(v - np.where(dead, 0.0, rowmax))
    e = np.where(np.isfinite(e), e, 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    out = e / np.where(denom == 0.0, 1.0, denom)

    def push(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _make("softmax", out, (x,), push)


def sigmoid(x):
    v = x.values
    with np.errstate(over="ignore", invalid="ignore"):
        # the unselected where-branch may evaluate to inf/inf; NaN inputs
        # still propagate, since NaN >= 0 picks the exp(v) branch
        out = np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))

    def push(g):
        return (g * out * (1.0 - out),)

    return _make("sigmoid", out, (x,), push)


def log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.values)

    def push(g):
        return (g / x.values,)

    return _make("log", out, (x,), push)


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
    with np.errstate(over="ignore"):
        s = np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))
    out = v * s

    def push(g):
        return (g * s * (1.0 + v * (1.0 - s)),)

    return _make("silu", out, (x,), push)


def clip(x, lo: float, hi: float):
    """Clamp values; gradient passes only through the interior."""
    v = x.values
    out = np.clip(v, lo, hi)
    inside = (v > lo) & (v < hi)

    def push(g):
        return (np.where(inside, g, 0.0),)

    return _make("clip", out, (x,), push)


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
