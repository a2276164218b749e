"""Minimal dense autodiff engine: tensors, ops, Adam, RNG, gradient checks."""

from .adam import AdamState, adam_step
from .gradcheck import GradReport, check_gradients, numeric_gradient, relative_error
from .rng import Rng
from .tensor import (
    TensorNode,
    add,
    add_const,
    attend,
    backward,
    clip,
    concat,
    constant,
    cos,
    dot_last,
    dropout,
    gather,
    interleave_last,
    layer_norm,
    leaky_relu,
    linear,
    log,
    mul,
    no_graph,
    pair_swap,
    parameter,
    reshape,
    scale,
    sigmoid,
    silu,
    sin,
    sum_all,
    tensor,
    transpose,
)
