"""Minimal dense autodiff engine: tensors, ops, Adam, RNG, gradient checks."""

from .adam import AdamState, adam_step
from .gradcheck import GradReport, check_gradients, numeric_gradient, relative_error
from .rng import Rng
from .tensor import (
    TensorNode,
    add,
    attend,
    backward,
    bce,
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
    mul,
    no_graph,
    pair_swap,
    parameter,
    reshape,
    silu,
    sin,
    tensor,
    transpose,
)
