"""Minimal dense autodiff engine: tensors, ops, Adam, RNG."""

from .adam import AdamState, adam_step
from .rng import Rng
from .tensor import (
    TensorNode,
    add,
    attend,
    backward,
    bce,
    constant,
    dot_last,
    dropout,
    gather,
    layer_norm,
    leaky_relu,
    linear,
    no_graph,
    parameter,
    reshape,
    rotate,
    silu,
    tensor,
    transpose,
)
