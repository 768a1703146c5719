"""Minimal dense-tensor library with reverse-mode differentiation."""

from . import ops
from .params import ParamStore, adamw_step, load_weights, read_weight_file, save_weights
from .tensor import Tensor, backward, cut, no_grad, precision

__all__ = [
    "ParamStore",
    "Tensor",
    "adamw_step",
    "backward",
    "cut",
    "load_weights",
    "no_grad",
    "ops",
    "precision",
    "read_weight_file",
    "save_weights",
]
