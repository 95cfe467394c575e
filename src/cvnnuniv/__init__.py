"""Universality classification and constructive approximation for complex-valued networks."""

__version__ = "0.3.0"

from .activations import ActivationSpec, activation_catalog, activation_names, by_name
from .grids import Grid, make_grid
from .network import (
    NetworkWeights,
    RidgeNetwork,
    ShallowNetwork,
    compose,
    eval_network,
    eval_ridge,
    eval_shallow,
    lift_affine,
    linear_combine,
    restrict_line,
)
from .wirtinger import MollifierSpec, laplacian_power, make_mollifier, mollify, wirtinger_jet

__all__ = [
    "ActivationSpec",
    "Grid",
    "MollifierSpec",
    "NetworkWeights",
    "RidgeNetwork",
    "ShallowNetwork",
    "activation_catalog",
    "activation_names",
    "by_name",
    "compose",
    "eval_network",
    "eval_ridge",
    "eval_shallow",
    "laplacian_power",
    "lift_affine",
    "linear_combine",
    "make_grid",
    "make_mollifier",
    "mollify",
    "restrict_line",
    "wirtinger_jet",
    "__version__",
]
