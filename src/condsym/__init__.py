"""Conditional-symmetry toolkit for anisotropic diffusion flows.

Second-order forward jets drive everything: exact determinant-form
residuals, finite group transformations with their derivative laws and
obstruction terms, infinitesimal generators with their commutator
table, and a catalog of closed-form solution families checked on
deterministic grids.
"""

from .errors import BranchError, DimensionMismatch, DomainError, ZeroDynamicalExponent
from .fields import ModelParams, Point, ProfileFunction, parse_profile
from .jet2 import Jet2, constant, seed
from .operators import ResidualKind, evaluate_residual, monge_ampere, w1
from .solutions import DEFAULT_FAMILIES, SolutionField, evaluate_solution
from .symmetry import (
    Rot,
    Xn,
    Yk,
    Yphi,
    pushforward_field,
    transform_point,
)
from .verify import GridSpec, ResidualReport, fd_crosscheck, run_residual_suite

__all__ = [
    "BranchError",
    "DEFAULT_FAMILIES",
    "DimensionMismatch",
    "DomainError",
    "GridSpec",
    "Jet2",
    "ModelParams",
    "Point",
    "ProfileFunction",
    "ResidualKind",
    "ResidualReport",
    "Rot",
    "SolutionField",
    "Xn",
    "Yk",
    "Yphi",
    "ZeroDynamicalExponent",
    "constant",
    "evaluate_residual",
    "evaluate_solution",
    "fd_crosscheck",
    "monge_ampere",
    "parse_profile",
    "pushforward_field",
    "run_residual_suite",
    "seed",
    "transform_point",
    "w1",
]

__version__ = "0.1.0"
