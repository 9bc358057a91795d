"""Bi-fidelity Gaussian-process surrogate modeling for noisy, non-nested data."""

from .gp import (
    BasisSpec,
    Dataset,
    GpHyper,
    PredictiveDistribution,
    TrainedGp,
    constant_basis,
    fit_gp,
    predict_gp,
)
from .kernels import KernelParams, LengthScales
from .metrics import CalibrationReport, coverage_report, q2
from .mfgp import EmConfig, HfParams, MfData, MfModel, fit_mf, predict_mf
from .optimize import BoxBounds, MultiStartConfig

__all__ = [
    "BasisSpec",
    "BoxBounds",
    "CalibrationReport",
    "Dataset",
    "EmConfig",
    "GpHyper",
    "HfParams",
    "KernelParams",
    "LengthScales",
    "MfData",
    "MfModel",
    "MultiStartConfig",
    "PredictiveDistribution",
    "TrainedGp",
    "constant_basis",
    "coverage_report",
    "fit_gp",
    "fit_mf",
    "predict_gp",
    "predict_mf",
    "q2",
]

__version__ = "0.1.0"
