"""Phase-space fluctuation laboratory.

Builds 1-D grid states and mixed ensembles, measures their position,
momentum, and energy spreads, audits the spread product against the
h/(4*pi) bound, and evaluates, samples, and extremizes the Gaussian
fluctuation densities tied to those spreads.

Each exported name is looked up in its module on first use (PEP 562), so
importing the package loads none of its modules, and a command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "audit": (
        "Classification",
        "SelfSimilarityReport",
        "Verdict",
        "audit_report",
        "classify",
        "entropy_surrogate",
        "self_similarity_report",
        "time_energy",
        "uncertainty_product",
    ),
    "density": (
        "ExtremumCheck",
        "FluctuationParams",
        "PhasePoint",
        "degenerate_spread",
        "density_eval",
        "density_grid",
        "extremal_variances",
        "normalization_check",
        "peak_value",
        "reduced_box_integral",
        "reduced_density",
        "reduced_grid",
        "sample",
        "verify_extremum",
    ),
    "errors": (
        "DecayGuardViolation",
        "FileFormatError",
        "FluctLabError",
        "GridMismatch",
        "InvalidRecipe",
        "NonPositiveInput",
        "NormalizationError",
        "NumericalFailure",
        "ResolutionError",
        "StepTooLarge",
        "TruncationError",
        "ZeroSeparation",
    ),
    "scenarios": ("SweepRow", "WalkTrace", "eigenstate_sweep", "relaxation_walk", "thermal_sweep"),
    "states": (
        "CoherentState",
        "GaussianPacket",
        "GridSpec",
        "HamiltonianSpec",
        "MixedEnsemble",
        "MomentReport",
        "OscillatorEigenstate",
        "PureState",
        "RawSamples",
        "StateRecipe",
        "build_state",
        "energy_moments",
        "ensemble_moments",
        "oscillator_eigenstates",
        "phase_space_moments",
        "thermal_ensemble",
    ),
    "units": ("UnitSystem",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name, looked up in the module that defines it, which is imported on first use."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
