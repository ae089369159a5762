"""Finite facility-siting game toolkit.

Players place polluting facilities at candidate sites; income decays with
distance to natural objects while compensation for environmental damage grows
as facilities get closer. This package evaluates the payoff function and its
gradient, checks siting feasibility, assembles the finite game's payoff
tensor, enumerates pure Nash equilibria, and computes the compromise set
(profiles minimizing the worst shortfall from each player's best payoff).

The public names are loaded from their submodules on first access (PEP 562),
so ``import sitegame`` alone imports neither numpy nor any submodule.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The solvers' default tie tolerance, defined here rather than in `solvers`
# so that the CLI can build its parser without importing numpy.
DEFAULT_TOLERANCE = 1e-9


def _checked_tolerance(tolerance: float) -> float:
    """``tolerance`` if finite and >= 0, for the solvers, report and CLI; else ValueError."""
    if not 0 <= tolerance < float("inf"):  # also rejects NaN
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    return tolerance


class FormatError(ValueError):
    """A document that cannot be parsed: malformed JSON, or not the form of
    its kind. The base of ScenarioFormatError and TensorFormatError, and the
    one error the CLI ends with exit 2 and its message; defined here so that
    the CLI can name it without loading a reader."""


# The public names of each submodule.
_EXPORTS = {
    "scenario": (
        "Point",
        "RegionConfig",
        "NaturalObject",
        "CandidateSite",
        "PlayerSpec",
        "Scenario",
        "Violation",
        "ScenarioFormatError",
        "validate",
        "scenario_from_dict",
        "scenario_to_dict",
        "dumps_scenario",
        "load_scenario",
    ),
    "feasibility": (
        "BandViolation",
        "FeasibilityReport",
        "PairSpacingViolation",
        "check_site",
        "check_scenario",
        "check_profile_spacing",
        "SpacingCodes",
        "spacing_codes",
    ),
    "payoff": (
        "PayoffBreakdown",
        "Gradient",
        "ZeroDistanceError",
        "distance",
        "payoff",
        "payoff_gradient",
    ),
    "tensor": (
        "Profile",
        "PayoffTensor",
        "TensorFormatError",
        "PROVENANCE_COMPUTED",
        "PROVENANCE_LOADED",
        "build_tensor",
        "iterate_profiles",
        "tensor_from_dict",
        "tensor_to_dict",
        "dumps_tensor",
        "load_tensor",
    ),
    "solvers": (
        "NashResult",
        "CompromiseResult",
        "best_response",
        "find_pure_nash",
        "ideal_vector",
        "find_compromise",
    ),
    "report": ("SolveReport", "solve"),
    "fixtures": ("fixture_scenario", "fixture_tensor", "write_fixtures"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "DEFAULT_TOLERANCE", "FormatError", *_SUBMODULE_OF]


def __getattr__(name: str) -> object:
    if name in _SUBMODULE_OF:
        value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Importing a submodule binds it on the package; `sitegame.payoff`
        # names the function, so the `payoff` module must not be bound over it.
        if name not in _SUBMODULE_OF or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
