"""Finite facility-siting game toolkit.

Players place polluting facilities at candidate sites; income decays with
distance to natural objects while compensation for environmental damage grows
as facilities get closer. This package evaluates the payoff function and its
gradient, checks siting feasibility, assembles the finite game's payoff
tensor, enumerates pure Nash equilibria, and computes the compromise set
(profiles minimizing the worst shortfall from each player's best payoff).
"""

__version__ = "0.1.0"

from .scenario import (
    CandidateSite,
    NaturalObject,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    ScenarioFormatError,
    Violation,
    dumps_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from .feasibility import (
    BandViolation,
    FeasibilityReport,
    PairSpacingViolation,
    check_profile_spacing,
    check_scenario,
    check_site,
    profile_spacing,
)
from .payoff import Gradient, PayoffBreakdown, ZeroDistanceError, distance, payoff, payoff_gradient
from .tensor import (
    PROVENANCE_COMPUTED,
    PROVENANCE_LOADED,
    PayoffTensor,
    Profile,
    TensorFormatError,
    build_tensor,
    dumps_tensor,
    iterate_profiles,
    load_tensor,
    tensor_from_dict,
    tensor_to_dict,
)
from .solvers import (
    DEFAULT_TOLERANCE,
    CompromiseResult,
    NashResult,
    best_response,
    find_compromise,
    find_pure_nash,
    ideal_vector,
)
from .report import SolveReport, solve
from .fixtures import fixture_scenario, fixture_tensor, write_fixtures

__all__ = [
    "__version__",
    # scenario
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
    # feasibility
    "BandViolation",
    "FeasibilityReport",
    "PairSpacingViolation",
    "check_site",
    "check_scenario",
    "check_profile_spacing",
    "profile_spacing",
    # payoff
    "PayoffBreakdown",
    "Gradient",
    "ZeroDistanceError",
    "distance",
    "payoff",
    "payoff_gradient",
    # tensor
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
    # solvers
    "DEFAULT_TOLERANCE",
    "NashResult",
    "CompromiseResult",
    "best_response",
    "find_pure_nash",
    "ideal_vector",
    "find_compromise",
    # report
    "SolveReport",
    "solve",
    # fixtures
    "fixture_scenario",
    "fixture_tensor",
    "write_fixtures",
]
