import dataclasses
import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from sitegame import (
    PROVENANCE_LOADED,
    PayoffTensor,
    ZeroDistanceError,
    build_tensor,
    check_profile_spacing,
    check_scenario,
    fixture_tensor,
    iterate_profiles,
    solve,
)
from conftest import json_tensors, scenarios

SOLVER_CHOICES = [(True, True), (True, False), (False, True), (False, False)]


def _assert_to_json_is_json_dumps(report):
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


@settings(max_examples=150, deadline=None)
@given(
    t=json_tensors(),
    solvers=st.sampled_from(SOLVER_CHOICES),
    tolerance=st.sampled_from([0.0, 1e-9, 0.5, 1e16]),
)
@example(t=fixture_tensor(), solvers=(True, True), tolerance=1e-9)
def test_to_json_is_json_dumps_of_to_dict(t, solvers, tolerance):
    nash, compromise = solvers
    # Payoffs near the largest double can overflow the shortfall; see
    # test_residual_overflow_is_written_as_infinity.
    with np.errstate(over="ignore"):
        report = solve(t, nash=nash, compromise=compromise, tolerance=tolerance)
    _assert_to_json_is_json_dumps(report)


@settings(max_examples=40, deadline=None)
@given(
    scenario=scenarios(),
    pairwise=st.booleans(),
    band=st.tuples(st.sampled_from([0.5, 3.0, 6.0]), st.sampled_from([8.0, 15.0, 100.0])),
)
def test_to_json_with_feasibility_sections(scenario, pairwise, band):
    # A narrow band makes site and pairwise spacing violations common.
    region = dataclasses.replace(scenario.region, rho_min=band[0], rho_max=band[1])
    scenario = dataclasses.replace(scenario, region=region)
    try:
        t = build_tensor(scenario)
    except ZeroDistanceError:
        assume(False)
    spacing = None
    if pairwise:
        spacing = {}
        for profile in iterate_profiles(t.shape):
            found = check_profile_spacing(scenario, profile)
            if found:
                spacing[profile] = tuple(found)
    report = solve(t, feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing)
    _assert_to_json_is_json_dumps(report)


def test_residual_overflow_is_written_as_infinity():
    # Pins current behaviour: finite payoffs 2e308 apart overflow the
    # shortfall to inf, which JSON output spells with the non-standard token
    # Infinity.
    t = PayoffTensor(
        shape=(2,),
        players=("P1",),
        strategy_labels=(("S1", "S2"),),
        values=np.array([[1e308], [-1e308]]),
        provenance=PROVENANCE_LOADED,
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        report = solve(t)
    assert report.compromise.residuals[(1,)] == float("inf")
    assert '"residual": Infinity' in report.to_json()
    _assert_to_json_is_json_dumps(report)
