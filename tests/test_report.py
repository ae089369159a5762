import dataclasses
import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from sitegame import (
    PROVENANCE_LOADED,
    __version__,
    PayoffTensor,
    ZeroDistanceError,
    build_tensor,
    check_profile_spacing,
    check_scenario,
    fixture_tensor,
    iterate_profiles,
    profile_spacing,
    solve,
)
from conftest import json_tensors, scenarios, text_labels

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


# --- text rendering ----------------------------------------------------------

def _fmt(x):
    return f"{x:.6g}"


def _vector_text(values):
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


def _profile_text(tensor, profile):
    labels = ", ".join(tensor.labels_for(profile))
    indices = ", ".join(str(i) for i in profile)
    return f"({labels}) = ({indices})"


def _reference_text(report):
    """The text report rendered one profile at a time, each row through
    labels_for and its own joins."""
    tensor = report.tensor
    lines = [f"sitegame {__version__}"]
    shape = "x".join(str(s) for s in tensor.shape)
    lines.append(f"tensor {shape} ({tensor.provenance}); players: {', '.join(tensor.players)}")
    lines.append(f"tolerance {_fmt(report.tolerance)}")
    if report.feasibility is not None:
        feasible = sum(1 for r in report.feasibility if r.feasible)
        lines.append(f"feasibility: {len(report.feasibility)} sites checked, {feasible} feasible")
        for r in report.feasibility:
            if r.feasible:
                continue
            problems = []
            if not r.in_box:
                problems.append("outside region box")
            problems.extend(
                f"{v.bound} band to {v.object_id} (distance {_fmt(v.distance)})"
                for v in r.band_violations
            )
            lines.append(f"  {r.player_id}/{r.site_id}: {'; '.join(problems)}")
        if report.pairwise_spacing is not None:
            lines.append(f"pairwise spacing violations: {len(report.pairwise_spacing)} profiles")
            for profile, violations in report.pairwise_spacing.items():
                descriptions = ", ".join(
                    f"{v.site_a}-{v.site_b} {v.bound} band (distance {_fmt(v.distance)})"
                    for v in violations
                )
                lines.append(f"  {_profile_text(tensor, profile)}: {descriptions}")
    if report.nash is not None:
        lines.append(f"nash equilibria ({len(report.nash.equilibria)}):")
        for profile, payoffs in zip(report.nash.equilibria, report.nash.payoffs):
            lines.append(f"  {_profile_text(tensor, profile)}: payoffs {_vector_text(payoffs)}")
    if report.compromise is not None:
        lines.append(f"ideal vector: {_vector_text(report.compromise.ideal)}")
        lines.append(
            f"compromise minimizers ({len(report.compromise.minimizers)}), "
            f"min residual {_fmt(report.compromise.min_residual)}:"
        )
        for profile in report.compromise.minimizers:
            payoffs = tensor.payoff_vector(profile)
            lines.append(f"  {_profile_text(tensor, profile)}: payoffs {_vector_text(payoffs)}")
        lines.append("residuals:")
        for profile, residual in report.compromise.residuals.items():
            lines.append(f"  {_profile_text(tensor, profile)}: {_fmt(residual)}")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(
    t=json_tensors(labels=text_labels),
    solvers=st.sampled_from(SOLVER_CHOICES),
    tolerance=st.sampled_from([0.0, 1e-9, 0.5, 1e16]),
)
@example(t=fixture_tensor(), solvers=(True, True), tolerance=1e-9)
def test_to_text_matches_per_profile_rendering(t, solvers, tolerance):
    nash, compromise = solvers
    with np.errstate(over="ignore"):
        report = solve(t, nash=nash, compromise=compromise, tolerance=tolerance)
    assert report.to_text() == _reference_text(report)


# Four players make profiles with several pairwise violations common.
@settings(max_examples=60, deadline=None)
@given(
    scenario=scenarios(max_players=4),
    pairwise=st.booleans(),
    band=st.tuples(st.sampled_from([0.5, 3.0, 6.0]), st.sampled_from([8.0, 15.0, 100.0])),
)
def test_to_text_with_feasibility_sections(scenario, pairwise, band):
    region = dataclasses.replace(scenario.region, rho_min=band[0], rho_max=band[1])
    scenario = dataclasses.replace(scenario, region=region)
    try:
        t = build_tensor(scenario)
    except ZeroDistanceError:
        assume(False)
    report = solve(
        t,
        feasibility=tuple(check_scenario(scenario)),
        pairwise_spacing=profile_spacing(scenario) if pairwise else None,
    )
    assert report.to_text() == _reference_text(report)
