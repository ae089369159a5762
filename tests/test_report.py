import dataclasses
import json
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from sitegame import (
    DEFAULT_TOLERANCE,
    PROVENANCE_LOADED,
    __version__,
    CandidateSite,
    NaturalObject,
    PayoffTensor,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    SolveReport,
    ZeroDistanceError,
    build_tensor,
    check_profile_spacing,
    check_scenario,
    find_compromise,
    find_pure_nash,
    fixture_tensor,
    iterate_profiles,
    profile_spacing,
    solve,
)
from sitegame import report as report_module
from conftest import assert_renders_in_blocks, assert_same_text, json_tensors, scenarios, text_labels

SOLVER_CHOICES = [(True, True), (True, False), (False, True), (False, False)]


def _assert_to_json_is_json_dumps(report):
    assert_same_text(report.to_json(), json.dumps(report.to_dict(), indent=2))


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
    assert_same_text(report.to_text(), _reference_text(report))


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
    assert_same_text(report.to_text(), _reference_text(report))


# --- listings longer than one block --------------------------------------------

def _seeded_tensor(shape, seed=0):
    n = len(shape)
    return PayoffTensor(
        shape=shape,
        players=tuple(f"P{i + 1}" for i in range(n)),
        strategy_labels=tuple(tuple(f"S{j + 1}" for j in range(s)) for s in shape),
        values=np.random.default_rng(seed).uniform(-10.0, 10.0, size=shape + (n,)),
        provenance=PROVENANCE_LOADED,
    )


def _assert_text_in_blocks(monkeypatch, report):
    """to_text matches its reference whatever the block budget (see
    assert_renders_in_blocks)."""
    text = _reference_text(report)
    assert_renders_in_blocks(monkeypatch, report.to_text, text, text.count("\n") + 1)


def _assert_renders_in_blocks(monkeypatch, report):
    """to_text and to_json match their references whatever the block budget."""
    _assert_text_in_blocks(monkeypatch, report)
    document = json.dumps(report.to_dict(), indent=2)
    assert_renders_in_blocks(monkeypatch, report.to_json, document, report.tensor.n_profiles)


@pytest.mark.parametrize(
    "shape",
    [
        (7,),  # one player: each profile is a head with an empty tail
        (2, 5, 3),
        (4, 3, 2, 3),
    ],
)
def test_to_text_residual_listing_across_blocks(monkeypatch, shape):
    _assert_renders_in_blocks(monkeypatch, solve(_seeded_tensor(shape)))


def test_listings_across_blocks_without_pure_equilibria(monkeypatch):
    # Matching pennies between players 1 and 2; player 3 is indifferent. The
    # empty listing of Nash equilibria has no row to take a width from.
    values = np.zeros((2, 2, 3, 3))
    values[..., 0] = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    values[..., 1] = -values[..., 0]
    t = dataclasses.replace(_seeded_tensor((2, 2, 3)), values=values)
    report = solve(t)
    assert report.nash.equilibria == ()
    _assert_renders_in_blocks(monkeypatch, report)


def _crowded_scenario(players, sites, seed=0):
    """Sites scattered over a 20 x 20 square around three objects, with a
    band of [2, 16]: most profiles hold a pair of sites outside it."""
    rng = np.random.default_rng(seed)

    def point():
        return Point(*map(float, rng.uniform(0.0, 20.0, 2)))

    objects = tuple(NaturalObject(f"A{j + 1}", point()) for j in range(3))
    return Scenario(
        region=RegionConfig(20.0, 20.0, 2.0, 16.0),
        objects=objects,
        players=tuple(
            PlayerSpec(
                f"P{i + 1}",
                float(rng.uniform(1.0, 80.0)),
                tuple(CandidateSite(f"P{i + 1}S{k + 1}", point()) for k in range(sites)),
                tuple(tuple(map(float, rng.uniform(0.0, 20.0, 3))) for _ in range(sites)),
                tuple(tuple(map(float, rng.uniform(0.0, 3.0, 3))) for _ in range(sites)),
            )
            for i in range(players)
        ),
    )


def test_to_text_pairwise_listing_across_blocks(monkeypatch):
    scenario = _crowded_scenario(players=4, sites=12)
    spacing = profile_spacing(scenario)
    assert len(spacing) > 8192
    report = solve(
        build_tensor(scenario),
        feasibility=tuple(check_scenario(scenario)),
        pairwise_spacing=spacing,
    )
    _assert_text_in_blocks(monkeypatch, report)


def _per_profile_spacing(scenario):
    """A pairwise dict as a caller builds it: check_profile_spacing on every
    profile, a fresh tuple of fresh violations for each violating one."""
    found = {}
    for profile in iterate_profiles(tuple(len(player.sites) for player in scenario.players)):
        violations = check_profile_spacing(scenario, profile)
        if violations:
            found[profile] = tuple(violations)
    return found


def test_to_text_pairwise_listing_from_fresh_tuples(monkeypatch):
    scenario = _crowded_scenario(players=4, sites=10)
    spacing = _per_profile_spacing(scenario)
    assert len(spacing) > 4096
    report = solve(
        build_tensor(scenario),
        feasibility=tuple(check_scenario(scenario)),
        pairwise_spacing=spacing,
    )
    _assert_text_in_blocks(monkeypatch, report)


def test_pairwise_details_spell_each_tuple_object_once(monkeypatch):
    # Details are keyed by tuple object, so no violation is ever hashed:
    # profile_spacing's shared tuples cost one spelling per distinct set, and
    # a caller's fresh tuples one per row.
    scenario = _crowded_scenario(players=4, sites=6)
    t = build_tensor(scenario)
    shared = profile_spacing(scenario)
    fresh = _per_profile_spacing(scenario)
    distinct = {id(row): row for row in shared.values()}.values()
    assert len(distinct) < len(shared)
    spelled = []
    fmt = report_module._fmt
    monkeypatch.setattr(report_module, "_fmt", lambda x: spelled.append(x) or fmt(x))
    texts = []
    for spacing, rows in [(shared, distinct), (fresh, fresh.values())]:
        spelled.clear()
        report = solve(t, nash=False, compromise=False, feasibility=(), pairwise_spacing=spacing)
        texts.append(report.to_text())
        # The one other number in the text is the tolerance.
        assert len(spelled) == 1 + sum(len(row) for row in rows)
    assert_same_text(texts[0], _reference_text(report))
    assert_same_text(texts[1], texts[0])


def _awkward_labels(shape):
    # Every text a row is built from could be mistaken for its template.
    return tuple(tuple(f"%s{p}, {k}) = (%" for k in range(s)) for p, s in enumerate(shape))


@pytest.mark.parametrize(
    "shape",
    [
        (5,),  # one player: the head takes all, the tail is empty
        (1, 33),
        (33, 1),
        (3, 1, 7, 2, 5),
    ],
)
def test_to_text_listing_split_into_head_and_tail(monkeypatch, shape):
    t = dataclasses.replace(_seeded_tensor(shape), strategy_labels=_awkward_labels(shape))
    _assert_renders_in_blocks(monkeypatch, solve(t))


@pytest.mark.parametrize(
    "spacing", [{}, {(0, 0, 0): ()}, {(2, 3, 1): (), (0, 1, 0): ()}]
)
def test_to_text_pairwise_rows_without_violations(spacing):
    # profile_spacing lists only violating profiles, but a report may be
    # given any mapping: rows with no violations end after ": ".
    report = solve(fixture_tensor(), feasibility=(), pairwise_spacing=spacing)
    assert_same_text(report.to_text(), _reference_text(report))


def test_compromise_and_text_allocate_little_beyond_the_text():
    # 46,656 profiles. Rendering a row at a time, or the whole listing in one
    # piece, peaked at more than 4.5 times the text's length.
    scenario = _crowded_scenario(players=6, sites=6)
    t = build_tensor(scenario)
    nash = find_pure_nash(t)
    feasibility = tuple(check_scenario(scenario))
    tracemalloc.start()
    try:
        compromise = find_compromise(t)
        text = SolveReport(t, DEFAULT_TOLERANCE, nash, compromise, feasibility).to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_profiles >= 40_000
    assert peak < 3.5 * len(text)


def test_to_json_allocates_little_beyond_its_output():
    # 32,768 profiles and 7.5 MB of JSON; the residual listing peaked at 4.4
    # times the output's length while its template was joined twice.
    report = solve(_seeded_tensor((8,) * 5))
    tracemalloc.start()
    try:
        text = report.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 7_000_000
    assert peak < 3.5 * len(text)


def test_json_pieces_allocate_less_than_their_output():
    # The document of the test above, consumed a piece at a time as the CLI
    # writes it. Rendered in one piece, it peaked at 3.2 times its length.
    report = solve(_seeded_tensor((8,) * 5))
    written = 0
    tracemalloc.start()
    try:
        for piece in report.json_pieces():
            written += len(piece)
            del piece
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 7_000_000
    assert peak < written


def test_rendering_leaves_the_residuals_dict_unbuilt(tensor, scenario):
    # ``residuals`` is built on first access; no render path may ask for it.
    t = build_tensor(scenario)
    reports = [
        solve(tensor),
        solve(t, feasibility=tuple(check_scenario(scenario)), pairwise_spacing=profile_spacing(scenario)),
    ]
    for report in reports:
        report.to_text()
        report.to_json()
        assert "residuals" not in vars(report.compromise)
