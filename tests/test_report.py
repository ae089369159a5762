import dataclasses
import json
import re
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
    CompromiseResult,
    NashResult,
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
    dumps_scenario,
    find_compromise,
    find_pure_nash,
    fixture_scenario,
    fixture_tensor,
    iterate_profiles,
    solve,
    spacing_codes,
)
from sitegame import report as report_module
from sitegame.cli import main
from conftest import (
    assert_renders_in_blocks,
    assert_same_text,
    json_tensors,
    scenarios,
    seeded_scenario,
    text_labels,
)

SOLVER_CHOICES = [(True, True), (True, False), (False, True), (False, False)]


def _assert_to_json_is_json_dumps(report):
    assert_same_text(report.to_json(), json.dumps(report.to_dict(), indent=2))


def _checked_spacing(scenario):
    """A pairwise dict as a caller builds it: check_profile_spacing on every
    profile, a fresh tuple of fresh violations for each violating one."""
    found = {}
    for profile in iterate_profiles(tuple(len(player.sites) for player in scenario.players)):
        violations = check_profile_spacing(scenario, profile)
        if violations:
            found[profile] = tuple(violations)
    return found


def _pairwise_entries(scenario, tensor):
    """to_dict()'s pairwise listing, built from check_profile_spacing on
    every profile."""
    return [
        {
            "indices": list(profile),
            "labels": [tensor.strategy_labels[p][k] for p, k in enumerate(profile)],
            "violations": [dataclasses.asdict(v) for v in violations],
        }
        for profile, violations in _checked_spacing(scenario).items()
    ]


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
    pairwise=st.sampled_from([None, "per profile", "per pair"]),
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
    if pairwise == "per profile":
        spacing = _checked_spacing(scenario)
    elif pairwise == "per pair":
        spacing = spacing_codes(scenario)  # the CLI's form
    report = solve(t, feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing)
    _assert_to_json_is_json_dumps(report)
    if spacing is not None:
        listed = report.to_dict()["feasibility"]["pairwise_spacing"]
        assert listed == _pairwise_entries(scenario, t)
        assert all(entry["violations"] for entry in listed)


def test_labels_spelled_like_a_listing_placeholder_stay_labels():
    # json_document finds each listing by its key and the placeholder after
    # it; labels that spell either are escaped strings and never match.
    t = dataclasses.replace(
        fixture_tensor(),
        players=("equilibria", '"residuals": "<listing>"', report_module.LISTING),
        strategy_labels=(("<listing>", "a", "b"), ("minimizers", "<listing>", '"', "x"), ("y", "z")),
    )
    _assert_to_json_is_json_dumps(solve(t))


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


def _reference_text(report, scenario=None):
    """The text report rendered one profile at a time, each row through
    labels_for and its own joins; a pairwise section that is not a dict is
    listed from check_profile_spacing on every profile of ``scenario``."""
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
            spacing = report.pairwise_spacing
            if not isinstance(spacing, dict):
                spacing = _checked_spacing(scenario)
            lines.append(f"pairwise spacing violations: {len(spacing)} profiles")
            for profile, violations in spacing.items():
                descriptions = ", ".join(
                    f"{v.site_a}-{v.site_b} {v.bound} band (distance {_fmt(v.distance)})"
                    for v in violations
                )
                lines.append(f"  {_profile_text(tensor, profile)}: {descriptions}")
    if report.nash is not None:
        lines.append(f"nash equilibria ({len(report.nash.equilibria)}):")
        for profile in report.nash.equilibria:
            payoffs = tensor.payoff_vector(profile)
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
    pairwise=st.sampled_from([None, _checked_spacing, spacing_codes]),
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
        pairwise_spacing=None if pairwise is None else pairwise(scenario),
    )
    assert_same_text(report.to_text(), _reference_text(report, scenario))


def test_site_outside_the_region_box_is_listed(tmp_path, capsys, scenario):
    # No generated scenario puts a site outside the box: B1 moves to x 20 of 15.
    p1 = scenario.players[0]
    b1 = dataclasses.replace(p1.sites[0], position=Point(20, 8))
    p1 = dataclasses.replace(p1, sites=(b1, *p1.sites[1:]))
    scenario = dataclasses.replace(scenario, players=(p1, *scenario.players[1:]))
    path = tmp_path / "outside.json"
    path.write_text(dumps_scenario(scenario), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\nfeasibility: 9 sites checked, 8 feasible\n  P1/B1: outside region box\n" in out
    report = solve(build_tensor(scenario), feasibility=tuple(check_scenario(scenario)))
    assert_same_text(out, _reference_text(report) + "\n")
    assert main(["solve", str(path), "--format", "json"]) == 0
    sites = json.loads(capsys.readouterr().out)["feasibility"]["sites"]
    assert [site["in_box"] for site in sites] == [False] + [True] * 8


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


def _assert_text_in_blocks(monkeypatch, report, scenario=None):
    """to_text matches its reference whatever the block budget (see
    assert_renders_in_blocks)."""
    text = _reference_text(report, scenario)
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
    spacing = spacing_codes(scenario)
    assert spacing.violating().size > 8192
    report = solve(
        build_tensor(scenario),
        feasibility=tuple(check_scenario(scenario)),
        pairwise_spacing=spacing,
    )
    _assert_text_in_blocks(monkeypatch, report, scenario)


@pytest.mark.parametrize("rho_max", [16.0, 2.0 * (1 + 1e-7)])
def test_spacing_codes_listing_across_blocks(monkeypatch, rho_max):
    # Most profiles break the band, or every one with all six pairs.
    scenario = _crowded_scenario(players=4, sites=7)
    scenario = dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_max=rho_max))
    spacing = spacing_codes(scenario)
    report = solve(build_tensor(scenario), feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing)
    assert spacing.violating().size > 1000
    text = _reference_text(report, scenario)
    assert_renders_in_blocks(monkeypatch, report.to_text, text, text.count("\n") + 1)
    doc = report.to_dict()
    assert doc["feasibility"]["pairwise_spacing"] == _pairwise_entries(scenario, report.tensor)
    document = json.dumps(doc, indent=2)
    assert_renders_in_blocks(monkeypatch, report.to_json, document, 3 * report.tensor.n_profiles)


def test_to_text_pairwise_listing_from_fresh_tuples(monkeypatch):
    scenario = _crowded_scenario(players=4, sites=10)
    spacing = _checked_spacing(scenario)
    assert len(spacing) > 4096
    report = solve(
        build_tensor(scenario),
        feasibility=tuple(check_scenario(scenario)),
        pairwise_spacing=spacing,
    )
    _assert_text_in_blocks(monkeypatch, report)


def test_pairwise_details_spell_each_tuple_object_once(monkeypatch):
    # Each violation object is spelled once, however many rows name it: a
    # pair's violations once per pair, and a caller's fresh tuples once per
    # row.
    scenario = _crowded_scenario(players=4, sites=6)
    t = build_tensor(scenario)
    codes = spacing_codes(scenario)
    fresh = _checked_spacing(scenario)
    pairs = [found for *_, found in codes.pairs]
    assert sum(map(len, pairs)) < sum(map(len, fresh.values()))
    spelled = []
    fmt = report_module._fmt
    monkeypatch.setattr(report_module, "_fmt", lambda x: spelled.append(x) or fmt(x))
    texts = []
    for spacing, rows in [(codes, pairs), (fresh, fresh.values())]:
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
    "spacing, rejected",
    [
        pytest.param({}, None, id="spacing0"),
        pytest.param({(0, 0, 0): ()}, (0, 0, 0), id="spacing1"),
        pytest.param({(2, 3, 1): (), (0, 1, 0): ()}, (2, 3, 1), id="spacing2"),
    ],
)
def test_to_text_pairwise_rows_without_violations(spacing, rejected):
    # A mapping lists only violating profiles, as spacing_codes does: an
    # empty one lists no rows (to_json() raised AttributeError when no row
    # held a violation), and the first profile mapped to no violations is
    # rejected, where it was listed as a row ending after ": ".
    t = fixture_tensor()
    if rejected is not None:
        message = (
            f"pairwise_spacing at profile {rejected!r}: expected a non-empty sequence "
            "of PairSpacingViolation, got ()"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(t, feasibility=(), pairwise_spacing=spacing)
        return
    report = solve(t, feasibility=(), pairwise_spacing=spacing)
    assert_same_text(report.to_text(), _reference_text(report))
    _assert_to_json_is_json_dumps(report)


@pytest.mark.parametrize(
    "profile, message",
    [
        ((5, 0, 0), "strategy index 5 is out of range for player 'P1', which has 3 strategies"),
        ((0, 0), "profile (0, 0) has 2 indices for 3 players"),
        ((0, 0, 0, 0), "profile (0, 0, 0, 0) has 4 indices for 3 players"),
    ],
    ids=["out of range", "too short", "too long"],
)
def test_report_rejects_a_mapping_key_that_is_no_profile_of_the_tensor(profile, message):
    # An index out of range raised IndexError while rendering, too few
    # indices "iterator too short", and too many listed the profile of the
    # first three silently.
    t, spacing = fixture_tensor(), {profile: ()}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(t, feasibility=(), pairwise_spacing=spacing)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolveReport(t, DEFAULT_TOLERANCE, None, None, (), spacing)


@pytest.mark.parametrize("found", [(1,), "ab", None], ids=["ints", "string", "none"])
def test_report_rejects_a_mapping_value_that_is_no_sequence_of_violations(found):
    # Each was accepted; then to_text() raised AttributeError, and to_json()
    # and to_dict() TypeError ("has no len()" for None). An empty one is
    # rejected too: see test_to_text_pairwise_rows_without_violations.
    t, spacing = fixture_tensor(), {(0, 0, 0): found}
    message = (
        "pairwise_spacing at profile (0, 0, 0): expected a non-empty sequence of "
        f"PairSpacingViolation, got {found!r}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(t, feasibility=(), pairwise_spacing=spacing, nash=False, compromise=False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolveReport(t, DEFAULT_TOLERANCE, None, None, (), spacing)


@pytest.mark.parametrize("pairwise", [spacing_codes, _checked_spacing])
def test_pairwise_spacing_needs_feasibility(pairwise):
    # The pairwise listing sits in the feasibility section. Without one,
    # to_text left it out, to_json and to_dict raised.
    scenario = fixture_scenario()
    scenario = dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_min=3.0))
    t, spacing = build_tensor(scenario), pairwise(scenario)
    message = r"^pairwise_spacing needs feasibility; feasibility=\(\) lists no sites$"
    with pytest.raises(ValueError, match=message):
        solve(t, pairwise_spacing=spacing)
    with pytest.raises(ValueError, match=message):
        SolveReport(t, DEFAULT_TOLERANCE, None, None, pairwise_spacing=spacing)
    report = solve(t, feasibility=(), pairwise_spacing=spacing)
    doc = report.to_dict()
    assert list(doc["feasibility"]) == ["sites", "pairwise_spacing"]
    assert doc["feasibility"]["sites"] == []
    assert doc["feasibility"]["pairwise_spacing"] == _pairwise_entries(scenario, t) != []
    _assert_to_json_is_json_dumps(report)
    assert_same_text(report.to_text(), _reference_text(report, scenario))


def _tight_fixture():
    """The fixture scenario with rho_min 3, where a pair of sites breaks the band."""
    scenario = fixture_scenario()
    return dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_min=3.0))


@pytest.mark.parametrize("sites", [6, 2], ids=["larger", "smaller"])
def test_report_rejects_arrays_of_another_game(sites):
    # Spacing codes or solver results of the 3x4x2 fixture, given with another
    # tensor, listed the wrong profiles silently, or failed while rendering
    # with an IndexError or a numpy ValueError.
    scenario = _tight_fixture()
    t = build_tensor(scenario)
    other = build_tensor(seeded_scenario(players=3, sites=sites, objects=5))
    spacing, compromise = spacing_codes(scenario), find_compromise(t)
    assert spacing.pairs
    fixture_shape, other_shape = r"\(3, 4, 2\)", rf"\({sites}, {sites}, {sites}\)"
    message = rf"^pairwise_spacing has shape {fixture_shape}, the tensor {other_shape}$"
    with pytest.raises(ValueError, match=message):
        SolveReport(other, DEFAULT_TOLERANCE, None, None, (), spacing)
    report = SolveReport(t, DEFAULT_TOLERANCE, None, compromise, (), spacing)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(report, tensor=other, compromise=None)
    message = rf"^compromise has shape {fixture_shape}, the tensor {other_shape}$"
    with pytest.raises(ValueError, match=message):
        SolveReport(other, DEFAULT_TOLERANCE, None, compromise)
    message = rf"^nash has shape {fixture_shape}, the tensor {other_shape}$"
    with pytest.raises(ValueError, match=message):
        SolveReport(other, DEFAULT_TOLERANCE, find_pure_nash(t), None)
    # Results of the report's own tensor stay accepted.
    SolveReport(other, DEFAULT_TOLERANCE, find_pure_nash(other), find_compromise(other))


def test_solve_checks_its_arguments_before_either_solver_runs(monkeypatch):
    # solve ran both solvers, which take seconds on a large game, and only
    # then built the report that rejected its arguments.
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(report_module, "find_pure_nash", solver)
    monkeypatch.setattr(report_module, "find_compromise", solver)
    scenario = _tight_fixture()
    t, spacing = build_tensor(scenario), spacing_codes(scenario)
    with pytest.raises(ValueError, match="^pairwise_spacing needs feasibility"):
        solve(t, pairwise_spacing=spacing)
    other = build_tensor(seeded_scenario(players=3, sites=2, objects=5))
    with pytest.raises(ValueError, match=r"^pairwise_spacing has shape \(3, 4, 2\)"):
        solve(other, feasibility=(), pairwise_spacing=spacing)


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


def _peak_and_length(pieces):
    """The tracemalloc peak while ``pieces`` are consumed a piece at a
    time, as the CLI writes them, and their total length."""
    written = 0
    tracemalloc.start()
    try:
        for piece in pieces:
            written += len(piece)
            del piece
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, written


def test_json_pieces_allocate_less_than_their_output():
    # The document of the test above, consumed a piece at a time as the CLI
    # writes it. Rendered in one piece, it peaked at 3.2 times its length.
    peak, written = _peak_and_length(solve(_seeded_tensor((8,) * 5)).json_pieces())
    assert written > 7_000_000
    assert peak < written


def test_json_pieces_of_all_ties_allocate_less_than_their_output():
    # Every payoff ties, so all 32,768 profiles are equilibria and
    # minimizers. Encoded through one dict per entry, the equilibria and
    # minimizers peaked at several times the document's length.
    t = dataclasses.replace(_seeded_tensor((8,) * 5), values=np.ones((8,) * 5 + (5,)))
    report = solve(t)
    assert len(report.nash.equilibria) == len(report.compromise.minimizers) == 8**5
    peak, written = _peak_and_length(report.json_pieces())
    assert written > 20_000_000
    assert peak < written


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pieces_of_an_all_violating_report_allocate_less_than_their_output(fmt):
    # A band of almost no width: every pair of sites breaks it, so every
    # profile is listed with all 15 of its pairs' violations.
    scenario = seeded_scenario(players=6, sites=5, objects=3)
    region = dataclasses.replace(scenario.region, rho_max=scenario.region.rho_min * (1 + 1e-7))
    scenario = dataclasses.replace(scenario, region=region)
    spacing = spacing_codes(scenario)
    assert spacing.violating().size == 5**6
    report = solve(build_tensor(scenario), feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing)
    peak, written = _peak_and_length(report.text_pieces() if fmt == "text" else report.json_pieces())
    assert written > 5_000_000
    assert peak < written


def test_renderers_read_the_result_arrays_not_their_tuple_views(monkeypatch, tmp_path):
    # The renderers turned the solvers' tuples, one per listed profile, back
    # into arrays.
    def unread(result):
        raise AssertionError("a tuple view was read")

    for result, name in [(NashResult, "equilibria"), (CompromiseResult, "minimizers")]:
        monkeypatch.setattr(result, name, property(unread))
    scenario = _tight_fixture()
    t = build_tensor(scenario)
    report = solve(t, feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing_codes(scenario))
    assert report.to_text() and report.to_json()
    path = tmp_path / "tight.json"
    path.write_text(dumps_scenario(scenario), encoding="utf-8")
    for fmt in ["text", "json"]:
        assert main(["solve", str(path), "--pairwise-band", "--format", fmt]) == 0
    with pytest.raises(AssertionError, match="tuple view"):
        report.nash.equilibria


def test_rendering_leaves_the_residuals_dict_unbuilt(tensor, scenario):
    # ``residuals`` is built on first access; no render path may ask for it,
    # not even to_dict(), the reference the listings are checked against.
    t = build_tensor(scenario)
    reports = [
        solve(tensor),
        solve(t, feasibility=tuple(check_scenario(scenario)), pairwise_spacing=spacing_codes(scenario)),
    ]
    for report in reports:
        report.to_text()
        report.to_json()
        report.to_dict()
        assert "residuals" not in vars(report.compromise)
