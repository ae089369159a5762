import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sitegame import (
    CandidateSite,
    NaturalObject,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    check_profile_spacing,
    check_scenario,
    check_site,
    iterate_profiles,
    spacing_codes,
)
from conftest import scenarios


def _single_object_scenario(obj_xy, rho_min, rho_max, box=100.0):
    return Scenario(
        region=RegionConfig(x_max=box, y_max=box, rho_min=rho_min, rho_max=rho_max),
        objects=(NaturalObject("A1", Point(*obj_xy)),),
        players=(
            PlayerSpec("P1", 0.0, (CandidateSite("S1", Point(0, 0)),), ((0.0,),), ((0.0,),)),
        ),
    )


def test_b1_is_feasible_in_fixture(scenario):
    report = check_site(Point(7, 8), scenario)
    assert report.in_box
    assert report.band_violations == ()
    assert report.feasible
    # All object distances fall inside [sqrt(5), sqrt(98)].
    distances = [math.hypot(7 - o.position.x, 8 - o.position.y) for o in scenario.objects]
    assert min(distances) == math.sqrt(5)
    assert max(distances) == math.sqrt(98)
    assert scenario.region.rho_min < min(distances)
    assert max(distances) < scenario.region.rho_max


def test_site_on_object_violates_lower_bound():
    scn = _single_object_scenario((4, 4), rho_min=0.5, rho_max=10)
    report = check_site(Point(4, 4), scn)
    assert report.in_box
    assert len(report.band_violations) == 1
    violation = report.band_violations[0]
    assert violation.object_id == "A1"
    assert violation.distance == 0.0
    assert violation.bound == "below"
    assert not report.feasible


def test_position_outside_box(scenario):
    report = check_site(Point(16, 0), scenario)
    assert not report.in_box
    assert not report.feasible


def test_band_bounds_are_closed():
    scn = _single_object_scenario((0, 0), rho_min=5.0, rho_max=5.0)
    # distance exactly 5 on both bounds: feasible (closed interval)
    assert check_site(Point(3, 4), scn).feasible
    assert not check_site(Point(3, 5), scn).feasible


def test_upper_bound_violation_reported():
    scn = _single_object_scenario((0, 0), rho_min=1.0, rho_max=2.0)
    report = check_site(Point(10, 0), scn)
    assert [(v.object_id, v.bound) for v in report.band_violations] == [("A1", "above")]
    assert report.band_violations[0].distance == 10.0


def test_check_scenario_fixture_order_and_count(scenario):
    reports = check_scenario(scenario)
    assert len(reports) == 9
    assert [(r.player_id, r.site_id) for r in reports] == [
        ("P1", "B1"), ("P1", "B2"), ("P1", "B3"),
        ("P2", "C1"), ("P2", "C2"), ("P2", "C3"), ("P2", "C4"),
        ("P3", "D1"), ("P3", "D2"),
    ]
    assert all(r.feasible for r in reports)


def test_check_scenario_empty_site_list():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.5, rho_max=20),
        objects=(NaturalObject("A1", Point(1, 1)),),
        players=(
            PlayerSpec("P1", 0.0, (), (), ()),
            PlayerSpec("P2", 0.0, (CandidateSite("S1", Point(3, 3)),), ((1.0,),), ((0.0,),)),
        ),
    )
    reports = check_scenario(scn)
    assert [(r.player_id, r.site_id) for r in reports] == [("P2", "S1")]


@settings(max_examples=50)
@given(scenario=scenarios())
def test_report_count_equals_site_count(scenario):
    assert len(check_scenario(scenario)) == sum(len(p.sites) for p in scenario.players)


@settings(max_examples=60)
@given(
    site=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    objects=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=4),
    shift=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_band_violations_are_translation_invariant(site, objects, shift):
    def reports(offset):
        scn = Scenario(
            region=RegionConfig(x_max=1000, y_max=1000, rho_min=2.0, rho_max=9.0),
            objects=tuple(
                NaturalObject(f"A{j}", Point(x + offset[0], y + offset[1]))
                for j, (x, y) in enumerate(objects)
            ),
            players=(
                PlayerSpec("P1", 0.0, (CandidateSite("S1", Point(0, 0)),), ((0.0,) * len(objects),), ((0.0,) * len(objects),)),
            ),
        )
        point = Point(site[0] + offset[0], site[1] + offset[1])
        return check_site(point, scn).band_violations

    base = reports((0, 0))
    moved = reports(shift)
    # Integer grid keeps the arithmetic exact, so the lists match exactly.
    assert [(v.object_id, v.distance, v.bound) for v in base] == [
        (v.object_id, v.distance, v.bound) for v in moved
    ]


@settings(max_examples=60)
@given(
    site=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    objects=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=4),
    scale=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
)
def test_feasibility_verdict_is_scale_invariant(site, objects, scale):
    def verdict(factor):
        scn = Scenario(
            region=RegionConfig(
                x_max=1000 * factor,
                y_max=1000 * factor,
                rho_min=2.0 * factor,
                rho_max=9.0 * factor,
            ),
            objects=tuple(
                NaturalObject(f"A{j}", Point(x * factor, y * factor))
                for j, (x, y) in enumerate(objects)
            ),
            players=(
                PlayerSpec("P1", 0.0, (CandidateSite("S1", Point(0, 0)),), ((0.0,) * len(objects),), ((0.0,) * len(objects),)),
            ),
        )
        report = check_site(Point(site[0] * factor, site[1] * factor), scn)
        return (report.feasible, [(v.object_id, v.bound) for v in report.band_violations])

    assert verdict(1.0) == verdict(scale)


def test_profile_spacing_clean_for_fixture_nash_profile(scenario):
    assert check_profile_spacing(scenario, (0, 3, 1)) == []


def test_profile_spacing_detects_close_pair():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=3.0, rho_max=50.0),
        objects=(NaturalObject("A1", Point(9, 9)),),
        players=(
            PlayerSpec("P1", 0.0, (CandidateSite("S1", Point(0, 0)),), ((1.0,),), ((0.0,),)),
            PlayerSpec("P2", 0.0, (CandidateSite("T1", Point(1, 0)),), ((1.0,),), ((0.0,),)),
        ),
    )
    violations = check_profile_spacing(scn, (0, 0))
    assert len(violations) == 1
    v = violations[0]
    assert (v.player_a, v.site_a, v.player_b, v.site_b) == ("P1", "S1", "P2", "T1")
    assert v.distance == 1.0
    assert v.bound == "below"


def _checked_spacing(scenario):
    """check_profile_spacing on every profile, keeping the violating ones."""
    shape = tuple(len(player.sites) for player in scenario.players)
    spacing = {}
    for profile in iterate_profiles(shape):
        found = check_profile_spacing(scenario, profile)
        if found:
            spacing[profile] = tuple(found)
    return spacing


def _listing(spacing):
    """The profiles that ``spacing.violating()`` lists, each with the
    violations that its pairs' codes name (see codes_at), in pair order."""
    profiles = spacing.violating()
    codes = spacing.codes_at(profiles)
    return {
        tuple(map(int, np.unravel_index(flat, spacing.shape))): tuple(
            found[c - 1] for (*_, found), column in zip(spacing.pairs, codes) if (c := column[r])
        )
        for r, flat in enumerate(profiles.tolist())
    }


def _assert_same_spacing(got, expected):
    # Same keys in the same order, same violations in the same order; the
    # dataclass == compares distances exactly.
    assert list(got.items()) == list(expected.items())
    assert all(type(i) is int for profile in got for i in profile)


@settings(max_examples=80, deadline=None)
@given(
    scenario=scenarios(max_players=4),
    band=st.tuples(st.sampled_from([0.5, 3.0, 6.0]), st.sampled_from([8.0, 15.0, 100.0])),
)
def test_profile_spacing_equals_per_profile_checks(scenario, band):
    region = dataclasses.replace(scenario.region, rho_min=band[0], rho_max=band[1])
    scenario = dataclasses.replace(scenario, region=region)
    _assert_same_spacing(_listing(spacing_codes(scenario)), _checked_spacing(scenario))


def _player(player_id, *sites):
    return PlayerSpec(
        player_id,
        0.0,
        tuple(CandidateSite(f"{player_id}S{k + 1}", Point(*xy)) for k, xy in enumerate(sites)),
        tuple((1.0,) for _ in sites),
        tuple((0.0,) for _ in sites),
    )


def test_profile_spacing_single_player_is_empty():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=3.0, rho_max=4.0),
        objects=(NaturalObject("A1", Point(9, 9)),),
        players=(_player("P1", (0, 0), (1, 0)),),
    )
    assert _listing(spacing_codes(scn)) == {}


def test_profile_spacing_coincident_sites():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.5, rho_max=5.0),
        objects=(NaturalObject("A1", Point(9, 9)),),
        players=(
            _player("P1", (2, 2), (0, 0)),
            _player("P2", (2, 2), (1, 1)),
            _player("P3", (2, 3), (9, 0)),
        ),
    )
    spacing = _listing(spacing_codes(scn))
    _assert_same_spacing(spacing, _checked_spacing(scn))
    first = spacing[(0, 0, 0)][0]
    assert (first.site_a, first.site_b, first.distance, first.bound) == (
        "P1S1", "P2S1", 0.0, "below"
    )
    # P3S2 is more than rho_max from every other site.
    assert all(profile in spacing for profile in iterate_profiles((2, 2, 2)) if profile[2] == 1)


def _scattered_scenario(players, sites, band, seed=0):
    """Sites scattered over a 20 x 20 square with one object in its middle."""
    rng = np.random.default_rng(seed)
    return Scenario(
        region=RegionConfig(x_max=20.0, y_max=20.0, rho_min=band[0], rho_max=band[1]),
        objects=(NaturalObject("A1", Point(10.0, 10.0)),),
        players=tuple(
            _player(f"P{i + 1}", *rng.uniform(0.0, 20.0, (sites, 2)).tolist())
            for i in range(players)
        ),
    )


def test_spacing_codes_compare_and_hash_by_identity(scenario):
    # The generated __eq__ and __hash__ compared and hashed the code tables:
    # ValueError for ==, TypeError for hash.
    tight = dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_min=3.0))
    codes, other = spacing_codes(tight), spacing_codes(tight)
    assert codes.pairs  # a pair of sites breaks the band
    assert codes == codes and codes != other
    assert len({codes, other, codes}) == 2


def _assert_spacing_codes_list(scn, sites, players, block):
    expected = _checked_spacing(scn)
    spacing = spacing_codes(scn)
    profiles = spacing.violating()
    shape = (sites,) * players
    assert [tuple(map(int, np.unravel_index(f, shape))) for f in profiles.tolist()] == list(expected)
    # Each pair's code names that pair's violation in the profile, or none,
    # whether the profiles are asked for all at once or ``block`` at a time.
    codes = spacing.codes_at(profiles)
    for start in range(0, len(profiles), block):
        part = spacing.codes_at(profiles[start : start + block])
        for whole, column in zip(codes, part):
            assert column.tolist() == whole[start : start + block].tolist()
    for r, violations in enumerate(expected.values()):
        found = [pair[3][c - 1] for pair, column in zip(spacing.pairs, codes) if (c := column[r])]
        assert found == list(violations)


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16])
@pytest.mark.parametrize("band", [(2.0, 16.0), (6.0, 14.0), (0.5, 100.0)])
def test_spacing_codes_list_the_violating_profiles(block, band):
    scn = _scattered_scenario(players=4, sites=5, band=band)
    _assert_spacing_codes_list(scn, sites=5, players=4, block=block)


def test_spacing_codes_list_the_violating_profiles_of_a_larger_game():
    # 100,000 profiles, of which 84,338 violate the band.
    scn = _scattered_scenario(players=5, sites=10, band=(2.0, 16.0))
    _assert_spacing_codes_list(scn, sites=10, players=5, block=1 << 16)


def test_spacing_codes_list_the_violating_profile_of_64_players():
    # One profile and 460 violating pairs: violating() broadcasts each pair's
    # table over numpy's limit of 64 axes.
    scn = _scattered_scenario(players=64, sites=1, band=(2.0, 16.0))
    assert sum(len(found) for *_, found in spacing_codes(scn).pairs) == 460
    _assert_spacing_codes_list(scn, sites=1, players=64, block=1)


def test_check_profile_spacing_rejects_a_non_integer_index(scenario):
    # 0.5 used to end in a TypeError from indexing a tuple.
    message = "strategy index 0.5 is not an integer for player 'P2', which has 4 strategies"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_profile_spacing(scenario, [0, 0.5, 0])
    assert check_profile_spacing(scenario, (np.int64(0), True, 1)) == check_profile_spacing(scenario, (0, 1, 1))


@pytest.mark.parametrize("player", [0, 1, 2])
@pytest.mark.parametrize("end", ["-1", "k"])
def test_check_profile_spacing_rejects_out_of_range_index(scenario, player, end):
    # A negative index used to wrap silently to a site counted from the end.
    index = -1 if end == "-1" else len(scenario.players[player].sites)
    profile = [0] * scenario.n_players
    profile[player] = index
    message = rf"strategy index {index} is out of range for player 'P{player + 1}'"
    with pytest.raises(ValueError, match=message):
        check_profile_spacing(scenario, profile)
