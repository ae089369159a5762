import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from sitegame import (
    CandidateSite,
    NaturalObject,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    ZeroDistanceError,
    build_tensor,
    distance,
    payoff,
    payoff_gradient,
)
from oracles import central_difference_gradient, oracle_payoff_total

# Frozen from the straight-line oracle over the fixture tables (pi_value = 3).
P1_B1_TOTAL = 2.6138193948132304
P1_B1_INCOME_SUM = 8.049078421500827
P1_B1_DAMAGE_SUM = 5.435259026687596
P2_C1_TOTAL = 5.312011007316723


def test_distance_examples():
    assert distance(Point(7, 8), Point(2, 3)) == math.sqrt(50)
    assert distance(Point(7, 8), Point(2, 3)) == pytest.approx(7.0711, abs=1e-4)
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(2.5, -1), Point(2.5, -1)) == 0.0


@given(
    ax=st.floats(-1e6, 1e6), ay=st.floats(-1e6, 1e6),
    bx=st.floats(-1e6, 1e6), by=st.floats(-1e6, 1e6),
)
def test_distance_symmetric_and_nonnegative(ax, ay, bx, by):
    a, b = Point(ax, ay), Point(bx, by)
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0


def test_player1_at_b1_breakdown(scenario):
    breakdown = payoff(0, Point(7, 8), scenario)
    assert breakdown.total == pytest.approx(P1_B1_TOTAL, abs=1e-9)
    assert abs(breakdown.total - 2.614) < 1e-3
    assert sum(breakdown.income) == pytest.approx(P1_B1_INCOME_SUM, abs=1e-9)
    assert sum(breakdown.damage) == pytest.approx(P1_B1_DAMAGE_SUM, abs=1e-9)
    assert all(term >= 0 for term in breakdown.income)
    assert all(term >= 0 for term in breakdown.damage)
    # invariant: total is the signed sum of the stored terms
    assert breakdown.total == sum(breakdown.income) - sum(breakdown.damage)
    # live cross-check against the independent accumulation
    player = scenario.players[0]
    expected = oracle_payoff_total(
        (7, 8), player.loss[0], player.damage_weight[0], player.emission,
        [(o.position.x, o.position.y) for o in scenario.objects],
        scenario.region.pi_value,
    )
    assert breakdown.total == pytest.approx(expected, abs=1e-12)


def test_player2_at_c1_total(scenario):
    breakdown = payoff(1, Point(6, 4), scenario)
    assert breakdown.total == pytest.approx(P2_C1_TOTAL, abs=1e-9)
    assert abs(breakdown.total - 5.312) < 1e-3


def test_zero_coefficients_give_zero_total():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.1, rho_max=100),
        objects=(NaturalObject("A1", Point(1, 1)), NaturalObject("A2", Point(9, 9))),
        players=(
            PlayerSpec("P1", 42.0, (CandidateSite("S1", Point(5, 5)),), ((0.0, 0.0),), ((0.0, 0.0),)),
        ),
    )
    breakdown = payoff(0, Point(5, 5), scn)
    assert breakdown.total == 0.0
    assert breakdown.income == (0.0, 0.0)
    assert breakdown.damage == (0.0, 0.0)


def test_single_object_unit_income():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.1, rho_max=100),
        objects=(NaturalObject("A1", Point(3, 4)),),
        players=(
            PlayerSpec("P1", 7.0, (CandidateSite("S1", Point(3, 5)),), ((1.0,),), ((0.0,),)),
        ),
    )
    assert payoff(0, Point(3, 5), scn).total == 1.0


def test_payoff_raises_on_zero_distance(scenario):
    # evaluate player 3's first row on object A2, away from site D1: the
    # error names the location, not the row's site
    with pytest.raises(ZeroDistanceError) as excinfo:
        payoff(2, Point(5, 9), scenario, site_index=0)
    err = excinfo.value
    assert err.player_id == "P3"
    assert err.site_id is None
    assert err.object_id == "A2"
    assert str(err) == "player 'P3': location coincides with natural object 'A2'"


def test_gradient_raises_on_zero_distance(scenario):
    message = "^player 'P1': location coincides with natural object 'A1'$"
    with pytest.raises(ZeroDistanceError, match=message):
        payoff_gradient(0, Point(2, 3), scenario, site_index=1)


@pytest.mark.parametrize("function", [payoff, payoff_gradient])
@pytest.mark.parametrize("site_index", [-1, 3])
def test_out_of_range_site_index_raises(scenario, function, site_index):
    # player P1 has three candidate sites, rows 0..2
    with pytest.raises(ValueError, match=rf"site_index {site_index} .* player 'P1'"):
        function(0, Point(7, 8), scenario, site_index=site_index)


@pytest.mark.parametrize("function", [payoff, payoff_gradient])
@pytest.mark.parametrize(
    "site_index, fault",
    [(-1, "-1 is out of range"), (3, "3 is out of range"), (1.0, "1.0 is not an integer")],
)
def test_bad_site_index_message(scenario, function, site_index, fault):
    # 1.0 used to end in a TypeError from indexing a tuple.
    message = f"site_index {fault} for player 'P1', which has 3 candidate sites"
    with pytest.raises(ValueError, match=re.escape(message)):
        function(0, Point(7, 8), scenario, site_index=site_index)


def test_numpy_integer_site_index_is_accepted(scenario):
    at = Point(7, 8)
    assert payoff(0, at, scenario, site_index=np.int64(1)) == payoff(0, at, scenario, site_index=1)


def test_unmatched_position_raises(scenario):
    with pytest.raises(ValueError, match="not a candidate site"):
        payoff(0, Point(6.5, 8.0), scenario)


def test_short_coefficient_row_raises(scenario):
    # validate reports the row; payoff on an unvalidated scenario names the player.
    p1 = scenario.players[0]
    p1 = dataclasses.replace(p1, loss=(p1.loss[0][:-1], *p1.loss[1:]))
    scenario = dataclasses.replace(scenario, players=(p1, *scenario.players[1:]))
    message = "player 'P1': every coefficient row needs one entry per object"
    with pytest.raises(ValueError, match=re.escape(message)):
        payoff(0, p1.sites[0].position, scenario)


@pytest.mark.parametrize("fault", ["ragged rows", "sequence entry"])
def test_odd_coefficient_rows_raise_as_np_array_does(scenario, fault):
    # The kernel fills its arrays by np.fromiter only from rows of one entry
    # per object; other rows raise numpy's own error, as they did.
    p1 = scenario.players[0]
    row = p1.loss[1]
    row = row[:-1] if fault == "ragged rows" else (row[0], (1.0,)) + row[2:]
    loss = (p1.loss[0], row, *p1.loss[2:])
    p1 = dataclasses.replace(p1, loss=loss)
    scenario = dataclasses.replace(scenario, players=(p1, *scenario.players[1:]))
    with pytest.raises(ValueError) as expected:
        np.array(loss, dtype=float)
    with pytest.raises(ValueError) as raised:
        build_tensor(scenario)
    assert str(raised.value) == str(expected.value)


def test_explicit_row_matches_oracle_at_arbitrary_point(scenario):
    player = scenario.players[1]
    at = Point(3.25, 11.5)
    breakdown = payoff(1, at, scenario, site_index=2)
    expected = oracle_payoff_total(
        (3.25, 11.5), player.loss[2], player.damage_weight[2], player.emission,
        [(o.position.x, o.position.y) for o in scenario.objects],
        scenario.region.pi_value,
    )
    assert breakdown.total == pytest.approx(expected, abs=1e-12)


def test_gradient_zero_by_symmetry():
    # identical objects at (0, 0) and (4, 0); any site on x = 2 balances d_x
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.1, rho_max=100),
        objects=(NaturalObject("A1", Point(0, 0)), NaturalObject("A2", Point(4, 0))),
        players=(
            PlayerSpec(
                "P1", 12.0, (CandidateSite("S1", Point(2, 3)),), ((5.0, 5.0),), ((1.5, 1.5),)
            ),
        ),
    )
    gradient = payoff_gradient(0, Point(2, 3), scn)
    assert gradient.d_x == 0.0
    assert gradient.d_y != 0.0


def test_gradient_zero_when_all_coefficients_zero():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.1, rho_max=100),
        objects=(NaturalObject("A1", Point(1, 2)),),
        players=(
            PlayerSpec("P1", 3.0, (CandidateSite("S1", Point(5, 5)),), ((0.0,),), ((0.0,),)),
        ),
    )
    gradient = payoff_gradient(0, Point(5, 5), scn)
    assert gradient.d_x == 0.0
    assert gradient.d_y == 0.0


def _fd_relative_error(scenario, player_index, site_index, x, y, step=1e-5):
    gradient = payoff_gradient(player_index, Point(x, y), scenario, site_index=site_index)

    def total(px, py):
        return payoff(player_index, Point(px, py), scenario, site_index=site_index).total

    fd_x, fd_y = central_difference_gradient(total, x, y, step)
    err = math.hypot(gradient.d_x - fd_x, gradient.d_y - fd_y)
    return err / max(math.hypot(fd_x, fd_y), 1e-12)


def test_gradient_matches_finite_differences_at_b1(scenario):
    assert _fd_relative_error(scenario, 0, 0, 7.0, 8.0) < 1e-6


@settings(max_examples=120, deadline=None)
@given(
    player_site=st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 1)]),
    x=st.floats(0, 15),
    y=st.floats(0, 15),
)
def test_gradient_matches_finite_differences_at_random_points(scenario, player_site, x, y):
    assume(
        all(distance(Point(x, y), o.position) > 0.5 for o in scenario.objects)
    )
    player_index, site_index = player_site
    assert _fd_relative_error(scenario, player_index, site_index, x, y) < 1e-6


@settings(max_examples=60)
@given(object_index=st.integers(0, 4), bump=st.floats(0.01, 25))
def test_total_strictly_increases_in_loss(scenario, object_index, bump):
    base = payoff(0, Point(7, 8), scenario).total
    player1 = scenario.players[0]
    bumped_loss = [list(row) for row in player1.loss]
    bumped_loss[0][object_index] += bump
    bumped = Scenario(
        region=scenario.region,
        objects=scenario.objects,
        players=(
            PlayerSpec(player1.id, player1.emission, player1.sites,
                       tuple(tuple(r) for r in bumped_loss), player1.damage_weight),
        ) + scenario.players[1:],
    )
    assert payoff(0, Point(7, 8), bumped).total > base


@settings(max_examples=60)
@given(object_index=st.integers(0, 4), bump=st.floats(0.01, 25))
def test_total_strictly_decreases_in_damage_weight(scenario, object_index, bump):
    base = payoff(0, Point(7, 8), scenario).total
    player1 = scenario.players[0]
    bumped_weight = [list(row) for row in player1.damage_weight]
    bumped_weight[0][object_index] += bump
    bumped = Scenario(
        region=scenario.region,
        objects=scenario.objects,
        players=(
            PlayerSpec(player1.id, player1.emission, player1.sites,
                       player1.loss, tuple(tuple(r) for r in bumped_weight)),
        ) + scenario.players[1:],
    )
    assert payoff(0, Point(7, 8), bumped).total < base


def test_doubling_pi_halves_damage_terms_only(scenario):
    doubled_region = RegionConfig(
        x_max=scenario.region.x_max,
        y_max=scenario.region.y_max,
        rho_min=scenario.region.rho_min,
        rho_max=scenario.region.rho_max,
        pi_value=scenario.region.pi_value * 2,
    )
    doubled = Scenario(region=doubled_region, objects=scenario.objects, players=scenario.players)
    base = payoff(0, Point(7, 8), scenario)
    halved = payoff(0, Point(7, 8), doubled)
    assert halved.income == base.income
    assert halved.damage == tuple(term / 2 for term in base.damage)


@settings(max_examples=60)
@given(
    site=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    objects=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=4),
    shift=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_payoff_translation_invariant(site, objects, shift):
    assume(tuple(site) not in {tuple(o) for o in objects})
    m = len(objects)

    def evaluate(offset):
        scn = Scenario(
            region=RegionConfig(x_max=1000, y_max=1000, rho_min=0.1, rho_max=1000),
            objects=tuple(
                NaturalObject(f"A{j}", Point(x + offset[0], y + offset[1]))
                for j, (x, y) in enumerate(objects)
            ),
            players=(
                PlayerSpec(
                    "P1", 9.0,
                    (CandidateSite("S1", Point(site[0] + offset[0], site[1] + offset[1])),),
                    ((3.0,) * m,),
                    ((1.5,) * m,),
                ),
            ),
        )
        return payoff(0, Point(site[0] + offset[0], site[1] + offset[1]), scn)

    base = evaluate((0, 0))
    moved = evaluate(shift)
    # exact: integer translations leave every coordinate difference unchanged
    assert base.income == moved.income
    assert base.damage == moved.damage
    assert base.total == moved.total
