"""The array paths against copies of the per-object and per-entry code they
replaced.

The payoff kernel (``PayoffTerms``) serves ``payoff``, ``payoff_gradient``,
``build_tensor`` and ``check_scenario``; the document loaders and
``validate`` check and convert whole rows and whole object and site lists.
Each must give what the code below gives, bit for bit: floats are compared
through ``repr`` or their bit patterns, so that -0.0 and 0.0 differ.
"""

import dataclasses
import importlib
import math
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from sitegame import (
    BandViolation,
    FeasibilityReport,
    PayoffBreakdown,
    Point,
    ScenarioFormatError,
    TensorFormatError,
    ZeroDistanceError,
    build_tensor,
    check_scenario,
    fixture_tensor,
    payoff,
    payoff_gradient,
    scenario_from_dict,
    scenario_to_dict,
    tensor_from_dict,
    tensor_to_dict,
    validate,
)
from sitegame import scenario as scenario_module
from sitegame.feasibility import ABOVE, BELOW
from sitegame.payoff import Gradient, _running_sums, _sums
from sitegame.document import _expect_dict, _get
from sitegame.scenario import Point, Violation, _expect_list, _finite, _number, _string
from conftest import dense_values, scenarios

# The package's payoff function hides its module of the same name.
payoff_module = importlib.import_module("sitegame.payoff")


# --- the per-object code ------------------------------------------------------

def site_at(player, site_index, position):
    """The id of the site of coefficient row ``site_index``, if ``position``
    is that site's position: what a ZeroDistanceError names; else None."""
    site = player.sites[site_index]
    return site.id if position == site.position else None


def per_object_payoff(player_index, position, scenario, site_index):
    player = scenario.players[player_index]
    loss_row = player.loss[site_index]
    weight_row = player.damage_weight[site_index]
    scale = player.emission / (2.0 * scenario.region.pi_value)
    income = []
    damage = []
    for j, obj in enumerate(scenario.objects):
        rho = math.hypot(position.x - obj.position.x, position.y - obj.position.y)
        if rho == 0.0:
            raise ZeroDistanceError(player.id, site_at(player, site_index, position), obj.id)
        income.append(loss_row[j] / rho)
        damage.append(weight_row[j] * scale / (rho * rho))
    return PayoffBreakdown(tuple(income), tuple(damage), sum(income) - sum(damage))


def per_object_gradient(player_index, position, scenario, site_index):
    player = scenario.players[player_index]
    loss_row = player.loss[site_index]
    weight_row = player.damage_weight[site_index]
    scale = player.emission / scenario.region.pi_value
    d_x = 0.0
    d_y = 0.0
    for j, obj in enumerate(scenario.objects):
        dx = position.x - obj.position.x
        dy = position.y - obj.position.y
        rho = math.hypot(dx, dy)
        if rho == 0.0:
            raise ZeroDistanceError(player.id, site_at(player, site_index, position), obj.id)
        rho2 = rho * rho
        income_factor = -loss_row[j] / (rho2 * rho)
        damage_factor = weight_row[j] * scale / (rho2 * rho2)
        d_x += (income_factor + damage_factor) * dx
        d_y += (income_factor + damage_factor) * dy
    return Gradient(d_x, d_y)


def per_object_tensor_values(scenario):
    shape = tuple(len(player.sites) for player in scenario.players)
    n = len(shape)
    values = np.empty(shape + (n,))
    for p, player in enumerate(scenario.players):
        totals = np.array(
            [per_object_payoff(p, site.position, scenario, k).total for k, site in enumerate(player.sites)]
        )
        axes = [1] * n
        axes[p] = shape[p]
        values[..., p] = totals.reshape(axes)
    return values


def per_object_check_scenario(scenario):
    region = scenario.region
    reports = []
    for player in scenario.players:
        for site in player.sites:
            at = site.position
            violations = []
            for obj in scenario.objects:
                rho = math.hypot(at.x - obj.position.x, at.y - obj.position.y)
                if rho < region.rho_min:
                    violations.append(BandViolation(obj.id, rho, BELOW))
                elif rho > region.rho_max:
                    violations.append(BandViolation(obj.id, rho, ABOVE))
            in_box = 0 <= at.x <= region.x_max and 0 <= at.y <= region.y_max
            reports.append(FeasibilityReport(player.id, site.id, at, in_box, tuple(violations)))
    return reports


def zero_distance_fields(call):
    with pytest.raises(ZeroDistanceError) as excinfo:
        call()
    err = excinfo.value
    return err.player_id, err.site_id, err.object_id, str(err)


def outcome(call):
    """repr of the result (strict for floats), or the fields of the error."""
    try:
        return repr(call())
    except ZeroDistanceError:
        return zero_distance_fields(call)


def assert_same(kernel_call, per_object_call, player, site_id):
    """The kernel's outcome equals the per-object code's. Where a distance is
    so small that a power of it underflows to 0, the per-object code divided
    by zero; the kernel raises ZeroDistanceError there instead, naming the
    player and ``site_id`` (see site_at)."""
    try:
        expected = outcome(per_object_call)
    except ZeroDivisionError:
        assert zero_distance_fields(kernel_call)[:2] == (player.id, site_id)
    else:
        assert outcome(kernel_call) == expected


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=float).view(np.int64).ravel().tolist()


# --- scenarios for the kernel --------------------------------------------------

def _with_points(scenario, move):
    return dataclasses.replace(
        scenario,
        objects=tuple(dataclasses.replace(obj, position=move(obj.position)) for obj in scenario.objects),
        players=tuple(
            dataclasses.replace(
                player,
                sites=tuple(dataclasses.replace(site, position=move(site.position)) for site in player.sites),
            )
            for player in scenario.players
        ),
    )


def _signed_zeros(scenario):
    def flip(matrix):
        return tuple(tuple(-0.0 if x == 0 else x for x in row) for row in matrix)

    return dataclasses.replace(
        scenario,
        players=tuple(
            dataclasses.replace(
                player,
                emission=-0.0 if player.emission == 0 else player.emission,
                loss=flip(player.loss),
                damage_weight=flip(player.damage_weight),
            )
            for player in scenario.players
        ),
    )


@st.composite
def kernel_scenarios(draw):
    """conftest scenarios, with integer-valued float coordinates turned into
    ints or moved off the grid, zero coefficients made -0.0, or a site moved
    onto a natural object."""
    scenario = draw(scenarios())
    coordinates = draw(st.sampled_from(["grid", "int", "float"]))
    if coordinates == "int":
        scenario = _with_points(scenario, lambda at: Point(int(at.x), int(at.y)))
    elif coordinates == "float":
        offsets = iter(draw(st.lists(st.floats(0, 1), min_size=64, max_size=64)) * 64)
        scenario = _with_points(scenario, lambda at: Point(at.x + next(offsets), at.y + next(offsets)))
    if draw(st.booleans()):
        scenario = _signed_zeros(scenario)
    if draw(st.booleans()):
        p = draw(st.integers(0, scenario.n_players - 1))
        player = scenario.players[p]
        k = draw(st.integers(0, len(player.sites) - 1))
        at = scenario.objects[draw(st.integers(0, scenario.n_objects - 1))].position
        sites = list(player.sites)
        sites[k] = dataclasses.replace(sites[k], position=at)
        players = list(scenario.players)
        players[p] = dataclasses.replace(player, sites=tuple(sites))
        scenario = dataclasses.replace(scenario, players=tuple(players))
    return scenario


def first_singular_site(scenario):
    """Player and site id of the first candidate site, in normative order,
    where the per-object payoff raises."""
    for p, player in enumerate(scenario.players):
        for k, site in enumerate(player.sites):
            try:
                per_object_payoff(p, site.position, scenario, k)
            except ArithmeticError:
                return player.id, site.id
    return None


def assert_kernel_matches(scenario, anywhere):
    for p, player in enumerate(scenario.players):
        for k, site in enumerate(player.sites):
            for position in (site.position, anywhere):
                assert_same(
                    lambda: payoff(p, position, scenario, site_index=k),
                    lambda: per_object_payoff(p, position, scenario, k),
                    player,
                    site_at(player, k, position),
                )
                assert_same(
                    lambda: payoff_gradient(p, position, scenario, site_index=k),
                    lambda: per_object_gradient(p, position, scenario, k),
                    player,
                    site_at(player, k, position),
                )
    try:
        expected = per_object_tensor_values(scenario)
    except ZeroDistanceError:
        assert zero_distance_fields(lambda: build_tensor(scenario)) == zero_distance_fields(
            lambda: per_object_tensor_values(scenario)
        )
    except ZeroDivisionError:
        assert zero_distance_fields(lambda: build_tensor(scenario))[:2] == first_singular_site(scenario)
    else:
        assert bits(dense_values(build_tensor(scenario))) == bits(expected)
    assert repr(check_scenario(scenario)) == repr(per_object_check_scenario(scenario))


@settings(max_examples=150, deadline=None)
@given(scenario=kernel_scenarios(), at=st.tuples(st.floats(-5, 35), st.floats(-5, 35)))
def test_kernel_equals_per_object_code(scenario, at):
    assert_kernel_matches(scenario, Point(*at))


def _one_object(scenario):
    return dataclasses.replace(
        scenario,
        objects=scenario.objects[:1],
        players=tuple(
            dataclasses.replace(
                player,
                loss=tuple(row[:1] for row in player.loss),
                damage_weight=tuple(row[:1] for row in player.damage_weight),
            )
            for player in scenario.players
        ),
    )


def _site_on_object(scenario):
    player = scenario.players[1]
    sites = (dataclasses.replace(player.sites[0], position=scenario.objects[3].position),)
    players = list(scenario.players)
    players[1] = dataclasses.replace(player, sites=sites + player.sites[1:])
    return dataclasses.replace(scenario, players=tuple(players))


def _zero_rows(scenario):
    # Player 1's damage terms and player 2's first income row are all -0.0,
    # so their sums start from sum()'s +0.0.
    first, second = scenario.players[0], scenario.players[1]
    zeros = (-0.0,) * scenario.n_objects
    return dataclasses.replace(
        scenario,
        players=(
            dataclasses.replace(first, emission=-0.0),
            dataclasses.replace(second, loss=(zeros,) + second.loss[1:]),
        )
        + scenario.players[2:],
    )


def _site_off_an_object(distance):
    def move(scenario):
        player = scenario.players[0]
        objects = (dataclasses.replace(scenario.objects[0], position=Point(0.0, 0.0)),)
        sites = (dataclasses.replace(player.sites[0], position=Point(distance, 0.0)),)
        return dataclasses.replace(
            scenario,
            objects=objects + scenario.objects[1:],
            players=(dataclasses.replace(player, sites=sites + player.sites[1:]),) + scenario.players[1:],
        )

    return move


@pytest.mark.parametrize(
    "variant",
    [
        lambda s: s,
        lambda s: _with_points(s, lambda at: Point(float(at.x), float(at.y))),
        _one_object,
        _zero_rows,
        _site_on_object,
        # The squared distance underflows to 0.
        _site_off_an_object(1e-170),
        # The fourth power of the distance underflows to 0; the payoff is finite.
        _site_off_an_object(1e-100),
    ],
    ids=[
        "int coordinates",
        "float coordinates",
        "one object",
        "signed zeros",
        "site on object",
        "site a hair from an object",
        "site near an object",
    ],
)
def test_kernel_equals_per_object_code_on_the_fixture(scenario, variant):
    assert_kernel_matches(variant(scenario), Point(6.5, 2.25))


_ROWS = st.lists(
    st.one_of(st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1e100, -1e100]), st.floats(allow_nan=False)),
    max_size=12,
)


@given(row=_ROWS)
@example(row=[1.0, 1e100, -1e100])
def test_sums_are_sum(row):
    # [1.0, 1e100, -1e100] sums to 0.0 one addition after another, but to 1.0
    # with the compensated sum() of Python 3.12 and later.
    assert bits(_sums(np.array([row, row], dtype=float).reshape(2, len(row)))) == bits([sum(row)] * 2)


@given(row=_ROWS)
@example(row=[1.0, 1e100, -1e100])
@example(row=[-0.0, -0.0])
def test_running_sums_add_one_term_after_another(row):
    expected = 0.0
    for term in row:
        expected += term
    with np.errstate(over="ignore", invalid="ignore"):
        total = _running_sums(np.array([row, row], dtype=float).reshape(2, len(row)))
    assert bits(total) == bits([expected] * 2)


def test_totals_follow_the_running_pythons_sum(scenario):
    # sum() rounds differently from Python 3.12 on. The per-object code summed
    # with sum(), so the kernel must call it, whatever it does: here a
    # stand-in with other rounding (math.fsum) must carry through to payoff
    # and build_tensor.
    with mock.patch.object(payoff_module, "sum", math.fsum, create=True):
        values = dense_values(build_tensor(scenario))
        for p, player in enumerate(scenario.players):
            for k, site in enumerate(player.sites):
                breakdown = payoff(p, site.position, scenario, site_index=k)
                total = math.fsum(breakdown.income) - math.fsum(breakdown.damage)
                assert breakdown.total == total
                assert set(values.take(k, axis=p)[..., p].ravel().tolist()) == {total}
    assert values.tolist() != dense_values(build_tensor(scenario)).tolist()


# --- the per-entry document code -----------------------------------------------

def per_entry_matrix(value, path):
    rows = _expect_list(value, path)
    return tuple(
        tuple(
            _number(entry, f"{path}[{i}][{j}]")
            for j, entry in enumerate(_expect_list(row, f"{path}[{i}]"))
        )
        for i, row in enumerate(rows)
    )


def per_entry_check_matrix(matrix, path, n_sites, n_objects, out):
    if len(matrix) != n_sites:
        out.append(Violation(path, f"expected {n_sites} rows (one per site), got {len(matrix)}"))
    for i, row in enumerate(matrix):
        if len(row) != n_objects:
            out.append(
                Violation(f"{path}[{i}]", f"expected {n_objects} entries (one per object), got {len(row)}")
            )
        for j, entry in enumerate(row):
            if not _finite(entry) or entry < 0:
                out.append(Violation(f"{path}[{i}][{j}]", f"must be a finite number >= 0, got {entry!r}"))


def per_entry_payoff_rows(payoffs_doc, n):
    rows = []
    for r, row in enumerate(payoffs_doc):
        if not isinstance(row, list) or len(row) != n:
            raise TensorFormatError(f"payoffs[{r}]: expected a vector of {n} numbers")
        entries = []
        for p, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise TensorFormatError(f"payoffs[{r}][{p}]: expected a number, got {entry!r}")
            try:
                value = float(entry)
            except OverflowError:
                raise TensorFormatError(f"payoffs[{r}][{p}]: integer too large for a float") from None
            if not math.isfinite(value):
                raise TensorFormatError(f"payoffs[{r}][{p}]: must be finite, got {entry!r}")
            entries.append(value)
        rows.append(entries)
    return rows


def per_entry_labeled_points(value, path, kind):
    points = []
    for k, entry in enumerate(_expect_list(value, path)):
        at = f"{path}[{k}]"
        entry = _expect_dict(entry, at)
        label = _string(_get(entry, "id", at), f"{at}.id")
        x, y = _number(_get(entry, "x", at), f"{at}.x"), _number(_get(entry, "y", at), f"{at}.y")
        points.append(kind(label, Point(x, y)))
    return tuple(points)


def per_entry_check_labeled(items, path, kind, out, box=None):
    seen = set()
    for k, item in enumerate(items):
        at = f"{path}[{k}]"
        if item.id in seen:
            out.append(Violation(at + ".id", f"duplicate {kind} id {item.id!r}"))
        seen.add(item.id)
        at += ".position"
        values = (item.position.x, item.position.y)
        for axis, value in zip("xy", values):
            if not _finite(value):
                out.append(Violation(f"{at}.{axis}", f"must be a finite number, got {value!r}"))
        if box is not None and all(map(_finite, values)):
            for axis, value, bound in zip("xy", values, box):
                if not 0 <= value <= bound:
                    message = f"outside region box [0, {bound!r}], got {value!r}"
                    out.append(Violation(f"{at}.{axis}", message))


# Entries that load, some of which validate flags, and entries that do not load.
ODD_NUMBERS = (math.nan, math.inf, -math.inf, -1.5, -1e-300, -0.0, 0, 7, 2**63 + 1)
ODD_ENTRIES = (True, False, "1", None, 10**400, [1.0])


@st.composite
def mutations(draw):
    """One to three edits, each given as (row pick, entry pick, edit)."""
    edit = st.one_of(
        st.sampled_from(ODD_NUMBERS),
        st.sampled_from(ODD_ENTRIES),
        st.sampled_from(["short", "long", "not a row"]),
    )
    return draw(
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), edit), min_size=1, max_size=3)
    )


def mutate(rows, edits):
    for row_pick, entry_pick, edit in edits:
        r = row_pick % len(rows)
        if edit == "not a row":
            rows[r] = {"0": 1.0}
        elif not isinstance(rows[r], list) or not rows[r]:
            continue
        elif edit == "short":
            rows[r].pop()
        elif edit == "long":
            rows[r].append(1.0)
        else:
            rows[r][entry_pick % len(rows[r])] = edit


def loaded(call):
    """repr of the result, or the error text."""
    try:
        return repr(call())
    except (ScenarioFormatError, TensorFormatError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), edits=mutations(), which=st.sampled_from(["loss", "damage_weight"]))
def test_scenario_rows_equal_per_entry_walk(scenario, edits, which):
    doc = scenario_to_dict(scenario)
    player = doc["players"][edits[0][0] % len(doc["players"])]
    mutate(player[which], edits)
    with mock.patch.object(scenario_module, "_matrix", per_entry_matrix):
        expected = loaded(lambda: scenario_from_dict(doc))
    assert loaded(lambda: scenario_from_dict(doc)) == expected
    if expected.startswith("ScenarioFormatError"):
        return
    built = scenario_from_dict(doc)
    with mock.patch.object(scenario_module, "_check_matrix", per_entry_check_matrix):
        expected_violations = validate(built)
    assert validate(built) == expected_violations


# Edits of an object or a site: values that load, some of which validate
# flags (a copy of another entry's id, a point far outside any region box,
# two coordinates whose sum overflows), values that do not load, a key
# dropped and an entry that is not an object.
POINT_EDITS = (
    [("id", value) for value in ("copied id", "A1", "P1S1", "\ud800", 7, None)]
    + [
        (axis, value)
        for axis in "xy"
        for value in ODD_NUMBERS + (1e6, 1.5e308, True, "1", None, 10**400)
    ]
    + [("drop", key) for key in ("id", "x", "y")]
    + [("entry", value) for value in (None, [1.0, 2.0], "A1", 0.0)]
)


@st.composite
def point_mutations(draw):
    """One to three edits of object or site lists, each given as (list pick,
    entry pick, other entry pick, edit)."""
    picks = st.integers(0, 10**6)
    edits = st.tuples(picks, picks, picks, st.sampled_from(POINT_EDITS))
    return draw(st.lists(edits, min_size=1, max_size=3))


def mutate_points(lists, edits):
    for list_pick, entry_pick, other_pick, (key, value) in edits:
        points = lists[list_pick % len(lists)]
        k = entry_pick % len(points)
        other = points[other_pick % len(points)]
        if key == "entry":
            points[k] = value
        elif not isinstance(points[k], dict):
            continue
        elif key == "drop":
            points[k].pop(value, None)
        elif value == "copied id":
            points[k][key] = other.get("id") if isinstance(other, dict) else value
        else:
            points[k][key] = value


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), edits=point_mutations())
def test_scenario_points_equal_per_entry_walk(scenario, edits):
    doc = scenario_to_dict(scenario)
    mutate_points([doc["objects"]] + [player["sites"] for player in doc["players"]], edits)
    with mock.patch.object(scenario_module, "_labeled_points", per_entry_labeled_points):
        expected = loaded(lambda: scenario_from_dict(doc))
    assert loaded(lambda: scenario_from_dict(doc)) == expected
    if expected.startswith("ScenarioFormatError"):
        return
    built = scenario_from_dict(doc)
    with mock.patch.object(scenario_module, "_check_labeled", per_entry_check_labeled):
        expected_violations = validate(built)
    assert validate(built) == expected_violations


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), edits=point_mutations())
def test_validate_points_of_a_built_scenario_equal_per_item_walk(scenario, edits):
    # Built through the library, which checks nothing: ids and coordinates
    # may be of any type, an int too large for a float included.
    lists = [list(scenario.objects)] + [list(player.sites) for player in scenario.players]
    for list_pick, entry_pick, other_pick, (key, value) in edits:
        items = lists[list_pick % len(lists)]
        k = entry_pick % len(items)
        if key == "id":
            label = items[other_pick % len(items)].id if value == "copied id" else value
            items[k] = dataclasses.replace(items[k], id=label)
        elif key in ("x", "y"):
            position = dataclasses.replace(items[k].position, **{key: value})
            items[k] = dataclasses.replace(items[k], position=position)
    players = [dataclasses.replace(p, sites=sites) for p, sites in zip(scenario.players, lists[1:])]
    built = dataclasses.replace(scenario, objects=lists[0], players=players)
    with mock.patch.object(scenario_module, "_check_labeled", per_entry_check_labeled):
        expected = validate(built)
    assert validate(built) == expected


@settings(max_examples=150, deadline=None)
@given(edits=mutations())
def test_tensor_rows_equal_per_entry_walk(edits):
    doc = tensor_to_dict(fixture_tensor())
    mutate(doc["payoffs"], edits)
    try:
        expected = np.array(per_entry_payoff_rows(doc["payoffs"], len(doc["shape"])), dtype=float)
    except TensorFormatError as exc:
        with pytest.raises(TensorFormatError) as excinfo:
            tensor_from_dict(doc)
        assert str(excinfo.value) == str(exc)
    else:
        assert bits(tensor_from_dict(doc).values) == bits(expected)
