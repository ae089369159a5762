import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from sitegame import (
    CandidateSite,
    NaturalObject,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    ScenarioFormatError,
    Violation,
    ZeroDistanceError,
    build_tensor,
    check_scenario,
    dumps_scenario,
    load_scenario,
    payoff,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from conftest import scenarios


def test_fixture_scenario_is_valid(scenario):
    assert validate(scenario) == []


def test_negative_loss_entry_is_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["loss"][2][1] = -1
    violations = validate(scenario_from_dict(doc))
    assert len(violations) == 1
    assert violations[0].path == "players[0].loss[2][1]"


def test_object_outside_region_box(scenario):
    doc = scenario_to_dict(scenario)
    doc["objects"][0]["x"] = doc["region"]["x_max"] + 1
    violations = validate(scenario_from_dict(doc))
    assert len(violations) == 1
    assert violations[0].path == "objects[0].position.x"


def test_negative_emission_is_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][1]["emission"] = -3
    violations = validate(scenario_from_dict(doc))
    assert [v.path for v in violations] == ["players[1].emission"]


def test_rho_band_ordering_is_flagged():
    region = RegionConfig(x_max=10, y_max=10, rho_min=5, rho_max=1)
    bad = Scenario(
        region=region,
        objects=(NaturalObject("A1", Point(1, 1)),),
        players=(PlayerSpec("P1", 0, (CandidateSite("S1", Point(2, 2)),), ((0,),), ((0,),)),),
    )
    assert [v.path for v in validate(bad)] == ["region.rho_max"]


def test_nonpositive_rho_min_is_flagged():
    region = RegionConfig(x_max=10, y_max=10, rho_min=0, rho_max=1)
    bad = Scenario(
        region=region,
        objects=(NaturalObject("A1", Point(1, 1)),),
        players=(PlayerSpec("P1", 0, (CandidateSite("S1", Point(2, 2)),), ((0,),), ((0,),)),),
    )
    assert [v.path for v in validate(bad)] == ["region.rho_min"]


def test_duplicate_object_ids_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["objects"][1]["id"] = doc["objects"][0]["id"]
    violations = validate(scenario_from_dict(doc))
    assert [v.path for v in violations] == ["objects[1].id"]


def test_duplicate_site_ids_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][2]["sites"][1]["id"] = doc["players"][2]["sites"][0]["id"]
    violations = validate(scenario_from_dict(doc))
    assert [v.path for v in violations] == ["players[2].sites[1].id"]


def test_duplicate_player_ids_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][2]["id"] = doc["players"][0]["id"]
    violations = validate(scenario_from_dict(doc))
    assert [str(v) for v in violations] == ["players[2].id: duplicate player id 'P1'"]


def test_from_dict_reads_numpy_floats_as_their_plain_values(scenario):
    # np.float64 is a float subclass: such coefficient rows miss the
    # whole-row paths and are read entry by entry, to plain floats.
    doc = scenario_to_dict(scenario)
    numpy_doc = json.loads(json.dumps(doc))
    for player in numpy_doc["players"]:
        for name in ("loss", "damage_weight"):
            player[name] = [[np.float64(v) for v in row] for row in player[name]]
    numpy_doc["players"][0]["loss"][1][2] = doc["players"][0]["loss"][1][2] = 5  # an int among them
    read = scenario_from_dict(numpy_doc)
    assert read == scenario_from_dict(doc)
    rows = [row for player in read.players for row in (*player.loss, *player.damage_weight)]
    assert {type(v) for row in rows for v in row} == {float}


def test_matrix_row_count_mismatch(scenario):
    doc = scenario_to_dict(scenario)
    del doc["players"][0]["loss"][1]
    violations = validate(scenario_from_dict(doc))
    assert violations and violations[0].path == "players[0].loss"


def test_matrix_column_count_mismatch(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["damage_weight"][1] = [1.0, 2.0]
    violations = validate(scenario_from_dict(doc))
    assert [v.path for v in violations] == ["players[0].damage_weight[1]"]


def test_nonfinite_coordinate_flagged(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["sites"][0]["y"] = float("nan")
    violations = validate(scenario_from_dict(doc))
    assert [v.path for v in violations] == ["players[0].sites[0].position.y"]


HUGE = 10**400  # an int too large for a float


def _with_huge_int(scenario, field):
    """``scenario`` with HUGE in ``field``, built through the library, which
    checks nothing; scenario_from_dict rejects such an int first."""
    region, objects, players = scenario.region, list(scenario.objects), list(scenario.players)
    player = players[0]
    if field in ("x_max", "rho_min", "rho_max", "pi_value"):
        region = dataclasses.replace(region, **{field: HUGE})
    elif field == "emission":
        players[0] = dataclasses.replace(player, emission=HUGE)
    elif field == "object":
        objects[0] = dataclasses.replace(objects[0], position=Point(HUGE, objects[0].position.y))
    elif field == "site":
        site = player.sites[1]
        sites = (player.sites[0], dataclasses.replace(site, position=Point(site.position.x, HUGE)))
        players[0] = dataclasses.replace(player, sites=sites + player.sites[2:])
    else:
        loss = ((player.loss[0][0], HUGE) + player.loss[0][2:],) + player.loss[1:]
        players[0] = dataclasses.replace(player, loss=loss)
    return dataclasses.replace(scenario, region=region, objects=objects, players=players)


# The violation each field holding HUGE gets, by field.
HUGE_INT_VIOLATIONS = {
    "x_max": ("region.x_max", "must be > 0, got {}"),
    "rho_min": ("region.rho_min", "must be > 0, got {}"),
    "rho_max": ("region.rho_max", "must be >= rho_min (0.5), got {}"),
    "pi_value": ("region.pi_value", "must be > 0, got {}"),
    "emission": ("players[0].emission", "must be a finite number >= 0, got {}"),
    "object": ("objects[0].position.x", "must be a finite number, got {}"),
    "site": ("players[0].sites[1].position.y", "must be a finite number, got {}"),
    "loss": ("players[0].loss[0][1]", "must be a finite number >= 0, got {}"),
}


@pytest.mark.parametrize("field", list(HUGE_INT_VIOLATIONS))
def test_validate_flags_an_int_too_large_for_a_float(scenario, field):
    # math.isfinite raised OverflowError for it, out of validate.
    path, message = HUGE_INT_VIOLATIONS[field]
    assert validate(_with_huge_int(scenario, field)) == [Violation(path, message.format(HUGE))]


def test_empty_scenario_counts():
    empty = Scenario(
        region=RegionConfig(x_max=1, y_max=1, rho_min=0.1, rho_max=1),
        objects=(),
        players=(),
    )
    paths = {v.path for v in validate(empty)}
    assert paths == {"objects", "players"}


def test_validate_is_idempotent(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["loss"][0][0] = -2
    broken = scenario_from_dict(doc)
    assert validate(broken) == validate(broken)


def test_violation_str_mentions_path(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["loss"][0][0] = -2
    violation = validate(scenario_from_dict(doc))[0]
    assert str(violation).startswith("players[0].loss[0][0]: ")


def test_json_round_trip(scenario):
    doc = scenario_to_dict(scenario)
    again = scenario_to_dict(scenario_from_dict(doc))
    assert doc == again
    assert dumps_scenario(scenario) == dumps_scenario(scenario_from_dict(doc))


def test_pi_defaults_to_math_pi(scenario):
    doc = scenario_to_dict(scenario)
    del doc["region"]["pi"]
    assert scenario_from_dict(doc).region.pi_value == math.pi


def test_missing_key_raises_with_path(scenario):
    doc = scenario_to_dict(scenario)
    del doc["players"][1]["emission"]
    with pytest.raises(ScenarioFormatError, match=r"players\[1\]"):
        scenario_from_dict(doc)


def test_wrong_type_raises_with_path(scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["loss"][0][2] = "ten"
    with pytest.raises(ScenarioFormatError, match=r"players\[0\]\.loss\[0\]\[2\]"):
        scenario_from_dict(doc)


def test_unknown_keys_ignored(scenario):
    doc = scenario_to_dict(scenario)
    doc["comment"] = "extra"
    doc["players"][0]["nickname"] = "north"
    assert validate(scenario_from_dict(doc)) == []


def test_load_scenario_names_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"region": \n  oops}', encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="line 2"):
        load_scenario(path)


@pytest.mark.parametrize(
    "case, error, match",
    [
        ("bom", ScenarioFormatError, "line 1, column 1: Unexpected UTF-8 BOM"),
        ("non-utf8", UnicodeDecodeError, "can't decode byte 0xe9"),
        ("missing", FileNotFoundError, "No such file"),
    ],
)
def test_load_scenario_unreadable_file(tmp_path, scenario, case, error, match):
    text = dumps_scenario(scenario).encode()
    path = tmp_path / "scenario.json"
    if case == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + text)
    elif case == "non-utf8":
        path.write_bytes(text.replace(b'"P1"', b'"P\xe91"', 1))
    with pytest.raises(error, match=match):
        load_scenario(path)


def test_scenario_module_keeps_the_names_of_the_document_reader():
    import sitegame.document
    import sitegame.scenario

    for name in ("ScenarioFormatError", "read_json", "checked_index", "NOT_UTF8", "encodes_as_utf8", "_expect_dict", "_get"):
        assert getattr(sitegame.scenario, name) is getattr(sitegame.document, name), name


def test_load_scenario_round_trip(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(scenario), encoding="utf-8")
    assert scenario_to_dict(load_scenario(path)) == scenario_to_dict(scenario)


@settings(max_examples=60)
@given(scenario=scenarios())
def test_generated_scenarios_validate_clean(scenario):
    assert validate(scenario) == []


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios())
def test_valid_scenarios_feed_all_modules(scenario):
    # No shape-related failures downstream of a clean validate(); landing a
    # site exactly on an object is a legitimate domain error, not a shape one.
    assert validate(scenario) == []
    reports = check_scenario(scenario)
    assert len(reports) == sum(len(p.sites) for p in scenario.players)
    try:
        tensor = build_tensor(scenario)
    except ZeroDistanceError:
        return
    assert tensor.shape == tuple(len(p.sites) for p in scenario.players)
    for p, player in enumerate(scenario.players):
        for k, site in enumerate(player.sites):
            payoff(p, site.position, scenario, site_index=k)


def test_load_scenario_oversized_integer_literal(tmp_path, scenario):
    doc = scenario_to_dict(scenario)
    doc["players"][1]["loss"][0][2] = "BIG"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 5000), encoding="utf-8")
    with pytest.raises(ScenarioFormatError) as raised:
        load_scenario(path)
    assert str(raised.value).startswith(f"{path}: ") and "5001 digits" in str(raised.value)


def test_load_scenario_nested_too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ScenarioFormatError) as raised:
        load_scenario(path)
    assert str(raised.value).startswith(f"{path}: ") and "recursion" in str(raised.value)
