"""Scenario documents that each fail one whole-list check of an object,
site or player list, in the document reader or in ``validate``, with what
the library says of each.

A failed whole-list check only sends the list to the walk item by item, which
names the fault, if there is one. So each case's ``validate`` and ``solve``
output is what the library gives: the text of the ScenarioFormatError, the
violations of ``validate`` spelled by ``str``, or, for a valid scenario, the
``valid:`` line and the report's text.

``python tests/whole_list_cases.py DIR`` writes ``DIR/<case>.json`` and, for
each command, ``DIR/expected/<case>.<command>.{code,out,err}``: the exit
code, stdout and stderr that the command must give.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import seeded_scenario  # noqa: E402
from sitegame import (  # noqa: E402
    ScenarioFormatError,
    build_tensor,
    check_scenario,
    scenario_from_dict,
    scenario_to_dict,
    solve,
    validate,
)


def _edit(case):
    """The scenario document of ``case``: 3 players of 5 sites, 40 objects in
    a 100 x 100 box, with one list edited."""
    doc = scenario_to_dict(seeded_scenario(players=3, sites=5, objects=40, seed=7))
    objects = doc["objects"]
    sites = [player["sites"] for player in doc["players"]]
    if case == "duplicate_object_id":
        objects[3]["id"] = objects[1]["id"]
    elif case == "duplicate_site_id":
        sites[1][4]["id"] = sites[1][0]["id"]
    elif case == "duplicate_player_id":
        doc["players"][2]["id"] = doc["players"][0]["id"]
    elif case == "nan_coordinate":
        objects[2]["x"] = math.nan
    elif case == "inf_coordinate":
        sites[2][1]["y"] = math.inf
    elif case == "object_outside_box":
        objects[5]["x"] = -1.0
        objects[6]["y"] = 250.0
    elif case == "int_coordinate":
        objects[0]["x"] = 5
    elif case == "overflowing_sum":
        sites[0][0]["x"] = sites[0][1]["x"] = 1.5e308
    elif case == "bool_coordinate":
        objects[1]["y"] = True
    elif case == "lone_surrogate_id":
        sites[0][2]["id"] = "\ud800"
    elif case == "not_an_object":
        objects[4] = [1.0, 2.0]
    elif case == "missing_key":
        del sites[1][3]["x"]
    return doc


CASES = (
    "duplicate_object_id",
    "duplicate_site_id",
    "duplicate_player_id",
    "nan_coordinate",
    "inf_coordinate",
    "object_outside_box",
    "int_coordinate",
    "overflowing_sum",
    "bool_coordinate",
    "lone_surrogate_id",
    "not_an_object",
    "missing_key",
)


def document(case):
    """The case's document as JSON text (NaN and Infinity spelled as Python's
    json module reads them)."""
    return json.dumps(_edit(case), indent=2) + "\n"


def expected(case, command):
    """``(exit code, stdout, stderr)`` of ``sitegame <command>`` on the case,
    from library calls."""
    try:
        scenario = scenario_from_dict(json.loads(document(case)))
    except ScenarioFormatError as exc:
        return 2, "", f"error: {exc}\n"
    lines = "".join(f"{violation}\n" for violation in validate(scenario))
    if lines:
        return (1, lines, "") if command == "validate" else (1, "", lines)
    if command == "validate":
        sites = sum(len(player.sites) for player in scenario.players)
        counts = f"{scenario.n_players} players, {scenario.n_objects} objects, {sites} candidate sites"
        return 0, f"valid: {counts}\n", ""
    report = solve(build_tensor(scenario), feasibility=tuple(check_scenario(scenario)))
    return 0, report.to_text() + "\n", ""


def main(directory):
    root = Path(directory)
    (root / "expected").mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (root / f"{case}.json").write_text(document(case), encoding="utf-8")
        for command in ("validate", "solve"):
            code, out, err = expected(case, command)
            for suffix, text in (("code", f"{code}\n"), ("out", out), ("err", err)):
                (root / "expected" / f"{case}.{command}.{suffix}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
