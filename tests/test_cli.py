import contextlib
import copy
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sitegame import (
    FormatError,
    Point,
    ScenarioFormatError,
    TensorFormatError,
    dumps_scenario,
    dumps_tensor,
    fixture_scenario,
    fixture_tensor,
    load_scenario,
    load_tensor,
    scenario_to_dict,
    tensor_to_dict,
    validate,
)
from sitegame.cli import main
from sitegame.payoff import PayoffTerms
from sitegame.tensor import PROFILE_BYTES
from conftest import (
    OVERFLOW_TENSOR,
    CountingSink,
    address_space_grows_at_most,
    assert_same_text,
    far_apart_scenario,
    random_tensor,
    seeded_scenario,
    twelve_player_scenario,
)
from oracles import oracle_compromise, oracle_nash, profile_payoffs
from whole_list_cases import CASES, document, expected

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fixture_files(tmp_path):
    from sitegame import write_fixtures

    scenario_path, tensor_path = write_fixtures(tmp_path)
    return scenario_path, tensor_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------

def test_validate_fixture_ok(fixture_files, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "validate", str(scenario_path))
    assert code == 0
    assert "valid" in out
    assert err == ""


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", CASES)
def test_whole_list_cases_give_what_the_library_gives(tmp_path, capsys, case, command):
    # Each document fails one whole-list check of an object or site list;
    # CI runs the same cases through the installed script.
    path = tmp_path / f"{case}.json"
    path.write_text(document(case), encoding="utf-8")
    assert run_cli(capsys, command, str(path)) == expected(case, command)


def test_validate_lists_violations_one_per_line(tmp_path, scenario, capsys):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["emission"] = -5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("players[0].emission:")


def test_validate_player_without_sites_exit1(tmp_path, scenario, capsys):
    # validate used to pass it, and tensor and solve then exited 1.
    doc = scenario_to_dict(scenario)
    doc["players"][1].update(sites=[], loss=[], damage_weight=[])
    path = tmp_path / "siteless.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    line = "players[1].sites: at least one candidate site is required\n"
    assert run_cli(capsys, "validate", str(path)) == (1, line, "")
    assert run_cli(capsys, "solve", str(path)) == (1, "", line)


def _break_fields(doc):
    # The region's rho_max and box rules need a valid rho_min and box, so
    # they fire on the other document.
    doc["region"].update(x_max=0.0, y_max=-1.0, rho_min=math.nan, pi=-3.0)
    doc["objects"][2]["id"] = "A1"
    doc["objects"][3]["x"] = math.inf
    p1, p2, p3 = doc["players"]
    p1["sites"][1]["y"] = math.nan
    p1["loss"].pop()
    p1["damage_weight"][1].pop()
    p2["sites"][3]["id"] = "C2"
    p2["loss"][0][1] = -1.0
    p2["loss"][2][3] = math.nan
    p2["damage_weight"][1][0] = -0.5
    p2["damage_weight"][3][4] = math.nan
    p3["emission"] = -35.0


def _break_box(doc):
    doc["region"]["rho_max"] = 0.25
    doc["objects"][0]["x"] = 16.0
    doc["objects"][4]["y"] = -1.0
    # Not finite, so neither coordinate is placed in the box.
    doc["objects"][1].update(x=20.0, y=math.nan)


@pytest.mark.parametrize(
    "broken, golden",
    [(_break_fields, "validate_broken_fields.txt"), (_break_box, "validate_broken_box.txt")],
)
def test_validate_violations_match_golden(tmp_path, scenario, capsys, broken, golden):
    # Between them the two documents break every rule of validate.
    doc = scenario_to_dict(scenario)
    broken(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    assert_same_text(out, (GOLDEN / golden).read_text(encoding="utf-8"))


def test_validate_malformed_document_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


def test_validate_missing_file_exit2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


# --- tensor ------------------------------------------------------------------

def test_tensor_builds_fixture_scenario(fixture_files, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "tensor", str(scenario_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [3, 4, 2]
    assert doc["players"] == ["P1", "P2", "P3"]
    # player 1's payoff at first-site profiles is constant along axes 2 and 3
    values = np.array(doc["payoffs"]).reshape(3, 4, 2, 3)
    first_site_slice = values[0, :, :, 0]
    assert np.all(first_site_slice == first_site_slice[0, 0])
    assert abs(first_site_slice[0, 0] - 2.614) < 1e-3


def test_tensor_explain_appends_breakdowns(fixture_files, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "tensor", str(scenario_path), "--explain")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["explain"]) == 24
    first = doc["explain"][0]
    assert first["indices"] == [0, 0, 0]
    assert first["labels"] == ["B1", "C1", "D1"]
    assert len(first["players"]) == 3
    entry = first["players"][0]
    assert entry["player"] == "P1"
    assert entry["site"] == "B1"
    assert len(entry["income"]) == 5
    assert len(entry["damage"]) == 5
    assert entry["total"] == pytest.approx(sum(entry["income"]) - sum(entry["damage"]))


@pytest.mark.parametrize("extra", [[], ["--explain"]])
def test_tensor_output_is_json_dumps_of_document(fixture_files, capsys, extra):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "tensor", str(scenario_path), *extra)
    assert code == 0
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")


def test_tensor_explain_matches_golden(fixture_files, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "tensor", str(scenario_path), "--explain")
    assert (code, err) == (0, "")
    assert_same_text(out, (GOLDEN / "tensor_fixture_explain.json").read_text(encoding="utf-8"))


def test_tensor_explain_allocates_little_beyond_its_output(tmp_path):
    # 1,296 profiles and 8.3 MB of output. Encoding one dict per profile and
    # splicing the listing into the payoffs document peaked at 4.1 times the
    # output's length, and rendering the whole document before writing it at
    # 1.15 times.
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(seeded_scenario(players=4, sites=6, objects=20)), encoding="utf-8")
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["tensor", str(path), "--explain"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 8_000_000
    assert peak < sink.written / 2


@pytest.mark.parametrize("argv", [["tensor", "--explain"], ["tensor"], ["solve"]], ids=" ".join)
def test_each_command_runs_each_players_kernel_once(fixture_files, capsys, monkeypatch, argv):
    # `tensor --explain` ran every player's kernel twice: once to build the
    # tensor and once to spell its breakdowns.
    built = []
    init = PayoffTerms.__init__

    def counting_init(self, scenario, player_index, *args):
        init(self, scenario, player_index, *args)
        built.append(player_index)

    monkeypatch.setattr(PayoffTerms, "__init__", counting_init)
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, argv[0], str(scenario_path), *argv[1:])
    assert (code, err) == (0, "")
    assert built == [0, 1, 2]


def test_tensor_hands_its_kernels_to_the_explain_listing_alone(fixture_files, monkeypatch):
    # Every player's kernel alive at once raised the peak RSS of `tensor` on
    # a 3 x 40 x 1500 scenario by 2 MiB; with --explain, none may be alive
    # once the document is written.
    tensor_module = importlib.import_module("sitegame.tensor")
    cli_module = importlib.import_module("sitegame.cli")
    handed, alive = [], []
    document, write = tensor_module.tensor_document, cli_module._write

    def recording_document(tensor, explain=None):
        handed.append(None if explain is None else [terms.player.id for terms in explain])
        if explain is not None:
            alive.extend(map(weakref.ref, explain))
        return document(tensor, explain)

    def checked_write(pieces):
        assert all(kernel() is None for kernel in alive)
        write(pieces)

    monkeypatch.setattr(tensor_module, "tensor_document", recording_document)
    monkeypatch.setattr(cli_module, "_write", checked_write)
    scenario_path, _ = fixture_files
    with contextlib.redirect_stdout(CountingSink()):
        assert main(["tensor", str(scenario_path)]) == 0
        assert main(["tensor", str(scenario_path), "--explain"]) == 0
    assert handed == [None, ["P1", "P2", "P3"]]
    assert len(alive) == 3


@pytest.mark.parametrize("argv", [[], ["--pairwise-band"]], ids=["solve", "pairwise"])
def test_solve_frees_its_kernels_and_scenario_before_solving(fixture_files, monkeypatch, argv):
    # `solve` held every player's kernel and the scenario through solving
    # and rendering, though only the site checks and the pairwise codes
    # read them.
    report_module = importlib.import_module("sitegame.report")
    scenario_module = importlib.import_module("sitegame.scenario")
    init, from_dict = PayoffTerms.__init__, scenario_module.scenario_from_dict
    solve = report_module.solve
    made, alive = [], []

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def recording_from_dict(doc):
        scenario = from_dict(doc)
        made.append(weakref.ref(scenario))
        return scenario

    def checked_solve(*args, **kwargs):
        alive.extend(ref for ref in made if ref() is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(PayoffTerms, "__init__", recording_init)
    monkeypatch.setattr(scenario_module, "scenario_from_dict", recording_from_dict)
    monkeypatch.setattr(report_module, "solve", checked_solve)
    scenario_path, _ = fixture_files
    with contextlib.redirect_stdout(CountingSink()):
        assert main(["solve", str(scenario_path), *argv]) == 0
    assert len(made) == 4  # a kernel per player, and the scenario
    assert alive == []


def test_tensor_of_a_scenario_never_holds_a_dense_tensor(tmp_path):
    # 8**6 = 262,144 profiles of 6 players: their dense tensor takes 12 MiB.
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(seeded_scenario(players=6, sites=8, objects=2)), encoding="utf-8")
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["tensor", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 30_000_000
    assert peak < 8**6 * 6 * 8 / 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tensor"],
        ["solve"],
        ["solve", "--format", "json"],
        ["solve", "--nash"],
        ["solve", "--pairwise-band"],
        ["solve", "--pairwise-band", "--format", "json"],
    ],
    ids=" ".join,
)
def test_memory_guard_counts_what_commands_hold(tmp_path, argv):
    # build_tensor refuses a game whose PROFILE_BYTES per profile exceed
    # physical memory; no command may then hold more than that per profile.
    scenario = seeded_scenario(players=6, sites=8, objects=20)
    if "--pairwise-band" in argv:
        # 23 of the site pairs are closer than this, and 31% of the profiles
        # hold one of them.
        scenario = dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_min=8.0))
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(scenario), encoding="utf-8")
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main([*argv, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 0
    assert peak <= 8**6 * PROFILE_BYTES + 2**20


class RecordingRaw(io.RawIOBase):
    """A raw binary stream that keeps each write it receives."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize(
    "argv",
    [["tensor", "{scenario}", "--explain"], ["solve", "{scenario}", "--format", "json"], ["solve", "{scenario}"]],
    ids=["tensor", "solve-json", "solve-text"],
)
def test_output_reaches_the_raw_stream_in_slices(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(seeded_scenario(players=4, sites=5, objects=3)), encoding="utf-8")
    argv = [str(path) if arg == "{scenario}" else arg for arg in argv]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0

    # Above the 8 KiB in which the text and buffered layers gather small writes.
    budget = 12_288
    assert len(expected) > 2 * budget
    monkeypatch.setattr(importlib.import_module("sitegame.tensor"), "BLOCK_CHARS", budget)
    raw = RecordingRaw()
    stream = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == 0
    stream.flush()
    assert max(map(len, raw.writes)) <= budget
    assert b"".join(raw.writes) == expected.encode("utf-8")


def test_tensor_single_site_scenario(tmp_path, capsys):
    doc = {
        "region": {"x_max": 10, "y_max": 10, "rho_min": 0.5, "rho_max": 100, "pi": 3.0},
        "objects": [{"id": "A1", "x": 3, "y": 4}],
        "players": [
            {
                "id": "P1",
                "emission": 0,
                "sites": [{"id": "S1", "x": 3, "y": 5}],
                "loss": [[1]],
                "damage_weight": [[0]],
            }
        ],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "tensor", str(path))
    assert code == 0
    assert json.loads(out)["payoffs"] == [[1.0]]


def test_tensor_site_on_object_exit1(tmp_path, scenario, capsys):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["sites"][0]["x"] = 2.0
    doc["players"][0]["sites"][0]["y"] = 3.0  # exactly object A1
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "tensor", str(path))
    assert code == 1
    assert "P1" in err and "B1" in err and "A1" in err


def test_tensor_invalid_scenario_exit1(tmp_path, scenario, capsys):
    doc = scenario_to_dict(scenario)
    doc["players"][0]["loss"][0][0] = -1
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "tensor", str(path))
    assert code == 1
    assert "players[0].loss[0][0]" in err


# --- solve -------------------------------------------------------------------

def test_solve_fixture_tensor_json(fixture_files, capsys):
    _, tensor_path = fixture_files
    code, out, err = run_cli(capsys, "solve", str(tensor_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tensor"]["provenance"] == "loaded-from-file"
    assert [e["indices"] for e in doc["nash"]["equilibria"]] == [[0, 3, 1]]
    assert doc["nash"]["equilibria"][0]["payoffs"] == [4.600, 6.946, 4.537]
    assert doc["nash"]["equilibria"][0]["labels"] == ["B1", "C4", "D2"]
    assert doc["compromise"]["ideal"] == [6.564, 7.845, 4.537]
    assert doc["compromise"]["min_residual"] == pytest.approx(1.964, abs=1e-9)
    assert [m["indices"] for m in doc["compromise"]["minimizers"]] == [[0, 3, 1]]
    assert len(doc["residuals"]) == 24
    assert "feasibility" not in doc


def test_solve_fixture_scenario_builds_and_reports_feasibility(fixture_files, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(capsys, "solve", str(scenario_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tensor"]["provenance"] == "computed-from-equation"
    assert len(doc["feasibility"]["sites"]) == 9
    assert all(site["feasible"] for site in doc["feasibility"]["sites"])
    assert [e["indices"] for e in doc["nash"]["equilibria"]] == [[2, 0, 1]]


def test_solve_single_cell_tensor(tmp_path, capsys):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"shape": [1], "payoffs": [[2.0]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [e["indices"] for e in doc["nash"]["equilibria"]] == [[0]]
    assert [m["indices"] for m in doc["compromise"]["minimizers"]] == [[0]]
    assert doc["compromise"]["min_residual"] == 0.0


def test_solve_random_tensor_matches_oracles(tmp_path, capsys):
    t = random_tensor(np.random.default_rng(20240817), max_players=3, max_strategies=3)
    path = tmp_path / "random.json"
    path.write_text(dumps_tensor(t), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    payoffs = profile_payoffs(t)
    assert [tuple(e["indices"]) for e in doc["nash"]["equilibria"]] == oracle_nash(
        t.shape, payoffs, 1e-9
    )
    _, _, minimizers, min_residual = oracle_compromise(t.shape, payoffs, 1e-9)
    assert [tuple(m["indices"]) for m in doc["compromise"]["minimizers"]] == minimizers
    assert doc["compromise"]["min_residual"] == min_residual


def test_solve_nash_only(fixture_files, capsys):
    _, tensor_path = fixture_files
    code, out, err = run_cli(capsys, "solve", str(tensor_path), "--nash", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "nash" in doc
    assert "compromise" not in doc
    assert "residuals" not in doc


def test_solve_compromise_only(fixture_files, capsys):
    _, tensor_path = fixture_files
    code, out, err = run_cli(
        capsys, "solve", str(tensor_path), "--compromise", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert "nash" not in doc
    assert "compromise" in doc
    assert len(doc["residuals"]) == 24


def test_solve_custom_tolerance_reported(fixture_files, capsys):
    _, tensor_path = fixture_files
    code, out, err = run_cli(
        capsys, "solve", str(tensor_path), "--tolerance", "0.5", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 0.5


def test_solve_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"shape": ', encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2


def test_solve_unrecognized_document_exit2(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}', encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "not a scenario or tensor document" in err


def test_solve_shape_only_document_is_a_tensor_exit2(tmp_path, capsys):
    # It used to be read as a scenario: "missing required key 'region'".
    path = tmp_path / "shape.json"
    path.write_text('{"shape": [2], "players": ["a"]}', encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == "error: document: missing required key 'payoffs'\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"shape": 3, "payoffs": []}, "shape: expected a non-empty list of integers"),
        ({"shape": [2], "payoffs": {}}, "payoffs: expected a list of payoff vectors"),
        (
            {"shape": [2], "payoffs": [[1.0], [2.0]], "strategy_labels": [["a", "b"], ["c"]]},
            "strategy_labels: expected 1 label lists",
        ),
    ],
    ids=["shape", "payoffs", "strategy_labels"],
)
def test_solve_malformed_tensor_document_exit2(tmp_path, capsys, doc, message):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _players_past_numpy_limit() -> int:
    """The fewest players whose payoff array, with its axis of players, has
    more dimensions than numpy allows: 64 from numpy 2.0, 32 before."""
    return 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def test_solve_tensor_with_too_many_players_exit2(tmp_path, capsys):
    # 64 players used to end in numpy's ValueError and a traceback.
    limit = _players_past_numpy_limit()
    for n in sorted({64, limit}):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps({"shape": [1] * n, "payoffs": [[0.0] * n]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        _assert_one_line_error(err)
        assert err.startswith(f"error: shape: {n} players ")
    doc = {"shape": [1] * (limit - 1), "payoffs": [[0.0] * (limit - 1)]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["nash"]["equilibria"][0]["indices"] == [0] * (limit - 1)


@pytest.mark.parametrize("command", ["tensor", "solve"])
def test_scenario_with_too_many_players_exit1(tmp_path, scenario, capsys, command):
    # A scenario's tensor keeps one axis per player, and no axis of players:
    # the most players numpy has dimensions for still run, and one more is a
    # domain error naming the player count and numpy's limit.
    limit = _players_past_numpy_limit()
    doc = scenario_to_dict(scenario)
    player = doc["players"][0]
    one_site = {key: player[key][:1] for key in ("sites", "loss", "damage_weight")}
    path = tmp_path / "many.json"
    for n in (limit, limit + 1):
        doc["players"] = [{**player, **one_site, "id": f"P{i}"} for i in range(n)]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(path))
        if n == limit:
            assert (code, err) == (0, "")
            if command == "tensor":
                written = json.loads(out)
                assert written["shape"] == [1] * n
                assert [len(row) for row in written["payoffs"]] == [n]
            else:
                assert "\nnash equilibria (1):\n" in out
                labels, indices = ", ".join(["B1"] * n), ", ".join(["0"] * n)
                assert f"\n  ({labels}) = ({indices}): payoffs (" in out
            continue
        assert (code, out) == (1, "")
        _assert_one_line_error(err)
        assert err.startswith(f"error: {n} players are more than numpy supports: ")
        assert str(limit) in err


def test_solve_scenario_with_violations_exit1(tmp_path, scenario, capsys):
    doc = scenario_to_dict(scenario)
    doc["region"]["rho_min"] = -1
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert "region.rho_min" in err


def test_solve_json_report_round_trips(fixture_files, capsys):
    _, tensor_path = fixture_files
    code, out, err = run_cli(capsys, "solve", str(tensor_path), "--format", "json")
    reparsed = json.loads(out)
    assert_same_text(out, json.dumps(reparsed, indent=2) + "\n")


def test_solve_is_deterministic(fixture_files, capsys):
    _, tensor_path = fixture_files
    first = run_cli(capsys, "solve", str(tensor_path), "--format", "json")
    second = run_cli(capsys, "solve", str(tensor_path), "--format", "json")
    assert first == second
    text_first = run_cli(capsys, "solve", str(tensor_path))
    text_second = run_cli(capsys, "solve", str(tensor_path))
    assert text_first == text_second


def test_text_and_json_report_same_profiles(fixture_files, capsys):
    _, tensor_path = fixture_files
    _, text_out, _ = run_cli(capsys, "solve", str(tensor_path))
    _, json_out, _ = run_cli(capsys, "solve", str(tensor_path), "--format", "json")
    doc = json.loads(json_out)
    for entry in doc["nash"]["equilibria"] + doc["compromise"]["minimizers"]:
        labels = ", ".join(entry["labels"])
        indices = ", ".join(str(i) for i in entry["indices"])
        assert f"({labels}) = ({indices})" in text_out
    assert f"nash equilibria ({doc['nash']['count']})" in text_out
    # six significant digits in text mode
    assert "payoffs (4.6, 6.946, 4.537)" in text_out
    assert "min residual 1.964" in text_out


def test_solve_text_residual_rows_complete(fixture_files, capsys):
    _, tensor_path = fixture_files
    _, out, _ = run_cli(capsys, "solve", str(tensor_path))
    residual_lines = [
        line for line in out.splitlines() if line.startswith("  (B") and "payoffs" not in line
    ]
    assert len(residual_lines) == 24


def test_solve_pairwise_band_flag(fixture_files, tmp_path, scenario, capsys):
    scenario_path, _ = fixture_files
    code, out, err = run_cli(
        capsys, "solve", str(scenario_path), "--pairwise-band", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    # fixture spacing placeholder band (0.5, 100) is satisfied everywhere
    assert doc["feasibility"]["pairwise_spacing"] == []

    tight = scenario_to_dict(scenario)
    tight["region"]["rho_min"] = 3.0  # C3=(5,3) and D2=(6,1) are sqrt(5) apart
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(tight), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), "--pairwise-band", "--format", "json")
    assert code == 0
    entries = json.loads(out)["feasibility"]["pairwise_spacing"]
    assert entries, "expected pairwise violations with the tightened band"
    flattened = {
        (v["site_a"], v["site_b"]) for e in entries for v in e["violations"]
    }
    assert flattened == {("C3", "D2")}
    # C1=(6,4) sits exactly 3 away from D2: the closed bound keeps it feasible


@pytest.mark.parametrize(
    "rho_min, flags, golden",
    [
        (None, (), "solve_fixture_scenario.txt"),
        # rho_min 3 puts C3-D2 (sqrt(5) apart) and three sites below the band
        (3.0, ("--pairwise-band",), "solve_fixture_scenario_pairwise_band.txt"),
    ],
)
def test_solve_text_matches_golden(tmp_path, scenario, capsys, rho_min, flags, golden):
    doc = scenario_to_dict(scenario)
    if rho_min is not None:
        doc["region"]["rho_min"] = rho_min
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), *flags)
    assert (code, err) == (0, "")
    assert_same_text(out, (GOLDEN / golden).read_text(encoding="utf-8"))


def test_solve_fixture_tensor_text_matches_golden(fixture_files, capsys):
    # Every residual of the fixture tensor is distinct.
    _, tensor_path = fixture_files
    code, out, err = run_cli(capsys, "solve", str(tensor_path))
    assert (code, err) == (0, "")
    assert_same_text(out, (GOLDEN / "solve_fixture_tensor.txt").read_text(encoding="utf-8"))


@pytest.mark.parametrize("flags", [(), ("--format", "json"), ("--compromise",)])
def test_solve_residual_overflow_exit1(tmp_path, capsys, flags):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_TENSOR), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        code, out, err = run_cli(capsys, "solve", str(path), *flags)
    assert (code, out) == (1, "")
    assert err == (
        "error: compromise residual overflows to inf at profile [1, 0] "
        "(labels ['b\\n', 'x']): payoffs too far apart for a float\n"
    )


def test_solve_nash_ignores_residual_overflow(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_TENSOR), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = run_cli(capsys, "solve", str(path), "--nash")
        doc = run_cli(capsys, "solve", str(path), "--nash", "--format", "json")
    assert text[0] == doc[0] == 0 and text[2] == doc[2] == ""
    assert "nash equilibria (1):\n  (a, y) = (0, 1): payoffs (1e+308, 1)\n" in text[1]
    assert [e["indices"] for e in json.loads(doc[1])["nash"]["equilibria"]] == [[0, 1]]


def _outside_the_box_scenario():
    """far_apart_scenario with P1S1 at (-1.7e308, 0): its difference in x
    from A1 overflows as well as its distance."""
    scenario = far_apart_scenario()
    player = scenario.players[0]
    site = dataclasses.replace(player.sites[0], position=Point(-1.7e308, 0.0))
    return dataclasses.replace(scenario, players=(dataclasses.replace(player, sites=(site,)),))


@pytest.mark.parametrize("flags", [(), ("--format", "json"), ("--nash",), ("--pairwise-band",)])
@pytest.mark.parametrize("make", [far_apart_scenario, _outside_the_box_scenario])
def test_solve_distance_overflow_exit1(tmp_path, capsys, make, flags):
    # JSON cannot write an inf distance; earlier versions wrote
    # "distance": Infinity, and text `solve` printed "distance inf", with
    # exit 0, after numpy's "overflow encountered in subtract" on stderr
    # for the site outside the box.
    path = tmp_path / "far.json"
    path.write_text(dumps_scenario(make()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "solve", str(path), *flags)
    assert (code, out) == (1, "")
    assert err == "error: distance from player 'P1' site 'P1S1' to natural object 'A1' overflows to inf\n"


@pytest.mark.parametrize("make", [far_apart_scenario, _outside_the_box_scenario])
def test_tensor_writes_no_distance_so_an_overflowing_one_passes(tmp_path, capsys, make):
    path = tmp_path / "far.json"
    path.write_text(dumps_scenario(make()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "tensor", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["payoffs"] == [[0.0]]  # the far object adds 0


def _overflowing_scenario():
    """7 players of 6 sites around one object. P1's sites sit 1.0 east of
    it: P1S1 earns 1e308 and P1S2 to P1S6 each pay about 1e308 in damages, so
    the residual of the 5/6 of profiles where P1 plays one of those overflows."""
    scenario = seeded_scenario(players=7, sites=6, objects=1, seed=7)
    at = scenario.objects[0].position
    p1 = scenario.players[0]
    p1 = dataclasses.replace(
        p1,
        emission=10.0,
        sites=tuple(dataclasses.replace(s, position=Point(at.x + 1.0, at.y)) for s in p1.sites),
        loss=((1e308,), *p1.loss[1:]),
        damage_weight=(p1.damage_weight[0], *[(1e308 / 10 * 2 * math.pi,)] * 5),
    )
    return dataclasses.replace(scenario, players=(p1, *scenario.players[1:]))


def test_residual_overflow_exit_holds_nothing_per_overflowing_profile(tmp_path, capsys):
    # Naming the first overflowing profile by listing the indices of all
    # 233,280 of them peaked at 102.6 bytes a profile.
    path = tmp_path / "overflow.json"
    path.write_text(dumps_scenario(_overflowing_scenario()), encoding="utf-8")
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise
            code = main(["solve", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    labels = ["P1S2", *(f"P{i}S1" for i in range(2, 8))]
    assert (code, out) == (1, "")
    assert err == (
        "error: compromise residual overflows to inf at profile [1, 0, 0, 0, 0, 0, 0] "
        f"(labels {labels!r}): payoffs too far apart for a float\n"
    )
    assert peak < 6**7 * PROFILE_BYTES


# --- fixtures emit and entry points -------------------------------------------

def test_fixtures_emit_writes_loadable_files(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fixtures", "emit", str(tmp_path / "out"))
    assert code == 0
    paths = out.splitlines()
    assert len(paths) == 2
    from sitegame import load_scenario, load_tensor, validate

    scenario = load_scenario(paths[0])
    assert validate(scenario) == []
    tensor = load_tensor(paths[1])
    assert np.array_equal(tensor.values, fixture_tensor().values)


def test_fixtures_emit_into_unusable_directory_exit2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    directory = afile / "sub"
    code, out, err = run_cli(capsys, "fixtures", "emit", str(directory))
    assert code == 2
    assert out == ""
    _assert_one_line_error(err)
    assert err.startswith(f"error: cannot write {directory}: ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "sitegame" in capsys.readouterr().out


def test_negative_tolerance_rejected_by_parser(fixture_files, capsys):
    _, tensor_path = fixture_files
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", str(tensor_path), "--tolerance", "-1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --tolerance: tolerance must be a finite number >= 0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "x"])
def test_nonfinite_tolerance_rejected_by_parser(fixture_files, capsys, value):
    _, tensor_path = fixture_files
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", str(tensor_path), "--tolerance", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --tolerance: tolerance must be a finite number >= 0\n")


def _assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, digits, fragment",
    [
        ("tensor", 401, "payoffs[3][1]"),
        ("scenario", 401, "players[1].loss[0][2]"),
        ("tensor", 5001, "digits"),
    ],
)
def test_oversized_integer_literal_exit2(fixture_files, tmp_path, capsys, kind, digits, fragment):
    scenario_path, tensor_path = fixture_files
    doc = json.loads((scenario_path if kind == "scenario" else tensor_path).read_text())
    if kind == "scenario":
        doc["players"][1]["loss"][0][2] = "BIG"
    else:
        doc["payoffs"][3][1] = "BIG"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * (digits - 1)))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    _assert_one_line_error(err)
    assert fragment in err


@pytest.mark.parametrize("command", ["validate", "tensor", "solve"])
def test_non_utf8_input_exit2(fixture_files, tmp_path, capsys, command):
    scenario_path, _ = fixture_files
    path = tmp_path / "latin1.json"
    path.write_bytes(scenario_path.read_bytes().replace(b'"P1"', b'"P\xe91"', 1))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    _assert_one_line_error(err)
    assert f"cannot read {path}" in err


@pytest.mark.parametrize(
    "argv", [["validate"], ["tensor"], ["solve"], ["solve", "--format", "json"]]
)
def test_lone_surrogate_label_exit2(fixture_files, tmp_path, capsys, argv):
    # JSON's "\ud800" escape parses to a string no output can encode as
    # UTF-8: text output used to end in a UnicodeEncodeError traceback, while
    # validate, tensor and JSON output exited 0.
    scenario_path, _ = fixture_files
    doc = json.loads(scenario_path.read_text())
    doc["players"][0]["id"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    _assert_one_line_error(err)
    assert err.startswith("error: players[0].id: ")


@pytest.mark.parametrize(
    "key, path",
    [(("players", 2), "players[2]"), (("strategy_labels", 1, 2), "strategy_labels[1][2]")],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lone_surrogate_tensor_label_exit2(fixture_files, tmp_path, capsys, key, path, fmt):
    _, tensor_path = fixture_files
    doc = json.loads(tensor_path.read_text())
    parent = doc
    for part in key[:-1]:
        parent = parent[part]
    parent[key[-1]] = "C\udc00"
    doc_path = tmp_path / "surrogate.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(doc_path), "--format", fmt)
    assert code == 2
    assert out == ""
    _assert_one_line_error(err)
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["validate", "tensor", "solve"])
def test_nested_too_deep_exit2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    _assert_one_line_error(err)
    assert f"error: {path}: " in err


# Malformed JSON of either kind, and where its parse fails.
_MALFORMED = {
    "scenario": (b'{"region": {"x_max": 10.0,\n  "y_max" 10.0}}', "line 2, column 11: Expecting ':' delimiter"),
    "tensor": (b'{"shape": [2],\n  "payoffs": [[1.0] [2.0]]}', "line 2, column 21: Expecting ',' delimiter"),
}


# A document of each kind that parses but is not of its kind's form.
_MISFORMED = {
    "scenario": (lambda doc: doc.pop("region"), "document: missing required key 'region'"),
    "tensor": (lambda doc: doc.update(shape=3), "shape: expected a non-empty list of integers"),
}


@pytest.mark.parametrize("case", ["malformed", "bom", "non-utf8", "missing", "schema"])
@pytest.mark.parametrize("kind", ["scenario", "tensor"])
def test_unreadable_document_exit2_with_one_error_line(fixture_files, tmp_path, capsys, kind, case):
    # The reader runs before `solve` tells a tensor from a scenario; a
    # document of either kind that it refuses ends in the same one line, as
    # does one that is not of its kind's form. The library raises each of
    # those as a FormatError of the document's kind, and a file it cannot
    # read as the read's own error, which the CLI spells "cannot read".
    text = fixture_files[kind == "tensor"].read_bytes()
    path = tmp_path / "document.json"
    if case == "schema":
        doc = json.loads(text)
        mutate, message = _MISFORMED[kind]
        mutate(doc)
        content = json.dumps(doc).encode()
    elif case == "malformed":
        content, fault = _MALFORMED[kind]
        message = f"{path}: {fault}"
    elif case == "bom":
        content = b"\xef\xbb\xbf" + text
        message = f"{path}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    elif case == "non-utf8":
        content = text.replace(b'"P1"', b'"P\xe91"', 1)
        position = text.index(b'"P1"') + 2
        message = f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in position {position}: invalid continuation byte"
    else:
        content, message = None, f"cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}"
    if content is not None:
        path.write_bytes(content)
    for command in ["validate", "tensor", "solve"] if kind == "scenario" else ["solve"]:
        assert run_cli(capsys, command, str(path)) == (2, "", f"error: {message}\n")
    unreadable = case in ("non-utf8", "missing")
    load, error = (load_scenario, ScenarioFormatError) if kind == "scenario" else (load_tensor, TensorFormatError)
    with pytest.raises((OSError, UnicodeDecodeError) if unreadable else error) as raised:
        load(path)
    assert isinstance(raised.value, FormatError) != unreadable
    assert issubclass(error, FormatError) and issubclass(FormatError, ValueError)
    assert message == (f"cannot read {path}: {raised.value}" if unreadable else str(raised.value))


def test_scenario_with_oversized_integer_literal_exit2(fixture_files, tmp_path, capsys):
    # The int is refused while the JSON is parsed, as in a tensor document.
    scenario_path, _ = fixture_files
    path = tmp_path / "big.json"
    path.write_text(scenario_path.read_text().replace("15.0", "1" + "0" * 5000, 1))
    for command in ["validate", "tensor", "solve"]:
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        _assert_one_line_error(err)
        assert err.startswith(f"error: {path}: ") and "5001 digits" in err


def test_module_entry_point(fixture_files):
    _, tensor_path = fixture_files
    result = subprocess.run(
        [sys.executable, "-m", "sitegame", "solve", str(tensor_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "(B1, C4, D2)" in result.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("command", ["tensor", "solve"])
def test_tensor_larger_than_memory_exit1(tmp_path, capsys, command):
    path = tmp_path / "twelve.json"
    path.write_text(dumps_scenario(twelve_player_scenario()), encoding="utf-8")
    with address_space_grows_at_most(2**28):
        code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    _assert_one_line_error(err)
    assert "(10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)" in err
    assert f"{10**12 * PROFILE_BYTES} bytes" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("argv", [["tensor"], ["solve"], ["solve", "--nash"]], ids=" ".join)
def test_game_too_large_for_memory_exits_before_output(tmp_path, capsys, argv):
    # 20 players with 10 sites each: 200 payoffs, but 10**20 profiles, each
    # of PROFILE_BYTES.
    path = tmp_path / "twenty.json"
    scenario = seeded_scenario(players=20, sites=10, objects=2)
    path.write_text(dumps_scenario(scenario), encoding="utf-8")
    with address_space_grows_at_most(2**28):
        code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    _assert_one_line_error(err)
    assert f" for 20 players needs {PROFILE_BYTES * 10**20} bytes, " in err


_BROKEN_DOCUMENTS = {
    "violations": lambda doc: (
        doc["players"][0]["loss"][1].__setitem__(2, -1.0),
        doc["players"][2]["damage_weight"][0].pop(),
    ),
    "bad entry": lambda doc: doc["players"][1]["loss"][0].__setitem__(1, True),
    "missing key": lambda doc: doc["players"][1].pop("emission"),
}


@pytest.mark.parametrize("broken", sorted(_BROKEN_DOCUMENTS))
def test_commands_load_scenarios_alike(tmp_path, scenario, capsys, broken):
    # validate, tensor and solve share one loader; validate alone lists the
    # violations on stdout.
    doc = scenario_to_dict(scenario)
    _BROKEN_DOCUMENTS[broken](doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    results = {command: run_cli(capsys, command, str(path)) for command in ("validate", "tensor", "solve")}
    if broken == "violations":
        lines = "players[0].loss[1][2]: must be a finite number >= 0, got -1.0\n"
        lines += "players[2].damage_weight[0]: expected 5 entries (one per object), got 4\n"
        assert results["validate"] == (1, lines, "")
        assert results["tensor"] == results["solve"] == (1, "", lines)
    else:
        code, out, err = results["validate"]
        assert code == 2 and out == ""
        _assert_one_line_error(err)
        assert results["tensor"] == results["solve"] == results["validate"]


@pytest.mark.parametrize("command", ["tensor", "solve"])
def test_site_a_hair_from_an_object_exit1(tmp_path, scenario, capsys, command):
    # The squared distance underflows to 0; this used to end in a
    # ZeroDivisionError traceback.
    doc = scenario_to_dict(scenario)
    doc["region"]["rho_min"] = 1e-300
    doc["objects"][0].update(x=0.0, y=0.0)
    doc["players"][0]["sites"][0].update(x=1e-170, y=0.0)
    path = tmp_path / "hair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    player, site, obj = doc["players"][0]["id"], doc["players"][0]["sites"][0]["id"], doc["objects"][0]["id"]
    assert err == f"error: player {player!r}: site {site!r} coincides with natural object {obj!r}\n"


@pytest.mark.parametrize("command", ["tensor", "solve"])
def test_payoff_overflow_names_player_and_site_exit1(tmp_path, scenario, capsys, command):
    # P1's damage at B1 overflows to inf; this used to end in an error that
    # named no player: "all payoff values must be finite".
    doc = scenario_to_dict(scenario)
    doc["players"][0]["emission"] = 1e308
    doc["players"][0]["damage_weight"][0][0] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error: player 'P1': payoff at site 'B1' overflows to -inf\n"


def test_main_alone_maps_a_library_value_error_to_exit1(fixture_files, capsys, monkeypatch):
    # No command catches a ValueError of the library: main turns any that is
    # not a FormatError into exit 1 and one error: line.
    def refuse(*args, **kwargs):
        raise ValueError("x")

    monkeypatch.setattr("sitegame.report.solve", refuse)
    assert run_cli(capsys, "solve", str(fixture_files[1])) == (1, "", "error: x\n")


# --- output that cannot be written --------------------------------------------

@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{tensor}"],
        ["solve", "{scenario}", "--format", "json"],
        ["tensor", "{scenario}"],
        ["validate", "{scenario}"],
        ["fixtures", "emit", "{out}"],
        # Several MB, written block by block: the first block fails.
        ["tensor", "{big}", "--explain"],
    ],
    ids=["solve-text", "solve-json", "tensor", "validate", "fixtures-emit", "tensor-explain-blocks"],
)
def test_full_device_on_stdout_exit2(fixture_files, tmp_path, argv):
    scenario_path, tensor_path = fixture_files
    big = tmp_path / "big.json"
    big.write_text(dumps_scenario(seeded_scenario(players=4, sites=6, objects=20)), encoding="utf-8")
    paths = {"{scenario}": scenario_path, "{tensor}": tensor_path, "{out}": tmp_path / "out", "{big}": big}
    argv = [sys.executable, "-m", "sitegame", *(str(paths.get(arg, arg)) for arg in argv)]
    with open("/dev/full", "w") as full:
        result = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 2
    _assert_one_line_error(result.stderr)
    assert result.stderr.startswith("error: cannot write to stdout: ")
    assert "Exception ignored" not in result.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["solve", "tensor"])
@pytest.mark.parametrize("document, code", [("missing", 2), ("invalid", 1)])
def test_full_device_on_stderr_keeps_exit_code(fixture_files, tmp_path, command, document, code):
    # The error line, or the violations list, cannot be written; the exit
    # code must still be the command's own, not a traceback's 1.
    scenario_path, _ = fixture_files
    path = tmp_path / f"{document}.json"
    if document == "invalid":
        doc = json.loads(scenario_path.read_text())
        doc["players"][0]["emission"] = -1.0
        path.write_text(json.dumps(doc), encoding="utf-8")
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "sitegame", command, str(path)],
            stdout=subprocess.PIPE,
            stderr=full,
        )
    assert result.returncode == code
    assert result.stdout == b""


def _run_with_closed_fd(fd, argv):
    """Run `python -m sitegame argv` with file descriptor ``fd`` closed, so
    that its ``sys`` stream is None; the other two are piped."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m", "sitegame", *argv],
        capture_output=True,
        text=True,
    )


@pytest.mark.skipif(not Path("/bin/sh").exists(), reason="needs a POSIX shell")
@pytest.mark.parametrize("command, kind", [("solve", "tensor"), ("tensor", "scenario"), ("validate", "scenario")])
def test_closed_stdout_exit2(fixture_files, command, kind):
    scenario_path, tensor_path = fixture_files
    result = _run_with_closed_fd(1, [command, str(tensor_path if kind == "tensor" else scenario_path)])
    assert result.returncode == 2
    _assert_one_line_error(result.stderr)
    assert result.stderr.startswith("error: cannot write to stdout: ")


@pytest.mark.skipif(not Path("/bin/sh").exists(), reason="needs a POSIX shell")
@pytest.mark.parametrize("document, code", [("missing", 2), ("invalid", 1)])
def test_closed_stderr_keeps_exit_code(fixture_files, tmp_path, document, code):
    scenario_path, _ = fixture_files
    path = tmp_path / f"{document}.json"
    if document == "invalid":
        doc = json.loads(scenario_path.read_text())
        doc["players"][0]["emission"] = -1.0
        path.write_text(json.dumps(doc), encoding="utf-8")
    result = _run_with_closed_fd(2, ["solve", str(path)])
    assert (result.returncode, result.stdout) == (code, "")


def test_closed_stdout_stream_exit2(fixture_files):
    # An in-process caller whose stdout is a closed stream: writing to it
    # raises ValueError, which exited 1 as if the library had refused the
    # game.
    _, tensor_path = fixture_files
    out, err = io.StringIO(), io.StringIO()
    out.close()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["solve", str(tensor_path)]) == 2
    _assert_one_line_error(err.getvalue())
    assert err.getvalue().startswith("error: cannot write to stdout: ")


def test_refusal_partway_through_a_listing_exits_1(fixture_files, monkeypatch):
    # A renderer's own ValueError, raised after the first piece is written,
    # is a refusal of the game, not output that cannot be written.
    cli_module = importlib.import_module("sitegame.cli")
    write = cli_module._write

    def refusing_write(pieces):
        def first_piece_then_refusal():
            yield next(iter(pieces))
            raise ValueError("Out of range float values are not JSON compliant")

        write(first_piece_then_refusal())

    monkeypatch.setattr(cli_module, "_write", refusing_write)
    _, tensor_path = fixture_files
    sink, err = CountingSink(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        assert main(["solve", str(tensor_path), "--format", "json"]) == 1
    assert sink.written > 0
    assert err.getvalue() == "error: Out of range float values are not JSON compliant\n"


def test_broken_pipe_exit2_silently(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(dumps_scenario(seeded_scenario(players=4, sites=6, objects=20)), encoding="utf-8")
    # Several MB of output: far more than a pipe holds, so the writer is
    # still writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "sitegame", "tensor", str(path), "--explain"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        assert process.stdout.read(100).startswith(b"{")
        process.stdout.close()
        err = process.stderr.read()
        assert process.wait(timeout=120) == 2
    assert err == b""


def _accented_tensor(fixture_files, tmp_path):
    """The fixture tensor document with its first label spelled "é"."""
    _, tensor_path = fixture_files
    doc = json.loads(tensor_path.read_text())
    doc["strategy_labels"][0][0] = "é"
    path = tmp_path / "accented.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_output_the_encoding_cannot_spell_exit2(fixture_files, tmp_path, capsys, monkeypatch):
    # An ASCII stdout used to end text output in a UnicodeEncodeError traceback.
    path = _accented_tensor(fixture_files, tmp_path)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    _assert_one_line_error(err)
    assert err.startswith("error: cannot write to stdout: 'ascii' codec can't encode character '\\xe9'")


def test_error_line_the_stderr_encoding_cannot_spell_keeps_exit_code(tmp_path, monkeypatch):
    # An ASCII stderr used to raise UnicodeEncodeError out of main on the
    # error line naming the missing file.
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main(["solve", str(tmp_path / "missé.json")]) == 2


@pytest.mark.parametrize("command", ["solve", "validate", "fixtures"])
def test_ascii_stdout_exit2_without_traceback(fixture_files, tmp_path, command):
    scenario_path, _ = fixture_files
    if command == "solve":
        argv = ["solve", str(_accented_tensor(fixture_files, tmp_path))]
    elif command == "validate":
        # Two sites named 'Bé': the duplicate-id violation names one of them.
        doc = json.loads(scenario_path.read_text())
        for site in doc["players"][0]["sites"][:2]:
            site["id"] = "Bé"
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["validate", str(path)]
    else:
        argv = ["fixtures", "emit", str(tmp_path / "dé")]
    result = subprocess.run(
        [sys.executable, "-m", "sitegame", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert result.returncode == 2
    _assert_one_line_error(result.stderr)
    assert result.stderr.startswith("error: cannot write to stdout: 'ascii' codec ")


# --- mutated fixture documents ------------------------------------------------

_FIXTURE_DOCUMENTS = {"scenario": scenario_to_dict(fixture_scenario()), "tensor": tensor_to_dict(fixture_tensor())}


def _subtree_paths(node, path=()):
    """The key path of ``node`` and of every value inside it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _subtree_paths(child, (*path, key))


_SUBTREE_PATHS = {kind: list(_subtree_paths(doc)) for kind, doc in _FIXTURE_DOCUMENTS.items()}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_documents(draw):
    """A fixture document with one subtree, possibly the whole document,
    replaced by a random JSON value."""
    kind = draw(st.sampled_from(sorted(_FIXTURE_DOCUMENTS)))
    path = draw(st.sampled_from(_SUBTREE_PATHS[kind]))
    value = draw(_JSON_VALUES)
    if not path:
        return value
    doc = copy.deepcopy(_FIXTURE_DOCUMENTS[kind])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(
    doc=mutated_documents(),
    argv=st.sampled_from(
        [
            ["validate"],
            ["tensor"],
            ["tensor", "--explain"],
            ["solve"],
            ["solve", "--pairwise-band"],
            ["solve", "--format", "json"],
        ]
    ),
)
def test_mutated_documents_end_in_an_exit_code(tmp_path_factory, doc, argv):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)
    stdout, stderr = out.getvalue(), err.getvalue()
    if code == 1 and not stderr.startswith("error: "):
        # The scenario's violations, one per line: on stdout for validate,
        # on stderr for the commands that write a document.
        violations = "".join(f"{violation}\n" for violation in validate(load_scenario(path)))
        assert violations
        assert (stdout, stderr) == ((violations, "") if argv[0] == "validate" else ("", violations))
    elif code != 0:
        _assert_one_line_error(stderr)
