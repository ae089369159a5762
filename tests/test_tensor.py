
import dataclasses
import importlib
import json
import sys
import tracemalloc

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from sitegame import (
    CandidateSite,
    NaturalObject,
    PayoffTensor,
    PlayerSpec,
    Point,
    PROVENANCE_COMPUTED,
    PROVENANCE_LOADED,
    RegionConfig,
    Scenario,
    TensorFormatError,
    ZeroDistanceError,
    build_tensor,
    dumps_tensor,
    iterate_profiles,
    load_tensor,
    tensor_from_dict,
    tensor_to_dict,
)
from sitegame.payoff import PayoffTerms
from conftest import (
    SPECIAL_FLOATS,
    address_space_grows_at_most,
    assert_renders_in_blocks,
    assert_same_text,
    json_tensors,
    scenarios,
    seeded_scenario,
    text_labels,
    twelve_player_scenario,
)

tensor_module = importlib.import_module("sitegame.tensor")

# Frozen from the straight-line payoff oracle (see test_payoff.py).
P1_SITE_TOTALS = [2.6138193948132304, -8.738548914701935, 4.268150139922947]
P2_SITE_TOTALS = [5.312011007316723, 5.015486796303033, 5.281309611132556, 4.619716826797307]
P3_SITE_TOTALS = [1.5487996961939248, 2.740808685242656]


def test_build_tensor_fixture_shape_and_labels(scenario):
    tensor = build_tensor(scenario)
    assert tensor.shape == (3, 4, 2)
    assert tensor.provenance == PROVENANCE_COMPUTED
    assert tensor.players == ("P1", "P2", "P3")
    assert tensor.strategy_labels == (("B1", "B2", "B3"), ("C1", "C2", "C3", "C4"), ("D1", "D2"))
    assert tensor.n_profiles == 24


def test_build_tensor_payoffs_constant_along_other_axes(scenario):
    tensor = build_tensor(scenario)
    for p, totals in enumerate([P1_SITE_TOTALS, P2_SITE_TOTALS, P3_SITE_TOTALS]):
        for k, expected in enumerate(totals):
            slicer = [slice(None)] * 3
            slicer[p] = k
            block = tensor.values[tuple(slicer) + (p,)]
            assert np.all(block == block.flat[0])
            assert block.flat[0] == pytest.approx(expected, abs=1e-9)


def test_single_cell_tensor():
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.5, rho_max=100),
        objects=(NaturalObject("A1", Point(3, 4)),),
        players=(
            PlayerSpec("P1", 5.0, (CandidateSite("S1", Point(3, 5)),), ((1.0,),), ((0.0,),)),
        ),
    )
    tensor = build_tensor(scn)
    assert tensor.shape == (1,)
    assert tensor.payoff_vector((0,)) == (1.0,)


def test_two_identical_players_symmetric_payoffs():
    site = CandidateSite("S1", Point(1, 5))
    other = CandidateSite("S2", Point(9, 5))
    common = dict(
        sites=(site, other),
        loss=((4.0, 2.0), (1.0, 8.0)),
        damage_weight=((1.0, 0.5), (0.25, 2.0)),
    )
    scn = Scenario(
        region=RegionConfig(x_max=10, y_max=10, rho_min=0.5, rho_max=100),
        objects=(NaturalObject("A1", Point(5, 1)), NaturalObject("A2", Point(5, 9))),
        players=(PlayerSpec("P1", 11.0, **common), PlayerSpec("P2", 11.0, **common)),
    )
    tensor = build_tensor(scn)
    for profile in iterate_profiles(tensor.shape):
        vector = tensor.payoff_vector(profile)
        mirrored = tensor.payoff_vector(profile[::-1])
        assert vector == mirrored[::-1]
        if profile[0] == profile[1]:
            assert vector[0] == vector[1]


def test_build_tensor_zero_distance_identifies_offender(scenario):
    doc_players = list(scenario.players)
    bad = PlayerSpec(
        "P9", 1.0,
        (CandidateSite("X1", Point(14, 1)),),  # sits exactly on object A4
        ((1.0,) * 5,),
        ((1.0,) * 5,),
    )
    scn = Scenario(region=scenario.region, objects=scenario.objects,
                   players=tuple(doc_players) + (bad,))
    with pytest.raises(ZeroDistanceError) as excinfo:
        build_tensor(scn)
    assert excinfo.value.player_id == "P9"
    assert excinfo.value.site_id == "X1"
    assert excinfo.value.object_id == "A4"


def test_build_tensor_rejects_player_without_sites(scenario):
    scn = Scenario(
        region=scenario.region,
        objects=scenario.objects,
        players=scenario.players + (PlayerSpec("P4", 0.0, (), (), ()),),
    )
    with pytest.raises(ValueError, match="P4"):
        build_tensor(scn)


def test_iterate_profiles_fixture_shape():
    profiles = list(iterate_profiles([3, 4, 2]))
    assert len(profiles) == 24
    assert profiles[0] == (0, 0, 0)
    assert profiles[-1] == (2, 3, 1)
    assert len(set(profiles)) == 24


def test_iterate_profiles_small_shapes():
    assert list(iterate_profiles([1])) == [(0,)]
    assert list(iterate_profiles([2, 2])) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_iterate_profiles_rejects_empty_axis():
    with pytest.raises(ValueError):
        iterate_profiles([2, 0])


def test_round_trip_preserves_everything(tensor):
    doc = tensor_to_dict(tensor)
    again = tensor_from_dict(doc)
    assert again.shape == tensor.shape
    assert again.players == tensor.players
    assert again.strategy_labels == tensor.strategy_labels
    assert np.array_equal(again.values, tensor.values)
    assert again.provenance == PROVENANCE_LOADED
    # serialized form is stable across a round trip
    assert_same_text(dumps_tensor(again), dumps_tensor(tensor))


def test_round_trip_through_file(tmp_path, tensor):
    path = tmp_path / "tensor.json"
    path.write_text(dumps_tensor(tensor), encoding="utf-8")
    loaded = load_tensor(path)
    assert np.array_equal(loaded.values, tensor.values)


def test_payoffs_listed_in_normative_order(tensor):
    doc = tensor_to_dict(tensor)
    for row, profile in zip(doc["payoffs"], iterate_profiles(tensor.shape)):
        assert tuple(row) == tensor.payoff_vector(profile)


def test_site_reorder_permutes_one_axis(scenario):
    base = build_tensor(scenario)
    player1 = scenario.players[0]
    order = [2, 0, 1]
    reordered_player = PlayerSpec(
        player1.id,
        player1.emission,
        tuple(player1.sites[i] for i in order),
        tuple(player1.loss[i] for i in order),
        tuple(player1.damage_weight[i] for i in order),
    )
    shuffled = Scenario(
        region=scenario.region,
        objects=scenario.objects,
        players=(reordered_player,) + scenario.players[1:],
    )
    permuted = build_tensor(shuffled)
    assert np.array_equal(permuted.values, base.values[order])
    assert permuted.strategy_labels[0] == ("B3", "B1", "B2")
    assert permuted.strategy_labels[1:] == base.strategy_labels[1:]


def test_values_are_read_only(tensor):
    with pytest.raises(ValueError):
        tensor.values[0, 0, 0, 0] = 99.0


def test_payoff_vector_and_labels(tensor):
    assert tensor.payoff_vector((0, 3, 1)) == (4.600, 6.946, 4.537)
    assert tensor.labels_for((0, 3, 1)) == ("B1", "C4", "D2")


def test_from_dict_defaults_labels():
    doc = {"shape": [2, 1], "payoffs": [[1.0, 2.0], [3.0, 4.0]]}
    tensor = tensor_from_dict(doc)
    assert tensor.players == ("P1", "P2")
    assert tensor.strategy_labels == (("S1", "S2"), ("S1",))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("shape"), "shape"),
        (lambda d: d.pop("payoffs"), "payoffs"),
        (lambda d: d.update(shape=[3, 0, 2]), r"shape\[1\]"),
        (lambda d: d["payoffs"].pop(), "24 rows"),
        (lambda d: d["payoffs"][0].pop(), r"payoffs\[0\]"),
        (lambda d: d["payoffs"][3].__setitem__(1, float("nan")), "finite"),
        (lambda d: d["payoffs"][3].__setitem__(1, "high"), r"payoffs\[3\]\[1\]"),
        (lambda d: d.update(strategy_labels=[["x"], ["y"], ["z"]]), "strategy_labels"),
        (lambda d: d.update(players=["only-one"]), "players"),
    ],
)
def test_from_dict_rejects_malformed_documents(tensor, mutate, fragment):
    doc = tensor_to_dict(tensor)
    mutate(doc)
    with pytest.raises(TensorFormatError, match=fragment):
        tensor_from_dict(doc)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("extra", [{}, {"strategy_labels": [["a"]]}])
def test_from_dict_checks_row_count_before_building_defaults(extra):
    # A shape claiming 10**9 profiles with no rows must fail on the row count,
    # before a default label list of that size is built.
    doc = {"shape": [10**9], "payoffs": [], **extra}
    tracemalloc.start()
    try:
        with address_space_grows_at_most(2**28):
            with pytest.raises(TensorFormatError, match="1000000000 rows"):
                tensor_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_tensor_names_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"shape": [1],,}', encoding="utf-8")
    with pytest.raises(TensorFormatError, match="line 1"):
        load_tensor(path)


def test_constructor_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="finite"):
        PayoffTensor(
            shape=(1,),
            players=("P1",),
            strategy_labels=(("S1",),),
            values=np.array([[np.inf]]),
            provenance=PROVENANCE_LOADED,
        )


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_constructor_rejects_one_nonfinite_value_among_finite_ones(bad, where):
    values = np.array([[1.0], [-2.0], [3.0]])
    values[where, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        PayoffTensor(
            shape=(3,),
            players=("P1",),
            strategy_labels=(("S1", "S2", "S3"),),
            values=values,
            provenance=PROVENANCE_LOADED,
        )


def test_json_floats_round_trip_exactly(tensor):
    text = dumps_tensor(tensor)
    reloaded = tensor_from_dict(json.loads(text))
    assert np.array_equal(reloaded.values, tensor.values)


_SPECIAL_TENSOR = PayoffTensor(
    shape=(len(SPECIAL_FLOATS),),
    players=('q"u\\o\u00e9%s',),
    strategy_labels=(tuple(f"S{k}" for k in range(len(SPECIAL_FLOATS))),),
    values=np.array(SPECIAL_FLOATS).reshape(-1, 1),
    provenance=PROVENANCE_LOADED,
)


@settings(max_examples=150, deadline=None)
@given(t=json_tensors())
@example(t=_SPECIAL_TENSOR)
def test_dumps_tensor_is_json_dumps_of_document(t):
    assert_same_text(dumps_tensor(t), json.dumps(tensor_to_dict(t), indent=2) + "\n")


def _explain_reference(tensor, scenario):
    """The tensor document with its explain listing, built one dict per
    profile."""
    breakdowns = []
    for p, player in enumerate(scenario.players):
        terms = PayoffTerms(scenario, p)
        columns = (terms.income.tolist(), terms.damage.tolist(), terms.total.tolist())
        breakdowns.append(
            [
                {"player": player.id, "site": site.id, "income": income, "damage": damage,
                 "total": total}
                for site, income, damage, total in zip(player.sites, *columns)
            ]
        )
    doc = tensor_to_dict(tensor)
    doc["explain"] = [
        {
            "indices": list(profile),
            "labels": list(tensor.labels_for(profile)),
            "players": [breakdowns[p][k] for p, k in enumerate(profile)],
        }
        for profile in iterate_profiles(tensor.shape)
    ]
    return doc


def _relabeled(scenario, ids, negative_zero):
    """``scenario`` with player and site ids drawn from ``ids``; with
    ``negative_zero``, every 0.0 coefficient is -0.0."""

    def signed(rows):
        return tuple(tuple(-0.0 if negative_zero and v == 0 else v for v in row) for row in rows)

    players = tuple(
        dataclasses.replace(
            player,
            id=next(ids),
            sites=tuple(dataclasses.replace(site, id=next(ids)) for site in player.sites),
            loss=signed(player.loss),
            damage_weight=signed(player.damage_weight),
        )
        for player in scenario.players
    )
    return dataclasses.replace(scenario, players=players)


@st.composite
def explain_scenarios(draw):
    """Scenarios whose player and site ids need JSON escapes or hold '%',
    some with -0.0 coefficients."""
    scenario = draw(scenarios())
    # Up to 3 players with up to 3 sites each: at most 12 ids.
    ids = iter(draw(st.lists(text_labels, min_size=12, max_size=12)))
    return _relabeled(scenario, ids, draw(st.booleans()))


_ONE_SITE = Scenario(
    region=RegionConfig(10.0, 10.0, 0.5, 100.0),
    objects=(NaturalObject("A1", Point(3.0, 4.0)), NaturalObject("A2", Point(0.0, 0.0))),
    players=(
        PlayerSpec(
            '%s"\\\n\u00e9', 2.0, (CandidateSite("%", Point(3.0, 5.0)),), ((0.0, 1.0),), ((1.5, 0.0),)
        ),
    ),
)


@settings(max_examples=100, deadline=None)
@given(scenario=explain_scenarios())
@example(scenario=_ONE_SITE)
@example(scenario=_relabeled(_ONE_SITE, iter(["P\t1", "S%d"]), True))
@example(scenario=_relabeled(seeded_scenario(3, 1, 2), iter(["%s", "", "\x00", "\u2603", "a", "b"]), False))
def test_dumps_tensor_explain_is_json_dumps_of_document(scenario):
    try:
        t = build_tensor(scenario)
    except ZeroDistanceError:
        assume(False)
    expected = json.dumps(_explain_reference(t, scenario), indent=2) + "\n"
    assert_same_text(dumps_tensor(t, scenario), expected)


@pytest.mark.parametrize("shape", [(7,), (3, 4, 2), (2, 1, 3, 2)])
def test_dumps_tensor_across_blocks(monkeypatch, shape):
    scenario = seeded_scenario(players=len(shape), sites=max(shape), objects=2)
    players = tuple(
        dataclasses.replace(
            player, sites=player.sites[:k], loss=player.loss[:k], damage_weight=player.damage_weight[:k]
        )
        for player, k in zip(scenario.players, shape)
    )
    scenario = dataclasses.replace(scenario, players=players)
    t = build_tensor(scenario)
    expected = json.dumps(tensor_to_dict(t), indent=2) + "\n"
    assert_renders_in_blocks(monkeypatch, lambda: dumps_tensor(t), expected, t.n_profiles)
    expected = json.dumps(_explain_reference(t, scenario), indent=2) + "\n"
    rows = 2 * t.n_profiles
    assert_renders_in_blocks(monkeypatch, lambda: dumps_tensor(t, scenario), expected, rows)


@pytest.mark.parametrize(
    "join, between", [(", ", "\n"), (",\n        ", ",\n    ")], ids=["text", "json"]
)
def test_listing_fills_whole_rows_into_blocks_within_the_budget(monkeypatch, join, between):
    shape = (3, 1, 4, 2)
    # Labels and details of unequal widths, none holding the "<" a row starts with.
    axis = [[f"{p}{'x' * k}" for k in range(s)] for p, s in enumerate(shape)]
    profiles = np.array([23, 0, 5, 5, 17, 2, 9, 11, 20, 3, 14])
    detail = (np.array(["", "d", "dd", "ddd"], dtype=object), np.arange(len(profiles)) % 4)
    grid = np.unravel_index(profiles, shape)
    spelled = [join.join(axis[p][grid[p][r]] for p in range(len(shape))) for r in range(len(profiles))]
    # With and without axes: one slot in a row leaves less room for the
    # separator between rows than three do.
    cases = [
        ("<%s%s|%s>", [axis], [f"<{spelled[r]}|{'d' * (r % 4)}>" for r in range(len(profiles))]),
        ("<%s>", [], [f"<{'d' * (r % 4)}>" for r in range(len(profiles))]),
    ]
    for row, axes, rows in cases:

        def render(profiles):
            return list(tensor_module.listing(row, join, between, profiles, shape, axes, [detail]))

        short_last = set()
        # Up to a budget that fits every row, with its template's slots, into one block.
        for budget in range(1, len(rows) * (max(map(len, rows)) + 20)):
            monkeypatch.setattr(tensor_module, "BLOCK_CHARS", budget)
            pieces = render(profiles)
            blocks = pieces[::2]
            assert pieces[1::2] == [between] * (len(blocks) - 1)
            assert between.join(blocks) == between.join(rows)
            counts = [block.count("<") for block in blocks]
            assert len(set(counts[:-1])) <= 1 and counts[-1] <= counts[0]
            assert all(len(block) <= budget for block, count in zip(blocks, counts) if count > 1)
            short_last.add(counts[-1] < counts[0])
        assert counts == [len(rows)]
        assert short_last == {False, True}
        assert render(profiles[:0]) == []


def test_dumps_tensor_allocates_little_beyond_its_output():
    # 46,656 profiles and 7.6 MB of output; the tensor-only writer peaked at
    # 2.55 times the output's length while it joined its template twice.
    t = build_tensor(seeded_scenario(players=6, sites=6, objects=200))
    tracemalloc.start()
    try:
        text = dumps_tensor(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 7_000_000
    assert peak < 2.4 * len(text)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_build_tensor_refuses_a_tensor_larger_than_physical_memory():
    scenario = twelve_player_scenario()
    tracemalloc.start()
    try:
        with address_space_grows_at_most(2**28):
            with pytest.raises(ValueError, match=r"shape \(10, 10, .*, 10\) .* 96000000000000 bytes"):
                build_tensor(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spare", [0, -1])
def test_build_tensor_refuses_one_byte_over_physical_memory(scenario, monkeypatch, spare):
    nbytes = 3 * 4 * 2 * 3 * 8
    monkeypatch.setattr(tensor_module, "_physical_memory", lambda: nbytes + spare)
    if spare < 0:
        with pytest.raises(ValueError, match=f"needs {nbytes} bytes, more than the {nbytes - 1} bytes"):
            build_tensor(scenario)
    else:
        assert build_tensor(scenario).values.nbytes == nbytes


def _many_site_scenario(sites):
    return Scenario(
        region=RegionConfig(x_max=100, y_max=100, rho_min=0.5, rho_max=1000),
        objects=(NaturalObject("A1", Point(0, 0)),),
        players=tuple(
            PlayerSpec(
                f"P{i + 1}",
                1.0,
                tuple(CandidateSite(f"P{i + 1}S{k + 1}", Point(k + 1, i + 1)) for k in range(sites)),
                ((1.0,),) * sites,
                ((1.0,),) * sites,
            )
            for i in range(3)
        ),
    )


@pytest.mark.parametrize("how", ["built", "loaded"])
def test_a_built_or_loaded_tensor_is_held_once(how):
    # 50**3 profiles x 3 players x 8 bytes = 3 MB. The physical-memory check
    # of build_tensor counts one tensor, so no second copy may be made.
    scenario = _many_site_scenario(50)
    document = tensor_to_dict(build_tensor(scenario)) if how == "loaded" else None
    tracemalloc.start()
    try:
        tensor = build_tensor(scenario) if how == "built" else tensor_from_dict(document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tensor.values.nbytes == 50**3 * 3 * 8
    assert peak < 1.25 * tensor.values.nbytes


def test_a_writable_array_is_copied():
    values = np.zeros((2, 1))
    tensor = PayoffTensor(
        shape=(2,), players=("P1",), strategy_labels=(("S1", "S2"),), values=values,
        provenance=PROVENANCE_LOADED,
    )
    values[0, 0] = 1.0
    assert tensor.values.tolist() == [[0.0], [0.0]]
    assert values.flags.writeable


@pytest.mark.parametrize("method", ["labels_for", "payoff_vector"])
@pytest.mark.parametrize("player", [0, 1, 2])
@pytest.mark.parametrize("end", ["-1", "k"])
def test_out_of_range_strategy_index_raises(tensor, method, player, end):
    index = -1 if end == "-1" else tensor.shape[player]
    profile = [0] * tensor.n_players
    profile[player] = index
    message = rf"strategy index {index} is out of range for player 'P{player + 1}'"
    with pytest.raises(ValueError, match=message):
        getattr(tensor, method)(profile)


@pytest.mark.parametrize("method", ["labels_for", "payoff_vector"])
@pytest.mark.parametrize("profile", [(0, 0), (0, 0, 0, 0)])
def test_profile_of_wrong_length_raises(tensor, method, profile):
    with pytest.raises(ValueError, match=f"{len(profile)} indices for 3 players"):
        getattr(tensor, method)(profile)


def test_load_tensor_oversized_integer_literal(tmp_path, tensor):
    doc = tensor_to_dict(tensor)
    doc["payoffs"][3][1] = "BIG"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 5000), encoding="utf-8")
    with pytest.raises(TensorFormatError) as raised:
        load_tensor(path)
    assert str(raised.value).startswith(f"{path}: ") and "5001 digits" in str(raised.value)


def test_load_tensor_nested_too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(TensorFormatError) as raised:
        load_tensor(path)
    assert str(raised.value).startswith(f"{path}: ") and "recursion" in str(raised.value)
