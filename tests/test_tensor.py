
import copy
import dataclasses
import importlib
import itertools
import json
import math
import operator
import os
import pickle
import re
import sys
import tracemalloc

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from sitegame import (
    DEFAULT_TOLERANCE,
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
    find_compromise,
    find_pure_nash,
    fixture_scenario,
    iterate_profiles,
    load_tensor,
    solve,
    spacing_codes,
    tensor_from_dict,
    tensor_to_dict,
)
from sitegame.payoff import PayoffTerms
from oracles import oracle_compromise, oracle_nash, oracle_payoff_total, profile_payoffs
from conftest import (
    SPECIAL_FLOATS,
    address_space_grows_at_most,
    assert_renders_in_blocks,
    assert_same_text,
    dense_values,
    json_tensors,
    scenarios,
    seeded_scenario,
    text_labels,
    tied_separable_games,
    twelve_player_scenario,
    with_twin_sites,
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
            block = dense_values(tensor)[tuple(slicer) + (p,)]
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


@settings(max_examples=200, deadline=None)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=6, max_side=4)))
@example(mask=np.zeros((2, 3, 1), dtype=bool))
@example(mask=np.ones((3, 1, 2), dtype=bool))
@example(mask=np.ones((1,) * 64, dtype=bool))  # np.ravel_multi_index takes at most 63 axes
def test_profiles_at_lists_the_profiles_where_a_mask_holds(mask):
    flat = np.flatnonzero(mask)
    found = tensor_module.profiles_at(flat, mask.shape)
    assert found == tuple(u for u in iterate_profiles(mask.shape) if mask[u])
    assert all(type(i) is int for profile in found for i in profile)
    assert np.array_equal(tensor_module.flat_indices(found, mask.shape), flat)


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
    assert np.array_equal(dense_values(permuted), dense_values(base)[order])
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
        (lambda d: d.clear(), r"^document: missing required key 'shape'$"),
        (lambda d: (d.clear(), d.update(shape=[2])), r"^document: missing required key 'payoffs'$"),
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


def test_from_dict_rejects_a_document_that_is_not_an_object():
    with pytest.raises(TensorFormatError, match=r"^document: expected an object, got list$"):
        tensor_from_dict([])


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


def test_from_dict_reads_numpy_floats_as_their_plain_values(tensor):
    # np.float64 is a float subclass: such rows miss the plain-number path
    # and are read entry by entry.
    doc = tensor_to_dict(tensor)
    numpy_doc = {**doc, "payoffs": [[np.float64(v) for v in row] for row in doc["payoffs"]]}
    assert tensor_from_dict(numpy_doc).values.tobytes() == tensor_from_dict(doc).values.tobytes()
    # Rows that start with an np.float64, the first with an int among its floats.
    doc["payoffs"][0][1] = 7
    mixed = {**doc, "payoffs": [[np.float64(row[0]), *row[1:]] for row in doc["payoffs"]]}
    assert np.array_equal(tensor_from_dict(mixed).values, tensor_from_dict(doc).values)


def test_load_tensor_names_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"shape": [1],,}', encoding="utf-8")
    with pytest.raises(TensorFormatError, match="line 1"):
        load_tensor(path)


@pytest.mark.parametrize(
    "case, error, match",
    [
        ("bom", TensorFormatError, "line 1, column 1: Unexpected UTF-8 BOM"),
        ("non-utf8", UnicodeDecodeError, "can't decode byte 0xe9"),
        ("missing", FileNotFoundError, "No such file"),
    ],
)
def test_load_tensor_unreadable_file(tmp_path, tensor, case, error, match):
    text = dumps_tensor(tensor).encode()
    path = tmp_path / "tensor.json"
    if case == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + text)
    elif case == "non-utf8":
        path.write_bytes(text.replace(b'"P1"', b'"P\xe91"', 1))
    with pytest.raises(error, match=match):
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


def _dense_copy(t: PayoffTensor) -> PayoffTensor:
    return PayoffTensor(t.shape, t.players, t.strategy_labels, dense_values(t), t.provenance)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(max_players=4))
@example(scenario=fixture_scenario())
@example(scenario=seeded_scenario(players=1, sites=3, objects=2))
def test_separable_tensor_solves_and_renders_as_its_dense_copy(scenario):
    try:
        separable = build_tensor(scenario)
    except ZeroDistanceError:
        assume(False)
    dense = _dense_copy(separable)
    assert separable.separable and not dense.separable
    # Results compare by identity: these are the fields that a generated
    # __eq__ compared.
    nash, dense_nash = find_pure_nash(separable), find_pure_nash(dense)
    assert nash.equilibria == dense_nash.equilibria
    assert separable.payoffs_at(nash.flat).tolist() == dense.payoffs_at(dense_nash.flat).tolist()
    compromise, dense_compromise = find_compromise(separable), find_compromise(dense)
    fields = operator.attrgetter("ideal", "minimizers", "min_residual")
    assert fields(compromise) == fields(dense_compromise)
    assert (
        separable.payoffs_at(compromise.flat).tolist()
        == dense.payoffs_at(dense_compromise.flat).tolist()
    )
    expected = (np.asarray(compromise.ideal) - dense.values).max(axis=-1)
    assert compromise.shortfall.tobytes() == expected.tobytes()
    assert compromise.shortfall.tobytes() == dense_compromise.shortfall.tobytes()
    assert_same_text(solve(separable).to_text(), solve(dense).to_text())
    assert_same_text(solve(separable).to_json(), solve(dense).to_json())
    assert_same_text(dumps_tensor(separable), dumps_tensor(dense))
    assert_same_text(dumps_tensor(separable, scenario), dumps_tensor(dense, scenario))


# Above this many profiles, the deviation scan of oracles.oracle_nash is left
# out, and the equilibria are checked against each player's argmax set.
ORACLE_PROFILES = 64

_TIED_AT_THE_BOUND = PayoffTensor(
    shape=(3, 2),
    players=("P1", "P2"),
    strategy_labels=(("a", "b", "c"), ("d", "e")),
    values=None,
    provenance=PROVENANCE_LOADED,
    totals=(np.array([1.0, 0.5, 0.5 - 2**-10]), np.array([0.5, 1.0])),
)
# Every site listed twice: 6**4 profiles, 2**4 equilibria and minimizers.
_TWINNED = with_twin_sites(seeded_scenario(4, 3, 5), [range(3)] * 4)


@settings(max_examples=150, deadline=None)
@given(game=tied_separable_games())
@example(game=(_TIED_AT_THE_BOUND, None, 0.5))
@example(game=(_TIED_AT_THE_BOUND, None, 0.5 - 2**-10))
@example(game=(build_tensor(_TWINNED), _TWINNED, DEFAULT_TOLERANCE))
def test_tied_separable_game_solves_and_renders_as_its_dense_copy(game):
    separable, scenario, tolerance = game
    dense = _dense_copy(separable)
    nash, dense_nash = find_pure_nash(separable, tolerance), find_pure_nash(dense, tolerance)
    assert nash.flat.tolist() == dense_nash.flat.tolist()
    compromise = find_compromise(separable, tolerance)
    dense_compromise = find_compromise(dense, tolerance)
    assert compromise.flat.tolist() == dense_compromise.flat.tolist()
    for field in ("ideal", "min_residual", "shortfall"):
        ours, theirs = getattr(compromise, field), getattr(dense_compromise, field)
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
    report, dense_report = solve(separable, tolerance=tolerance), solve(dense, tolerance=tolerance)
    assert_same_text(report.to_text(), dense_report.to_text())
    assert_same_text(report.to_json(), dense_report.to_json())
    # The listings of many tied profiles, against the per-profile dicts.
    assert_same_text(report.to_json(), json.dumps(report.to_dict(), indent=2))
    assert_same_text(dumps_tensor(separable), dumps_tensor(dense))
    if scenario is not None:
        assert_same_text(dumps_tensor(separable, scenario), dumps_tensor(dense, scenario))

    if math.prod(separable.shape) <= ORACLE_PROFILES:
        payoffs = profile_payoffs(dense)
        assert list(nash.equilibria) == oracle_nash(separable.shape, payoffs, tolerance)
        ideal, _, minimizers, min_residual = oracle_compromise(separable.shape, payoffs, tolerance)
        assert (list(compromise.ideal), compromise.min_residual) == (ideal, min_residual)
        assert list(compromise.minimizers) == minimizers
        return
    # Each player's payoff depends on their own strategy alone, so the
    # equilibria are the C-order product of the players' argmax sets.
    if scenario is None:
        totals = [total.tolist() for total in separable.totals]
    else:
        objects = [(o.position.x, o.position.y) for o in scenario.objects]
        pi_value = scenario.region.pi_value
        totals = [
            [
                oracle_payoff_total(
                    (site.position.x, site.position.y), player.loss[k],
                    player.damage_weight[k], player.emission, objects, pi_value,
                )
                for k, site in enumerate(player.sites)
            ]
            for player in scenario.players
        ]
    best = [[k for k, total in enumerate(row) if total >= max(row) - tolerance] for row in totals]
    assert list(nash.equilibria) == list(itertools.product(*best))


def test_separable_tensor_reads_each_payoff_from_its_totals(scenario):
    t = build_tensor(scenario)
    totals = [PayoffTerms(scenario, p).total.tolist() for p in range(3)]
    for p, shape in enumerate([(3, 1, 1), (1, 4, 1), (1, 1, 2)]):
        assert t.player_payoffs(p).shape == shape
        assert t.player_payoffs(p).ravel().tolist() == totals[p]
        assert not t.player_payoffs(p).flags.writeable
    assert t.payoff_vector((2, 0, 1)) == (totals[0][2], totals[1][0], totals[2][1])
    assert vars(t)["values"] is None
    assert t.values is None
    assert [total.tolist() for total in t.totals] == totals
    assert dense_values(t)[2, 0, 1].tolist() == list(t.payoff_vector((2, 0, 1)))
    # A copy with other labels is a separable tensor that holds the same totals.
    relabeled = dataclasses.replace(t, players=("a", "b", "c"))
    assert relabeled.separable and relabeled.values is None
    assert all(a is b for a, b in zip(relabeled.totals, t.totals, strict=True))
    every = np.arange(t.n_profiles)
    for each in (t, relabeled):
        assert np.array_equal(each.payoffs_at(every), dense_values(t).reshape(-1, 3))


def test_replace_copy_and_pickle_keep_a_separable_tensor_separable():
    # replace read ``values``, which built the dense tensor: 12,585,512 bytes
    # at its peak on this game, and a dense copy.
    t = build_tensor(seeded_scenario(players=6, sites=8, objects=2))
    tracemalloc.start()
    try:
        copies = [dataclasses.replace(t, provenance="x"), copy.copy(t), pickle.loads(pickle.dumps(t))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert t.values is None
    for each in copies:
        assert each.separable and each.values is None
        assert [total.tolist() for total in each.totals] == [total.tolist() for total in t.totals]


def _arrays(value):
    """Every array in ``value``, or among its items at any depth if it is a tuple."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_arrays_stay_read_only_after_pickle_and_deepcopy(scenario, tensor):
    # pickle and deepcopy restored every array writeable, and the code tables
    # of SpacingCodes were writeable from the start.
    tight = dataclasses.replace(scenario, region=dataclasses.replace(scenario.region, rho_min=3.0))
    holders = [
        tensor,
        build_tensor(scenario),
        find_pure_nash(tensor),
        find_compromise(tensor),
        spacing_codes(tight),
    ]
    for holder in holders:
        for each in (holder, pickle.loads(pickle.dumps(holder)), copy.deepcopy(holder)):
            held = list(_arrays(tuple(vars(each).values())))
            assert held and not any(array.flags.writeable for array in held), type(each).__name__


def test_64_players_of_one_site_replace_and_write_their_document():
    # The players of CI's s64.json. ``values`` would need 65 axes, one more
    # than numpy allows: replace and tensor_to_dict read it, and raised.
    scenario = _one_site_players(64)
    t = dataclasses.replace(build_tensor(scenario))
    assert t.separable
    doc = tensor_to_dict(t)
    assert doc["payoffs"] == [[PayoffTerms(scenario, 0).total[0]] * 64]
    assert json.dumps(doc, indent=2) + "\n" == dumps_tensor(t)


def _best_sites_doubled(scenario: Scenario) -> Scenario:
    """``scenario`` with each player's best site listed twice, at the same
    point: every player's argmax set has two members."""
    players = []
    for p, player in enumerate(scenario.players):
        k = int(np.argmax(PayoffTerms(scenario, p).total))
        twin = CandidateSite(player.sites[k].id + "'", player.sites[k].position)
        players.append(dataclasses.replace(
            player, sites=(*player.sites, twin), loss=(*player.loss, player.loss[k]),
            damage_weight=(*player.damage_weight, player.damage_weight[k]),
        ))
    return dataclasses.replace(scenario, players=tuple(players))


def _one_site_players(n: int) -> Scenario:
    """``n`` copies of the fixture's first player, each at its first site."""
    scenario = fixture_scenario()
    first = scenario.players[0]
    one = dataclasses.replace(
        first, sites=first.sites[:1], loss=first.loss[:1], damage_weight=first.damage_weight[:1]
    )
    players = tuple(dataclasses.replace(one, id=f"P{i}") for i in range(n))
    return dataclasses.replace(scenario, players=players)


@pytest.mark.parametrize(
    "make, equilibria",
    [
        pytest.param(lambda: PayoffTensor(
            (4, 3, 5), ("a", "b", "c"), (("w",) * 4, ("x",) * 3, ("y",) * 5),
            np.random.default_rng(3).uniform(-5.0, 5.0, (4, 3, 5, 3)), PROVENANCE_LOADED,
        ), None, id="dense"),
        pytest.param(
            lambda: build_tensor(seeded_scenario(players=4, sites=5, objects=6)), 1, id="separable"
        ),
        pytest.param(
            lambda: build_tensor(_best_sites_doubled(seeded_scenario(players=4, sites=5, objects=6))),
            2**4, id="separable ties",
        ),
        pytest.param(lambda: build_tensor(_one_site_players(64)), 1, id="64 players"),
    ],
)
def test_payoffs_at_gathers_the_rows_of_values_at_flat_indices(make, equilibria):
    t = make()
    n = t.n_players
    if n < 64:
        rows = dense_values(t).reshape(-1, n)
    else:  # ``values`` would need 65 axes, one more than numpy allows
        rows = np.column_stack([np.broadcast_to(t.player_payoffs(p), t.shape).ravel() for p in range(n)])
    m = t.n_profiles
    for flat in (np.arange(m), np.array([m - 1, m // 2, 0, m // 2]), np.array([], dtype=np.intp)):
        payoffs = t.payoffs_at(flat)
        assert payoffs.shape == (len(flat), n)
        assert np.array_equal(payoffs, rows[flat])
    assert equilibria is None or find_pure_nash(t).flat.size == equilibria


@pytest.mark.parametrize(
    "index",
    [lambda n: n, lambda n: n + 5, lambda n: -1, lambda n: -n, lambda n: -n - 1],
    ids=["n", "n + 5", "-1", "-n", "-n - 1"],
)
def test_payoffs_at_reads_an_index_as_the_dense_gather_does(index):
    # A separable tensor took every index modulo k_0, so n read the first
    # profile and -n - 1 the last, where the dense gather raises IndexError.
    separable = build_tensor(fixture_scenario())
    dense = _dense_copy(separable)
    flat = np.array([index(separable.n_profiles)])
    try:
        expected = dense.payoffs_at(flat)
    except IndexError:
        with pytest.raises(IndexError):
            separable.payoffs_at(flat)
    else:
        assert np.array_equal(separable.payoffs_at(flat), expected)


def test_separable_payoffs_at_holds_one_index_array_besides_its_rows():
    # The rows take 48 bytes a profile; a player's indices and the totals
    # gathered at them 8 bytes each.
    shape = (8,) * 6
    t = PayoffTensor(
        shape, tuple(f"P{p}" for p in range(6)), (("s",) * 8,) * 6, None, PROVENANCE_LOADED,
        tuple(np.zeros(8) for _ in shape),
    )
    flat = np.arange(t.n_profiles)
    tracemalloc.start()
    try:
        payoffs = t.payoffs_at(flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payoffs.shape == (t.n_profiles, 6) and not payoffs.any()
    assert peak < 65 * t.n_profiles


@pytest.mark.parametrize(
    "totals, values",
    [(None, None), ([[1.0]], None), ([[1.0], [2.0, 3.0, 4.0]], None), ([[1.0], [2.0, 3.0]], np.zeros((1, 2, 2)))],
    ids=["neither", "too few players", "wrong length", "both"],
)
def test_constructor_takes_values_or_totals_for_each_player(totals, values):
    with pytest.raises(ValueError, match="values"):
        PayoffTensor((1, 2), ("P1", "P2"), (("a",), ("b", "c")), values, PROVENANCE_LOADED, totals)


@pytest.mark.parametrize(
    "shape, players, labels, values, message",
    [
        ((2,), ("a", "b"), (("x", "y"),), np.zeros((2, 2)), "2 player labels for 1 axes"),
        ((0,), ("a",), ((),), np.zeros((0, 1)), "every player needs at least one strategy, got shape (0,)"),
        ((2,), ("a",), (("x",),), np.zeros((2, 1)), "strategy_labels must match shape"),
        ((2,), ("a",), (("x", "y"),), np.zeros((2, 2)), "values shape (2, 2) does not match (2, 1)"),
    ],
    ids=["players", "empty axis", "labels", "values"],
)
def test_constructor_rejects_parts_that_disagree_with_shape(shape, players, labels, values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PayoffTensor(shape, players, labels, values, PROVENANCE_LOADED)


def test_a_game_needs_at_least_one_player():
    # A game of no players was accepted, and every later call failed with an
    # unrelated numpy error (find_pure_nash, find_compromise, dumps_tensor).
    message = r"^a game needs at least one player$"
    with pytest.raises(ValueError, match=message):
        PayoffTensor((), (), (), np.zeros((0,)), PROVENANCE_LOADED)
    with pytest.raises(ValueError, match=message):
        PayoffTensor((), (), (), None, PROVENANCE_COMPUTED, [])
    with pytest.raises(ValueError, match=message):
        build_tensor(dataclasses.replace(fixture_scenario(), players=()))
    # A document's shape is checked first, with its own message.
    with pytest.raises(TensorFormatError, match=r"^shape: expected a non-empty list of integers$"):
        tensor_from_dict({"shape": [], "payoffs": [[]]})


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_constructor_rejects_nonfinite_totals(bad):
    with pytest.raises(ValueError, match="finite"):
        PayoffTensor((1, 2), ("P1", "P2"), (("a",), ("b", "c")), None, PROVENANCE_LOADED, [[1.0], [bad, 0.0]])


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
    explained = json.dumps(_explain_reference(t, scenario), indent=2) + "\n"
    # A dense copy lists its payoffs as details, with text between them and
    # no axis slot in its rows.
    for tensor in (t, _dense_copy(t)):
        assert_renders_in_blocks(monkeypatch, lambda: dumps_tensor(tensor), expected, t.n_profiles)
        rows = 2 * t.n_profiles
        assert_renders_in_blocks(monkeypatch, lambda: dumps_tensor(tensor, scenario), explained, rows)


@pytest.mark.parametrize(
    "join, between", [(", ", "\n"), (",\n        ", ",\n    ")], ids=["text", "json"]
)
def test_listing_fills_whole_rows_into_blocks_within_the_budget(monkeypatch, join, between):
    shape = (3, 1, 4, 2)
    # Labels and details of unequal widths, none holding the "<" a row starts with.
    axis = [[f"{p}{'x' * k}" for k in range(s)] for p, s in enumerate(shape)]
    profiles = np.array([23, 0, 5, 5, 17, 2, 9, 11, 20, 3, 14])
    detail = np.array(["", "d", "dd", "ddd"], dtype=object)
    codes = np.arange(len(profiles)) % 4
    grid = np.unravel_index(profiles, shape)
    spelled = [join.join(axis[p][grid[p][r]] for p in range(len(shape))) for r in range(len(profiles))]
    # With and without axes: one slot in a row leaves less room for the
    # separator between rows than three do.
    cases = [
        (
            "<" + join.join(["%s"] * 4) + "|%s>",
            [axis],
            [f"<{spelled[r]}|{'d' * (r % 4)}>" for r in range(len(profiles))],
        ),
        ("<%s>", [], [f"<{'d' * (r % 4)}>" for r in range(len(profiles))]),
    ]
    for row, axes, rows in cases:

        def render(profiles):
            return list(
                tensor_module.listing(
                    row, between, profiles, shape, axes, [detail], lambda r: [codes[r]]
                )
            )

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


@pytest.mark.parametrize(
    "shape, row",
    [((3, 1, 4, 2), "<%s-%s+%s/%s=%s;%s:%s~%s|%s>"), ((5,), "<%s=%s|%s>")],
    ids=["four-players", "one-player"],
)
def test_listing_writes_the_text_after_each_slot(shape, row):
    # Every slot has text of its own after it, so each row is the template
    # filled in, wherever the players split into a head and a tail; one
    # player is a head alone.
    axes = [[[f"{a}{p}{'x' * k}" for k in range(s)] for p, s in enumerate(shape)] for a in "ab"]
    profiles = np.random.default_rng(0).permutation(int(np.prod(shape)))
    detail = np.array(["", "d", "dd"], dtype=object)
    codes = np.arange(len(profiles)) % 3
    expected = [
        row % (*(axis[p][k] for axis in axes for p, k in enumerate(profile)), detail[c])
        for profile, c in zip(tensor_module.profiles_at(profiles, shape), codes)
    ]
    pieces = tensor_module.listing(
        row, "\n", profiles, shape, axes, [detail], lambda rows: [codes[rows]]
    )
    assert "".join(pieces) == "\n".join(expected)


def test_listing_copies_its_first_detail_once_as_it_starts():
    # With no axis, the text before the first slot and the text after it are
    # folded into the first detail's spellings in one pass: the listing holds
    # one copy of them, not two, while it starts.
    spellings = np.array([f"{k:0200d}" for k in range(20_000)], dtype=object)
    size = sum(map(sys.getsizeof, spellings.tolist()))
    tracemalloc.start()
    try:
        pieces = tensor_module.listing(
            "[%s, %s]", ",", np.arange(1), (20_000,), details=[spellings, spellings],
            codes=lambda rows: [np.zeros(1, dtype=np.intp)] * 2,
        )
        first = next(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == f"[{spellings[0]}, {spellings[0]}]"
    assert peak < 1.5 * size


def test_listing_frees_each_detail_as_it_folds_it():
    # Three columns of 20,000 spellings that only the list holds: each is
    # freed as its slot is folded, so at most four columns are alive at once
    # (the three given and the copy being built), not five.
    tracemalloc.start()
    try:
        details = [np.array([f"{k:0200d}" for k in range(20_000)], dtype=object) for _ in range(3)]
        pieces = tensor_module.listing(
            "[%s, %s, %s]", ",", np.arange(1), (20_000,), details=details,
            codes=lambda rows: [np.zeros(1, dtype=np.intp)] * 3,
        )
        first = next(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    zero = "0" * 200
    assert first == f"[{zero}, {zero}, {zero}]"
    assert details == []
    assert peak < 4.7 * 20_000 * sys.getsizeof(zero)


def _dense_tensor() -> PayoffTensor:
    shape = (8,) * 5
    return PayoffTensor(
        shape=shape,
        players=tuple(f"P{p + 1}" for p in range(5)),
        strategy_labels=tuple(tuple(f"S{k + 1}" for k in range(s)) for s in shape),
        values=np.random.default_rng(7).uniform(-10.0, 10.0, size=shape + (5,)),
        provenance=PROVENANCE_LOADED,
    )


@pytest.mark.parametrize(
    "make, chars, bound",
    [
        # 46,656 profiles and 7.6 MB of output; the tensor-only writer peaked at
        # 2.55 times the output's length while it joined its template twice.
        pytest.param(
            lambda: build_tensor(seeded_scenario(players=6, sites=6, objects=200)),
            7_000_000, 2.4, id="built",
        ),
        # 32,768 profiles and 4.6 MB of output, each player's payoffs spelled
        # apart: 5.56 times the output's length while the listing kept every
        # player's spellings until all were folded.
        pytest.param(_dense_tensor, 4_000_000, 5.0, id="dense"),
    ],
)
def test_dumps_tensor_allocates_little_beyond_its_output(make, chars, bound):
    t = make()
    tracemalloc.start()
    try:
        text = dumps_tensor(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > chars
    assert peak < bound * len(text)


def test_tensor_document_holds_no_index_a_profile():
    # 2,097,152 profiles and 404 MB of JSON, consumed a piece at a time as
    # the CLI writes it. An array of every flat index, sliced a block at a
    # time, peaked at 8.9 bytes a profile.
    t = build_tensor(seeded_scenario(players=7, sites=8, objects=5))
    written = 0
    tracemalloc.start()
    try:
        for piece in tensor_module.tensor_document(t):
            written += len(piece)
            del piece
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_profiles == 2**21
    assert written > 400_000_000
    assert peak < 2 * t.n_profiles


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_build_tensor_refuses_a_tensor_larger_than_physical_memory():
    scenario = twelve_player_scenario()
    tracemalloc.start()
    try:
        with address_space_grows_at_most(2**28):
            nbytes = 10**12 * tensor_module.PROFILE_BYTES
            with pytest.raises(ValueError, match=rf"shape \(10, 10, .*, 10\) .* {nbytes} bytes"):
                build_tensor(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spare", [0, -1])
def test_build_tensor_refuses_one_byte_over_physical_memory(scenario, monkeypatch, spare):
    # Per profile: the arrays `solve` holds at its peak (see PROFILE_BYTES).
    nbytes = 3 * 4 * 2 * tensor_module.PROFILE_BYTES
    monkeypatch.setattr(tensor_module, "_physical_memory", lambda: nbytes + spare)
    if spare < 0:
        with pytest.raises(ValueError, match=f"needs {nbytes} bytes, more than the {nbytes - 1} bytes"):
            build_tensor(scenario)
    else:
        assert build_tensor(scenario).n_profiles * tensor_module.PROFILE_BYTES == nbytes


@pytest.mark.parametrize("fault", [None, ValueError, OSError])
def test_build_tensor_skips_the_guard_where_memory_is_unknown(scenario, monkeypatch, fault):
    def sysconf(name):
        raise fault(name)

    if fault is None:  # a platform without os.sysconf
        monkeypatch.delattr(os, "sysconf")
    else:
        monkeypatch.setattr(os, "sysconf", sysconf)
    assert tensor_module._physical_memory() is None
    assert build_tensor(scenario).shape == (3, 4, 2)


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
    nbytes = 50**3 * 3 * 8
    if how == "built":
        assert tensor.values is None and [total.size for total in tensor.totals] == [50] * 3
    else:
        assert tensor.values.nbytes == nbytes
    assert peak < 1.25 * nbytes


def test_a_writable_array_is_copied():
    values = np.zeros((2, 1))
    tensor = PayoffTensor(
        shape=(2,), players=("P1",), strategy_labels=(("S1", "S2"),), values=values,
        provenance=PROVENANCE_LOADED,
    )
    values[0, 0] = 1.0
    assert tensor.values.tolist() == [[0.0], [0.0]]
    assert values.flags.writeable


def test_tensors_compare_and_hash_by_identity(tensor, scenario):
    # The generated __eq__ and __hash__ compared and hashed the values array:
    # ValueError for ==, TypeError for hash, also through a SolveReport.
    other = dataclasses.replace(tensor)
    assert tensor == tensor and tensor != other
    assert len({tensor, other, tensor}) == 2
    # So do the solvers' results, and a report through them.
    built = build_tensor(scenario)
    report = solve(built)
    assert report == report != solve(built)
    assert len({report, report, solve(built)}) == 2


def test_repr_holds_nothing_per_profile(scenario):
    # repr read ``values``, which built the dense tensor and kept it, and
    # printed the compromise residual of every profile.
    tensor = build_tensor(scenario)
    text = repr(solve(tensor))
    assert vars(tensor)["values"] is None
    assert "values=" not in text and "shortfall=" not in text
    assert repr(tensor) == (
        "PayoffTensor(shape=(3, 4, 2), players=('P1', 'P2', 'P3'), strategy_labels="
        f"{tensor.strategy_labels!r}, provenance='computed-from-equation')"
    )


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
@pytest.mark.parametrize("index", [None, 1.0, "1"])
def test_non_integer_strategy_index_raises(tensor, method, index):
    # None used to end in a TypeError from min(), and 1.0 in numpy's IndexError.
    message = f"strategy index {index!r} is not an integer for player 'P1', which has 3 strategies"
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(tensor, method)((index, 0, 0))


def test_numpy_integer_and_bool_profiles_are_accepted(tensor):
    profile = (np.int64(0), np.uint8(3), True)
    assert tensor.labels_for(profile) == ("B1", "C4", "D2")
    assert tensor.payoff_vector(profile) == tensor.payoff_vector((0, 3, 1))


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
