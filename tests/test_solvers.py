import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sitegame import (
    PROVENANCE_LOADED,
    PayoffTensor,
    SolveReport,
    best_response,
    build_tensor,
    find_compromise,
    find_pure_nash,
    fixture_scenario,
    fixture_tensor,
    ideal_vector,
    iterate_profiles,
    solve,
    tensor_from_dict,
)
from conftest import OVERFLOW_TENSOR, tensors
from oracles import oracle_compromise, oracle_nash, profile_payoffs


def _tensor_from_values(values):
    values = np.asarray(values, dtype=float)
    shape = values.shape[:-1]
    n = values.shape[-1]
    return PayoffTensor(
        shape=shape,
        players=tuple(f"P{i + 1}" for i in range(n)),
        strategy_labels=tuple(tuple(f"S{j + 1}" for j in range(s)) for s in shape),
        values=values,
        provenance=PROVENANCE_LOADED,
    )


# --- best response -----------------------------------------------------------

def test_best_response_fixture_column(tensor):
    # player 1 against (C4, D2): 4.600 beats 1.109 and 3.643
    assert best_response(tensor, 0, (None, 3, 1)) == {0}


def test_best_response_ignores_own_entry(tensor):
    assert best_response(tensor, 0, (2, 3, 1)) == best_response(tensor, 0, (None, 3, 1))


def test_best_response_full_tie_on_constant_axis():
    values = np.zeros((3, 2, 2))
    values[..., 0] = 7.0  # player 1 payoff constant
    values[..., 1] = np.arange(6).reshape(3, 2)
    t = _tensor_from_values(values)
    assert best_response(t, 0, (None, 1)) == {0, 1, 2}


def test_best_response_single_strategy_player():
    values = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])  # shape (2, 1, 2)
    t = _tensor_from_values(values)
    assert best_response(t, 1, (0, None)) == {0}


def test_best_response_ties_within_tolerance(tensor):
    wide = best_response(tensor, 0, (None, 3, 1), tolerance=1.0)
    assert wide == {0, 2}  # 3.643 is within 1.0 of 4.600, 1.109 is not


# --- pure Nash ---------------------------------------------------------------

def test_nash_fixture_unique_equilibrium(tensor):
    result = find_pure_nash(tensor)
    assert result.equilibria == ((0, 3, 1),)
    assert tensor.payoffs_at(result.flat).tolist() == [[4.600, 6.946, 4.537]]


def test_nash_fixture_matches_bruteforce_oracle(tensor):
    payoffs = profile_payoffs(tensor)
    assert list(find_pure_nash(tensor).equilibria) == oracle_nash(tensor.shape, payoffs)


def test_nash_decoupled_game_is_profile_of_argmaxes(scenario):
    # payoffs from the standalone formula don't depend on the others' sites,
    # so the unique equilibrium combines the per-player best sites
    result = find_pure_nash(build_tensor(scenario))
    assert result.equilibria == ((2, 0, 1),)


def test_nash_decoupled_game_with_ties_lists_all_combinations():
    values = np.zeros((2, 2, 2))
    values[..., 0] = [[5.0], [5.0]]  # player 1 indifferent
    values[..., 1] = [[1.0, 3.0], [1.0, 3.0]]  # player 2 prefers column 2
    t = _tensor_from_values(values)
    assert find_pure_nash(t).equilibria == ((0, 1), (1, 1))


def test_nash_equilibria_are_tuples_of_python_ints():
    values = np.zeros((2, 3, 2))
    values[..., 0] = 1.0  # every profile is an equilibrium
    values[..., 1] = 1.0
    equilibria = find_pure_nash(_tensor_from_values(values)).equilibria
    assert len(equilibria) == 6
    assert all(type(u) is tuple and all(type(i) is int for i in u) for u in equilibria)


def test_nash_payoffs_follow_the_equilibria_when_all_profiles_tie():
    # Each player's payoff ignores their own strategy, so every profile is an
    # equilibrium, and the profiles' payoff vectors all differ.
    rng = np.random.default_rng(3)
    shape = (2, 3, 4)
    values = np.empty(shape + (3,))
    for p in range(3):
        values[..., p] = rng.uniform(-10.0, 10.0, size=shape).take([0], axis=p)
    t = _tensor_from_values(values)
    result = find_pure_nash(t)
    assert result.equilibria == tuple(iterate_profiles(shape))
    payoffs = tuple(map(tuple, t.payoffs_at(result.flat).tolist()))
    assert payoffs == tuple(t.payoff_vector(u) for u in result.equilibria)
    assert all(type(v) is float for vector in payoffs for v in vector)


def test_nash_matching_pennies_has_no_pure_equilibrium():
    values = np.array(
        [[[1.0, -1.0], [-1.0, 1.0]],
         [[-1.0, 1.0], [1.0, -1.0]]]
    )
    t = _tensor_from_values(values)
    assert find_pure_nash(t).equilibria == ()


def test_nash_tolerance_counts_near_ties():
    values = np.array([[1.0], [1.0 - 1e-12]])  # one player, two strategies
    t = _tensor_from_values(values)
    assert find_pure_nash(t, tolerance=1e-9).equilibria == ((0,), (1,))
    assert find_pure_nash(t, tolerance=0.0).equilibria == ((0,),)


@pytest.mark.parametrize(
    "others_fixed, message",
    [
        # -1 used to read as player 2's last strategy, 3.
        ((None, -1, 0), r"strategy index -1 is out of range for player 'P2', which has 4 strategies"),
        ((None, 3, 2), r"strategy index 2 is out of range for player 'P3', which has 2 strategies"),
        # A short profile used to end in numpy's "truth value ... is ambiguous".
        ((None, 3), r"has 2 indices for 3 players"),
        ((None, 3, 1, 0), r"has 4 indices for 3 players"),
    ],
    ids=["negative", "too-large", "short", "long"],
)
def test_best_response_rejects_a_bad_profile(tensor, others_fixed, message):
    with pytest.raises(ValueError, match=message):
        best_response(tensor, 0, others_fixed)


@pytest.mark.parametrize("player", [-1, 3])
def test_best_response_rejects_a_player_out_of_range(tensor, player):
    # -1 used to mean the last player.
    with pytest.raises(ValueError, match=rf"player {player} is out of range for 3 players"):
        best_response(tensor, player, (0, 3, 1))


def test_best_response_takes_bools_and_numpy_integers_as_indices(tensor):
    # True indexes as 1, as in a Python sequence; it used to end in numpy's
    # "truth value ... is ambiguous".
    assert best_response(tensor, 0, [None, True, 0]) == best_response(tensor, 0, [None, 1, 0])
    assert best_response(tensor, True, (0, None, 1)) == best_response(tensor, 1, (0, None, 1))
    numpy_indices = (None, np.int64(3), np.int32(1))
    assert best_response(tensor, np.int64(0), numpy_indices) == best_response(tensor, 0, (None, 3, 1))


@pytest.mark.parametrize(
    "player, others_fixed, message",
    [
        (0, (None, 1.5, 0), "strategy index 1.5 is not an integer for player 'P2', which has 4 strategies"),
        (0, (None, 3, None), "strategy index None is not an integer for player 'P3', which has 2 strategies"),
        (1.0, (0, None, 1), "player 1.0 is not an integer for 3 players"),
    ],
    ids=["float", "none", "float-player"],
)
def test_best_response_rejects_a_non_integer_index(tensor, player, others_fixed, message):
    # These used to reach numpy, or index a list with a float.
    with pytest.raises(ValueError, match=re.escape(message)):
        best_response(tensor, player, others_fixed)


def assert_tolerance_rejected(tensor, tolerance):
    """Each solver, ``solve`` and ``SolveReport`` refuse ``tolerance`` with
    the one message of the tolerance rule."""
    calls = [
        lambda: find_pure_nash(tensor, tolerance=tolerance),
        lambda: find_compromise(tensor, tolerance=tolerance),
        lambda: best_response(tensor, 0, (None, 0, 0), tolerance=tolerance),
        lambda: solve(tensor, tolerance=tolerance),
        lambda: SolveReport(tensor, tolerance, None, None),
    ]
    message = f"tolerance must be a finite number >= 0, got {tolerance!r}"
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_negative_tolerance_rejected(tensor):
    assert_tolerance_rejected(tensor, -1e-3)
    with pytest.raises(ValueError):
        best_response(tensor, 0, (None, 0, 0), tolerance=-1.0)


def test_nan_tolerance_rejected(tensor):
    # inf and -inf are not finite either.
    for tolerance in (float("nan"), float("inf"), -float("inf")):
        assert_tolerance_rejected(tensor, tolerance)


# --- ideal vector and compromise ---------------------------------------------

def test_ideal_vector_fixture(tensor):
    assert ideal_vector(tensor) == (6.564, 7.845, 4.537)


def test_ideal_vector_single_cell():
    t = _tensor_from_values(np.array([[[[2.5, -1.0, 0.25]]]]))
    assert ideal_vector(t) == (2.5, -1.0, 0.25)


def test_ideal_vector_all_zero():
    t = _tensor_from_values(np.zeros((2, 3, 2)))
    assert ideal_vector(t) == (0.0, 0.0)


def test_computed_zeros_are_positive():
    # Which zero a max over 0.0 and -0.0 returns depends on numpy's reduction
    # loop; every zero that ideal, shortfall and min_residual compute is +0.0.
    rng = np.random.default_rng(3)
    for n in (1, 2, 9, 12):
        for rows in range(1, 70):
            values = rng.choice([0.0, -0.0, -1.0], size=(rows,) + (1,) * (n - 1) + (n,))
            result = find_compromise(_tensor_from_values(values))
            for computed in map(np.asarray, (result.ideal, result.shortfall, result.min_residual)):
                assert not (np.signbit(computed) & (computed == 0)).any()


def test_compromise_fixture(tensor):
    result = find_compromise(tensor)
    assert result.minimizers == ((0, 3, 1),)
    assert result.min_residual == pytest.approx(1.964, abs=1e-9)
    assert result.ideal == (6.564, 7.845, 4.537)
    assert result.residuals[(0, 0, 0)] == pytest.approx(6.12, abs=1e-9)
    # recomputation from the printed tables gives 3.840 here
    assert result.residuals[(1, 0, 0)] == pytest.approx(3.840, abs=1e-9)
    assert len(result.residuals) == 24


def test_compromise_residuals_in_normative_order(tensor):
    result = find_compromise(tensor)
    assert list(result.residuals.keys()) == list(iterate_profiles(tensor.shape))


def test_compromise_zero_residual_when_ideal_attained():
    values = np.array([[[5.0, 2.0]], [[1.0, 1.0]]])  # (0, 0) attains both maxima
    t = _tensor_from_values(values)
    result = find_compromise(t)
    assert result.minimizers == ((0, 0),)
    assert result.min_residual == 0.0


def test_compromise_reports_all_tied_minimizers():
    values = np.array([[[4.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [0.0, 0.0]]])
    t = _tensor_from_values(values)
    result = find_compromise(t)
    # profiles (0,0) and (0,1) both have residual 4; (1,0) has residual 3
    assert result.residuals[(0, 0)] == 4.0
    assert result.residuals[(0, 1)] == 4.0
    assert result.min_residual == 3.0
    assert result.minimizers == ((1, 0),)

    tied = _tensor_from_values(
        np.array([[[4.0, 0.0], [0.0, 4.0]], [[2.0, 1.0], [1.0, 2.0]]])
    )
    tied_result = find_compromise(tied)
    assert tied_result.minimizers == ((1, 0), (1, 1))


def test_solvers_warn_of_nothing_when_a_value_overflows():
    # max - tolerance is -inf for every player here, a bound that admits
    # every strategy; a compromise residual that overflows is refused.
    t = tensor_from_dict({
        "shape": [2, 2],
        "payoffs": [[-1e308, -1e308], [-1.5e308, -1e308], [-1e308, -1.7e308], [-1.2e308, -1.1e308]],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_pure_nash(t, 1e308).equilibria == ((0, 0), (0, 1), (1, 0), (1, 1))
        with pytest.raises(OverflowError) as raised:
            solve(tensor_from_dict(OVERFLOW_TENSOR))
    assert str(raised.value) == (
        "compromise residual overflows to inf at profile [1, 0] "
        "(labels ['b\\n', 'x']): payoffs too far apart for a float"
    )


# --- oracle equivalence and invariance properties ----------------------------

@settings(max_examples=80, deadline=None)
@given(t=tensors(max_players=5, max_strategies=4))
def test_nash_agrees_with_oracle(t):
    payoffs = profile_payoffs(t)
    assert list(find_pure_nash(t).equilibria) == oracle_nash(t.shape, payoffs, 1e-9)


@settings(max_examples=80, deadline=None)
@given(t=tensors(max_players=5, max_strategies=4))
def test_compromise_agrees_with_oracle(t):
    payoffs = profile_payoffs(t)
    ideal, residuals, minimizers, min_residual = oracle_compromise(t.shape, payoffs, 1e-9)
    result = find_compromise(t)
    assert list(result.ideal) == ideal
    assert result.residuals == residuals
    assert list(result.minimizers) == minimizers
    assert result.min_residual == min_residual


@settings(max_examples=60, deadline=None)
@given(t=tensors(max_players=4, max_strategies=4))
def test_nash_soundness_and_completeness(t):
    result = find_pure_nash(t)
    equilibria = set(result.equilibria)
    for profile in iterate_profiles(t.shape):
        improving = []
        for player in range(t.n_players):
            own = t.values[profile][player]
            for alternative in range(t.shape[player]):
                deviated = list(profile)
                deviated[player] = alternative
                if t.values[tuple(deviated)][player] - own > 1e-9:
                    improving.append((player, alternative))
        if profile in equilibria:
            assert improving == []
        else:
            assert improving


@settings(max_examples=60, deadline=None)
@given(t=tensors(), player_offset=st.floats(0.1, 50), player_pick=st.integers(0, 10))
def test_constant_shift_for_one_player_preserves_solutions(t, player_offset, player_pick):
    player = player_pick % t.n_players
    shifted_values = np.array(t.values)
    shifted_values[..., player] += player_offset
    shifted = PayoffTensor(
        shape=t.shape,
        players=t.players,
        strategy_labels=t.strategy_labels,
        values=shifted_values,
        provenance=t.provenance,
    )
    assert find_pure_nash(shifted).equilibria == find_pure_nash(t).equilibria
    assert find_compromise(shifted).minimizers == find_compromise(t).minimizers


@settings(max_examples=60, deadline=None)
@given(t=tensors(), scale=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_common_positive_scaling_preserves_solutions(t, scale):
    scaled = PayoffTensor(
        shape=t.shape,
        players=t.players,
        strategy_labels=t.strategy_labels,
        values=np.array(t.values) * scale,
        provenance=t.provenance,
    )
    base_compromise = find_compromise(t)
    scaled_compromise = find_compromise(scaled)
    assert find_pure_nash(scaled).equilibria == find_pure_nash(t).equilibria
    assert scaled_compromise.minimizers == base_compromise.minimizers
    # power-of-two scaling keeps the arithmetic exact
    for profile, residual in base_compromise.residuals.items():
        assert scaled_compromise.residuals[profile] == residual * scale
    assert scaled_compromise.min_residual == base_compromise.min_residual * scale


@settings(max_examples=40, deadline=None)
@given(t=tensors(max_players=3, max_strategies=3))
def test_compromise_residual_recomputation(t):
    result = find_compromise(t)
    for profile, residual in result.residuals.items():
        direct = max(
            result.ideal[i] - float(t.values[profile][i]) for i in range(t.n_players)
        )
        assert residual == direct
        assert result.min_residual <= residual


# --- the residuals mapping -----------------------------------------------------

def _residuals_dict(result, shape):
    """The residuals as a dict built one profile at a time."""
    return {u: float(result.shortfall[u]) for u in iterate_profiles(shape)}


@settings(max_examples=80, deadline=None)
@given(t=tensors(), tolerance=st.sampled_from([0.0, 1e-9, 0.5, 5.0]))
def test_residuals_mapping_behaves_as_the_dict(t, tolerance):
    result = find_compromise(t, tolerance)
    residuals = result.residuals
    expected = _residuals_dict(result, t.shape)
    assert residuals == expected and expected == residuals
    assert list(residuals) == list(expected)
    assert list(residuals.items()) == list(expected.items())
    assert all(type(value) is float for value in residuals.values())
    assert list(residuals.values()) == list(expected.values())
    assert len(residuals) == len(expected)
    for profile in expected:
        assert profile in residuals
        assert residuals[profile] == expected[profile]
        assert residuals.get(profile) == expected.get(profile)

    first = next(iter(expected))
    absent = [first[:-1], first + (0,), [0] * t.n_players, 0, None]
    for p, size in enumerate(t.shape):
        for index in (-1, size, 0.5, "0"):
            absent.append(first[:p] + (index,) + first[p + 1:])
    for key in absent:
        if isinstance(key, list):
            with pytest.raises(TypeError):
                expected[key]
            with pytest.raises(TypeError):
                residuals[key]
            continue
        assert key not in residuals and key not in expected
        assert residuals.get(key, "missing") == "missing"
        with pytest.raises(KeyError):
            residuals[key]
    # Keys a dict lookup would equate with the int index.
    for alias in (tuple(map(float, first)), tuple(map(np.int64, first)), tuple(map(bool, first))):
        if alias in expected:
            assert residuals[alias] == expected[alias]

    with pytest.raises(TypeError):
        residuals[first] = 0.0
    with pytest.raises(TypeError):
        del residuals[first]
    old_minimizers = tuple(
        u for u, r in expected.items() if r <= result.min_residual + tolerance
    )
    assert result.minimizers == old_minimizers
    assert all(type(i) is int for u in result.minimizers for i in u)



def test_residuals_dict_is_built_once(tensor):
    result = find_compromise(tensor)
    assert result.residuals is result.residuals


# --- results as arrays ---------------------------------------------------------

def test_result_arrays_are_read_only(tensor):
    nash, compromise = find_pure_nash(tensor), find_compromise(tensor)
    for array in (nash.flat, compromise.flat, compromise.shortfall):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("solver", [find_pure_nash, find_compromise])
def test_listing_every_profile_holds_no_tuple_per_profile(solver):
    # Every payoff ties, so every one of the 262,144 profiles is listed. One
    # index tuple and one payoff tuple per listed profile peaked at about
    # 450 bytes a profile.
    t = _tensor_from_values(np.zeros((8,) * 6 + (6,)))
    tracemalloc.start()
    try:
        result = solver(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.flat.size == t.n_profiles
    assert peak < 128 * t.n_profiles


@pytest.mark.parametrize("solver", [find_pure_nash, find_compromise])
def test_solvers_gather_no_payoffs(solver, monkeypatch):
    # A result holds the flat indices of the profiles its solver picks, not a
    # copy of their payoffs: that copy was 48 bytes a profile when every
    # profile of the all-ties 8**6 game is listed.
    t = _tensor_from_values(np.zeros((8,) * 6 + (6,)))
    tracemalloc.start()
    try:
        result = solver(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.flat.size == t.n_profiles
    assert peak < 24 * t.n_profiles

    def unread(self, flat):
        raise AssertionError("payoffs_at was called")

    tensors = [fixture_tensor(), build_tensor(fixture_scenario())]
    expected = [solver(each).flat.tolist() for each in tensors]
    monkeypatch.setattr(PayoffTensor, "payoffs_at", unread)
    assert [solver(each).flat.tolist() for each in tensors] == expected


def test_payoffs_at_holds_each_listed_payoff_once():
    # A gathered array per player, then np.stack of them, held every listed
    # payoff twice: a peak of 96 bytes a profile for a 48-byte result.
    t = _tensor_from_values(np.zeros((8,) * 6 + (6,)))
    flat = np.flatnonzero(np.ones(t.shape, bool))
    tracemalloc.start()
    try:
        payoffs = t.payoffs_at(flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payoffs.shape == (t.n_profiles, t.n_players)
    assert peak < 64 * t.n_profiles
