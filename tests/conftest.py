import contextlib
import dataclasses
import hashlib
import importlib
import math
import resource

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume

from sitegame import (
    CandidateSite,
    NaturalObject,
    PayoffTensor,
    PlayerSpec,
    Point,
    RegionConfig,
    Scenario,
    PROVENANCE_LOADED,
    DEFAULT_TOLERANCE,
    ZeroDistanceError,
    build_tensor,
    fixture_scenario,
    fixture_tensor,
)


# Session scope is safe (values are immutable) and keeps hypothesis happy
# about fixtures inside @given tests.
@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return fixture_scenario()


@pytest.fixture(scope="session")
def tensor() -> PayoffTensor:
    return fixture_tensor()


# Integer coordinate grids keep distance arithmetic exact, which lets the
# translation/scaling property tests assert equality instead of closeness.
_coord = st.integers(min_value=0, max_value=20)


@st.composite
def scenarios(draw, max_players: int = 3, max_sites: int = 3, max_objects: int = 4):
    """Structurally valid scenarios (validate() returns no violations)."""
    x_max = float(draw(st.integers(10, 30)))
    y_max = float(draw(st.integers(10, 30)))
    rho_min = draw(st.sampled_from([0.25, 0.5, 1.0]))
    rho_max = float(draw(st.integers(50, 200)))
    pi_value = draw(st.sampled_from([3.0, math.pi, 6.0]))

    m = draw(st.integers(1, max_objects))
    objects = tuple(
        NaturalObject(
            f"A{j + 1}",
            Point(float(draw(st.integers(0, int(x_max)))), float(draw(st.integers(0, int(y_max))))),
        )
        for j in range(m)
    )

    n = draw(st.integers(1, max_players))
    players = []
    for i in range(n):
        k = draw(st.integers(1, max_sites))
        sites = tuple(
            CandidateSite(
                f"P{i + 1}S{s + 1}",
                Point(
                    float(draw(st.integers(0, int(x_max)))),
                    float(draw(st.integers(0, int(y_max)))),
                ),
            )
            for s in range(k)
        )
        loss = tuple(
            tuple(float(draw(st.integers(0, 20))) for _ in range(m)) for _ in range(k)
        )
        damage_weight = tuple(
            tuple(draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.75])) for _ in range(m))
            for _ in range(k)
        )
        players.append(
            PlayerSpec(
                id=f"P{i + 1}",
                emission=float(draw(st.integers(0, 80))),
                sites=sites,
                loss=loss,
                damage_weight=damage_weight,
            )
        )
    return Scenario(
        region=RegionConfig(x_max, y_max, rho_min, rho_max, pi_value),
        objects=objects,
        players=tuple(players),
    )


@st.composite
def tensors(draw, max_players: int = 4, max_strategies: int = 4):
    """Random dense payoff tensors with uniform payoffs in [-10, 10]."""
    n = draw(st.integers(1, max_players))
    shape = tuple(draw(st.integers(1, max_strategies)) for _ in range(n))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).uniform(-10.0, 10.0, size=shape + (n,))
    return PayoffTensor(
        shape=shape,
        players=tuple(f"P{i + 1}" for i in range(n)),
        strategy_labels=tuple(tuple(f"S{j + 1}" for j in range(s)) for s in shape),
        values=values,
        provenance=PROVENANCE_LOADED,
    )


def random_tensor(rng: np.random.Generator, max_players: int = 4, max_strategies: int = 4) -> PayoffTensor:
    """Seeded-RNG tensor generator for bulk oracle-equivalence runs."""
    n = int(rng.integers(1, max_players + 1))
    shape = tuple(int(rng.integers(1, max_strategies + 1)) for _ in range(n))
    values = rng.uniform(-10.0, 10.0, size=shape + (n,))
    return PayoffTensor(
        shape=shape,
        players=tuple(f"P{i + 1}" for i in range(n)),
        strategy_labels=tuple(tuple(f"S{j + 1}" for j in range(s)) for s in shape),
        values=values,
        provenance=PROVENANCE_LOADED,
    )


# Floats whose JSON spelling is easy to get wrong: signed zero, the smallest
# subnormal, the switch to exponent notation at 1e-05 and 1e16, the largest
# double, and integer-valued floats. Drawing from a short pool also repeats
# values, as a tensor built from a scenario does.
SPECIAL_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.0001, 1e16, 1e15, -1e16,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.5,
)

# Labels exercising JSON string escapes: quotes, backslashes, control
# characters, non-ASCII (escaped by ensure_ascii) and '%', which must not be
# read as a format directive.
_json_labels = st.text(alphabet='aZ"\\\n\t\x00%sé☃\U0001f600', max_size=5)


# The same characters plus those of the text report's row layout
# "  (a, b) = (0, 1): ...": separators and parentheses.
text_labels = st.text(alphabet='aZ"\\\n\t\x00%s, ()=:é☃\U0001f600', max_size=5)


@st.composite
def json_tensors(draw, max_players: int = 3, max_strategies: int = 3, labels=_json_labels):
    """Tensors with awkward labels and floats, for JSON rendering tests."""
    n = draw(st.integers(1, max_players))
    shape = tuple(draw(st.integers(1, max_strategies)) for _ in range(n))
    size = math.prod(shape) * n
    number = st.one_of(
        st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )
    values = draw(st.lists(number, min_size=size, max_size=size))
    return PayoffTensor(
        shape=shape,
        players=tuple(draw(labels) for _ in range(n)),
        strategy_labels=tuple(tuple(draw(labels) for _ in range(s)) for s in shape),
        values=np.array(values).reshape(shape + (n,)),
        provenance=PROVENANCE_LOADED,
    )


# A tensor document with finite payoffs 2e308 apart: the compromise residual
# of (b, x) and of (b, y) overflows.
OVERFLOW_TENSOR = {
    "shape": [2, 2],
    "strategy_labels": [["a", "b\n"], ["x", "y"]],
    "payoffs": [[1e308, 0.0], [1e308, 1.0], [-1e308, 0.0], [-1e308, 2.0]],
}


def far_apart_scenario() -> Scenario:
    """A valid scenario whose one site, P1S1 at (0, 0), is farther from its
    one object, A1 at (1.7e308, 1.7e308), than the largest float."""
    return Scenario(
        region=RegionConfig(1.7e308, 1.7e308, 1.0, 1e308),
        objects=(NaturalObject("A1", Point(1.7e308, 1.7e308)),),
        players=(
            PlayerSpec("P1", 1.0, (CandidateSite("P1S1", Point(0.0, 0.0)),), ((1.0,),), ((1.0,),)),
        ),
    )


def seeded_scenario(players: int, sites: int, objects: int, seed: int = 0) -> Scenario:
    """A valid scenario with uniformly random sites, objects and
    coefficients in a 100 x 100 square, and a band wide enough for all."""
    rng = np.random.default_rng(seed)

    def point():
        return Point(*map(float, rng.uniform(0.0, 100.0, 2)))

    def rows(high):
        return tuple(tuple(map(float, rng.uniform(0.0, high, objects))) for _ in range(sites))

    return Scenario(
        region=RegionConfig(100.0, 100.0, 1e-9, 1000.0),
        objects=tuple(NaturalObject(f"A{j + 1}", point()) for j in range(objects)),
        players=tuple(
            PlayerSpec(
                f"P{i + 1}",
                float(rng.uniform(1.0, 80.0)),
                tuple(CandidateSite(f"P{i + 1}S{k + 1}", point()) for k in range(sites)),
                rows(20.0),
                rows(3.0),
            )
            for i in range(players)
        ),
    )


def with_twin_sites(scenario: Scenario, picks) -> Scenario:
    """``scenario`` with player p's sites ``picks[p]`` listed once more, after
    its own, each under a new id at the same position with the same
    coefficient rows: a twin ties with its site in every profile."""
    players = []
    for player, pick in zip(scenario.players, picks):
        sites = [player.sites[k] for k in pick]
        twins = [CandidateSite(f"{site.id}'{j}", site.position) for j, site in enumerate(sites)]
        players.append(
            dataclasses.replace(
                player,
                sites=(*player.sites, *twins),
                loss=(*player.loss, *(player.loss[k] for k in pick)),
                damage_weight=(*player.damage_weight, *(player.damage_weight[k] for k in pick)),
            )
        )
    return dataclasses.replace(scenario, players=tuple(players))


# Totals of tied separable games. Every difference and sum of two of them, and
# of one of them and a tolerance of TIED_TOLERANCES but the last, is exact:
# 1.0 and 0.5 sit exactly 0.5 apart, on the inclusive bound of tolerance 0.5,
# and 1.0 and 0.5 - 2**-10 just outside it.
TIED_TOTALS = (1.0, 0.5, 0.5 - 2**-10, 0.0, -1.0)
TIED_TOLERANCES = (0.0, 2**-10, 0.5, DEFAULT_TOLERANCE)


@st.composite
def tied_separable_games(draw, max_players: int = 4, max_strategies: int = 5):
    """``(tensor, scenario, tolerance)``: a separable game whose argmax and
    minimizer sets often have several members, built one of two ways.

    - ``PayoffTensor(..., values=None, totals=...)``, with totals drawn from
      TIED_TOTALS, a tolerance from TIED_TOLERANCES and ``scenario`` None,
      a third of them of ``max_players`` players of 3 strategies or more;
    - ``build_tensor(scenario)`` of a scenario from ``scenarios`` with up to
      two twin sites a player (see with_twin_sites), and DEFAULT_TOLERANCE.
    """
    form = draw(st.sampled_from(["totals", "many totals", "scenario"]))
    if form != "scenario":
        # "many totals": max_players players of 3 strategies or more.
        many = form == "many totals"
        n = max_players if many else draw(st.integers(1, max_players))
        shape = tuple(draw(st.integers(3 if many else 1, max_strategies)) for _ in range(n))
        totals = tuple(
            np.array(draw(st.lists(st.sampled_from(TIED_TOTALS), min_size=k, max_size=k)))
            for k in shape
        )
        tensor = PayoffTensor(
            shape=shape,
            players=tuple(f"P{p + 1}" for p in range(n)),
            strategy_labels=tuple(tuple(f"S{k + 1}" for k in range(s)) for s in shape),
            values=None,
            provenance=PROVENANCE_LOADED,
            totals=totals,
        )
        return tensor, None, draw(st.sampled_from(TIED_TOLERANCES))
    scenario = draw(scenarios(max_players=max_players))
    picks = [
        draw(st.lists(st.integers(0, len(player.sites) - 1), max_size=2))
        for player in scenario.players
    ]
    scenario = with_twin_sites(scenario, picks)
    try:
        tensor = build_tensor(scenario)
    except ZeroDistanceError:
        assume(False)
    return tensor, scenario, DEFAULT_TOLERANCE


def dense_values(tensor: PayoffTensor) -> np.ndarray:
    """The ``shape + (n_players,)`` payoff array of a tensor of either form,
    filled by broadcasting each player_payoffs(p): a reference that does not
    read payoffs_at."""
    values = np.empty(tensor.shape + (tensor.n_players,))
    for p in range(tensor.n_players):
        values[..., p] = tensor.player_payoffs(p)
    return values


def assert_same_text(actual: str, expected: str) -> None:
    """``assert actual == expected`` for rendered documents. A failure reports
    the first differing line and both digests; pytest's own diff of two large
    strings takes minutes."""
    if actual == expected:
        return
    ours, theirs = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    differ = (i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b)
    line = next(differ, min(len(ours), len(theirs)))
    digests = [hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16] for text in (actual, expected)]
    raise AssertionError(
        f"texts differ at line {line + 1}: {ours[line:line + 1]!r} != {theirs[line:line + 1]!r} "
        f"(sha256 {digests[0]}, {len(ours)} lines != sha256 {digests[1]}, {len(theirs)} lines)"
    )


def assert_renders_in_blocks(monkeypatch, render, expected: str, rows: int) -> None:
    """``render()`` gives ``expected``, a document of about ``rows`` listing
    rows, whatever the block budget of its listings: one character, so one
    row per block; about one row's width; and about three and a half rows'
    width, which leaves a listing a short last block unless its row count
    happens to be a multiple of three."""
    tensor_module = importlib.import_module("sitegame.tensor")
    width = max(1, len(expected) // rows)
    for budget in (1, width, 3 * width + width // 2):
        monkeypatch.setattr(tensor_module, "BLOCK_CHARS", budget)
        assert_same_text(render(), expected)


class CountingSink:
    """A text stream that keeps only the number of characters written, so a
    test can measure what a writer allocates without holding its output."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


@contextlib.contextmanager
def address_space_grows_at_most(extra_bytes):
    """Cap this process's address space a little above its current size, so
    that a runaway allocation raises MemoryError instead of exhausting the
    machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    cap = size + extra_bytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def twelve_player_scenario() -> Scenario:
    """12 players with 10 sites each around one object: a 10**12-profile
    game whose tensor would take 96 TB."""
    return Scenario(
        region=RegionConfig(x_max=20, y_max=20, rho_min=0.5, rho_max=100),
        objects=(NaturalObject("A1", Point(0, 0)),),
        players=tuple(
            PlayerSpec(
                f"P{i + 1}",
                1.0,
                tuple(CandidateSite(f"P{i + 1}S{k + 1}", Point(k + 1, i + 1)) for k in range(10)),
                ((1.0,),) * 10,
                ((1.0,),) * 10,
            )
            for i in range(12)
        ),
    )
