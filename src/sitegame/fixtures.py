"""Bundled worked example: three players siting facilities among five natural
objects.

Two fixtures ship together. ``fixture_scenario`` carries the raw instance
data (coordinates, coefficient tables, emissions); tensors built from it with
:func:`sitegame.tensor.build_tensor` follow the standalone payoff formula,
under which each player's payoff is independent of the other players' choices.
``fixture_tensor`` transcribes the example's published payoff matrices, which
embed cross-player interaction the instance data alone does not determine;
it is the input on which the example's solver results are reproduced.

The example leaves the spacing band unspecified; rho_min=0.5 and rho_max=100
are placeholders chosen so every listed site is feasible.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .scenario import CandidateSite, NaturalObject, Point, PlayerSpec, RegionConfig, Scenario
from .tensor import PROVENANCE_LOADED, PayoffTensor, dumps_tensor
from .scenario import dumps_scenario

SCENARIO_FILENAME = "fixture_scenario.json"
TENSOR_FILENAME = "fixture_tensor.json"


def fixture_scenario() -> Scenario:
    """The example instance: region, five objects, three players with sites."""
    objects = tuple(
        NaturalObject(f"A{j + 1}", Point(x, y))
        for j, (x, y) in enumerate([(2, 3), (5, 9), (9, 6), (14, 1), (8, 13)])
    )
    # Coefficient rows are per candidate site, columns per natural object.
    player1 = PlayerSpec(
        id="P1",
        emission=60,
        sites=(
            CandidateSite("B1", Point(7, 8)),
            CandidateSite("B2", Point(1, 2)),
            CandidateSite("B3", Point(9, 10)),
        ),
        loss=(
            (10, 4, 5, 13, 9),
            (1, 11, 12, 15, 15),
            (13, 8, 6, 14, 6),
        ),
        damage_weight=(
            (1.15, 1.5, 1, 2.2, 1.9),
            (2.75, 1.95, 1.15, 1.8, 2.6),
            (1.45, 2.15, 1.05, 2.9, 1.4),
        ),
    )
    player2 = PlayerSpec(
        id="P2",
        emission=15,
        sites=(
            CandidateSite("C1", Point(6, 4)),
            CandidateSite("C2", Point(11, 15)),
            CandidateSite("C3", Point(5, 3)),
            CandidateSite("C4", Point(8, 15)),
        ),
        loss=(
            (5, 7, 4, 11, 13),
            (17, 10, 13, 16, 3),
            (2, 8, 6, 13, 14),
            (15, 9, 12, 18, 1),
        ),
        damage_weight=(
            (2.4, 1.67, 2.45, 1.85, 1.1),
            (1.96, 1.02, 1.75, 2.3, 2.7),
            (1.34, 1.73, 1, 1.6, 1.32),
            (2.05, 1.09, 2.05, 1.31, 1.09),
        ),
    )
    player3 = PlayerSpec(
        id="P3",
        emission=35,
        sites=(
            CandidateSite("D1", Point(4, 12)),
            CandidateSite("D2", Point(6, 1)),
        ),
        loss=(
            (8, 1, 5, 10, 2),
            (3, 7, 4, 6, 9),
        ),
        damage_weight=(
            (2.9, 1.05, 2.1, 1.9, 1.08),
            (1.25, 1.64, 1.36, 1.82, 1.6),
        ),
    )
    return Scenario(
        region=RegionConfig(x_max=15, y_max=15, rho_min=0.5, rho_max=100, pi_value=3.0),
        objects=objects,
        players=(player1, player2, player3),
    )


# Published payoff matrices, one per strategy of player 3: rows are player 1's
# strategies (B1..B3), columns player 2's (C1..C4), entries (H1, H2, H3).
_MATRIX_D1 = [
    [(0.444, 3.931, 1.007), (2.326, 2.565, 0.186), (0.654, 4.220, 2.633), (0.836, 3.759, 1.487)],
    [(5.339, 4.515, 0.697), (6.309, 3.178, 2.525), (3.501, 3.674, 2.323), (6.101, 4.658, 2.044)],
    [(1.154, 5.100, 1.146), (0.902, 1.784, 2.478), (3.210, 4.766, 1.936), (0.613, 2.615, 1.239)],
]
_MATRIX_D2 = [
    [(2.640, 1.700, 1.201), (4.757, 4.739, 1.735), (4.025, 2.284, 2.135), (4.600, 6.946, 4.537)],
    [(0.867, 2.444, 1.975), (3.085, 5.352, 2.562), (0.589, 1.589, 3.336), (1.109, 7.845, 4.003)],
    [(6.348, 3.028, 0.320), (5.554, 4.126, 3.523), (6.564, 2.830, 4.270), (3.643, 6.047, 4.350)],
]


def fixture_tensor() -> PayoffTensor:
    """The example's transcribed 3x4x2 payoff tensor."""
    # Stacked, the matrices put player 3's axis first; it goes third.
    values = np.array([_MATRIX_D1, _MATRIX_D2]).transpose(1, 2, 0, 3)
    return PayoffTensor(
        shape=(3, 4, 2),
        players=("P1", "P2", "P3"),
        strategy_labels=(("B1", "B2", "B3"), ("C1", "C2", "C3", "C4"), ("D1", "D2")),
        values=values,
        provenance=PROVENANCE_LOADED,
    )


def write_fixtures(directory: Path | str) -> list[Path]:
    """Write both fixture files into a directory (created if missing)."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    scenario_path = target / SCENARIO_FILENAME
    tensor_path = target / TENSOR_FILENAME
    scenario_path.write_text(dumps_scenario(fixture_scenario()), encoding="utf-8")
    tensor_path.write_text(dumps_tensor(fixture_tensor()), encoding="utf-8")
    return [scenario_path, tensor_path]
