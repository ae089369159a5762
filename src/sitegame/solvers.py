"""Solution concepts for the finite game: pure Nash equilibria and the
compromise set.

A profile is a pure Nash equilibrium when no player can strictly improve
their own payoff by switching to another of their strategies while everyone
else stays put (weak inequality: deviations that merely tie do not disqualify
a profile). The compromise set minimizes, over profiles, the largest shortfall
of any player's payoff from that player's best achievable payoff.

Ties are resolved with an absolute tolerance; strategies or profiles within
``tolerance`` of the optimum all count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import DEFAULT_TOLERANCE
from .tensor import PayoffTensor, Profile, checked_profile, iterate_profiles


@dataclass(frozen=True)
class NashResult:
    """Pure equilibria in normative profile order, with their payoff vectors."""

    equilibria: tuple[Profile, ...]
    payoffs: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class CompromiseResult:
    """Ideal payoffs, per-profile shortfall residuals and their minimizers.

    ``shortfall`` holds ``max_i(ideal[i] - payoff_i)`` for every profile, as
    a read-only array of the tensor's shape; ``minimizers`` are all profiles
    whose residual is within tolerance of ``min_residual``.
    """

    ideal: tuple[float, ...]
    minimizers: tuple[Profile, ...]
    min_residual: float
    shortfall: np.ndarray = field(compare=False)

    @cached_property
    def residuals(self) -> MappingProxyType[Profile, float]:
        """Read-only ``{profile: residual}`` dict in normative order, built on
        first access with one entry per profile; index ``shortfall`` for a
        point lookup."""
        return MappingProxyType(
            dict(zip(iterate_profiles(self.shortfall.shape), self.shortfall.reshape(-1).tolist()))
        )


def _check_tolerance(tolerance: float) -> None:
    if not tolerance >= 0:  # also rejects NaN
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")


def best_response(
    tensor: PayoffTensor,
    player: int,
    others_fixed: Sequence[int | None],
    tolerance: float = DEFAULT_TOLERANCE,
) -> set[int]:
    """Indices of `player`'s payoff-maximizing strategies, ties included.

    ``others_fixed`` holds one strategy index per player; the entry at
    ``player``'s own position is ignored (may be None). Raises ValueError for
    a player, an index or a profile length out of range.
    """
    _check_tolerance(tolerance)
    if not 0 <= player < tensor.n_players:
        raise ValueError(f"player {player!r} is out of range for {tensor.n_players} players")
    fixed = [0 if p == player else index for p, index in enumerate(others_fixed)]
    index: list[object] = list(checked_profile(fixed, tensor.shape, tensor.players))
    index[player] = slice(None)
    line = tensor.values[tuple(index) + (player,)]
    best = float(line.max())
    return {i for i, v in enumerate(line) if v >= best - tolerance}


def find_pure_nash(
    tensor: PayoffTensor, tolerance: float = DEFAULT_TOLERANCE
) -> NashResult:
    """Enumerate all pure Nash equilibria of the tensor game.

    A profile qualifies iff every player's strategy is within ``tolerance`` of
    that player's best response to the others' fixed strategies.
    """
    _check_tolerance(tolerance)
    stable = np.ones(tensor.shape, dtype=bool)
    for p in range(tensor.n_players):
        payoffs_p = tensor.values[..., p]
        stable &= payoffs_p >= payoffs_p.max(axis=p, keepdims=True) - tolerance
    # argwhere and boolean indexing both list profiles in C order, which is
    # the normative profile order.
    equilibria = tuple(map(tuple, np.argwhere(stable).tolist()))
    return NashResult(equilibria, tuple(map(tuple, tensor.values[stable].tolist())))


def ideal_vector(tensor: PayoffTensor) -> tuple[float, ...]:
    """Componentwise maximum payoff each player attains over all profiles."""
    flat = tensor.values.reshape(-1, tensor.n_players)
    return tuple(float(v) for v in flat.max(axis=0))


def find_compromise(
    tensor: PayoffTensor, tolerance: float = DEFAULT_TOLERANCE
) -> CompromiseResult:
    """Minimize the worst per-player shortfall from the ideal vector."""
    _check_tolerance(tolerance)
    ideal = ideal_vector(tensor)
    shortfall = (np.asarray(ideal) - tensor.values).max(axis=-1)
    shortfall.setflags(write=False)
    min_residual = float(shortfall.min())
    # argwhere lists indices in C order, which is the normative profile order.
    minimizers = tuple(
        map(tuple, np.argwhere(shortfall <= min_residual + tolerance).tolist())
    )
    return CompromiseResult(ideal, minimizers, min_residual, shortfall)
