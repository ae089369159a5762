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

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import DEFAULT_TOLERANCE, _checked_tolerance
from .document import checked_index
from .tensor import PayoffTensor, Profile, checked_profile, iterate_profiles, profiles_at
from .tensor import _ReadOnlyArrays


@dataclass(frozen=True, eq=False)
class NashResult(_ReadOnlyArrays):
    """Pure equilibria in normative order: ``flat``, their flat C-order
    indices in a game of ``shape``, as a read-only array; ``equilibria`` is
    its tuple view, built on first access. It holds no payoffs: read them
    with ``tensor.payoffs_at(flat)``. Compares and hashes by identity, as it
    holds an array."""

    shape: tuple[int, ...]
    flat: np.ndarray = field(repr=False)

    @cached_property
    def equilibria(self) -> tuple[Profile, ...]:
        return profiles_at(self.flat, self.shape)


@dataclass(frozen=True, eq=False)
class CompromiseResult(_ReadOnlyArrays):
    """Ideal payoffs; ``shortfall``, ``max_i(ideal[i] - payoff_i)`` at every
    profile, as a read-only array of the tensor's shape; and the minimizers,
    the profiles whose residual is within tolerance of ``min_residual``,
    listed as in NashResult: ``flat`` and its tuple view ``minimizers``."""

    ideal: tuple[float, ...]
    flat: np.ndarray = field(repr=False)
    min_residual: float
    shortfall: np.ndarray = field(repr=False)

    @cached_property
    def minimizers(self) -> tuple[Profile, ...]:
        return profiles_at(self.flat, self.shortfall.shape)

    @cached_property
    def residuals(self) -> MappingProxyType[Profile, float]:
        """Read-only ``{profile: residual}`` dict in normative order, built on
        first access with one entry per profile; index ``shortfall`` for a
        point lookup."""
        return MappingProxyType(
            dict(zip(iterate_profiles(self.shortfall.shape), self.shortfall.reshape(-1).tolist()))
        )


def best_response(
    tensor: PayoffTensor,
    player: int,
    others_fixed: Sequence[int | None],
    tolerance: float = DEFAULT_TOLERANCE,
) -> set[int]:
    """Indices of `player`'s payoff-maximizing strategies, ties included.

    ``others_fixed`` holds one strategy index per player; the entry at
    ``player``'s own position is ignored (may be None). Raises ValueError for
    a player or an index that is not an integer in range (see checked_index),
    or a profile of the wrong length.
    """
    _checked_tolerance(tolerance)
    player = checked_index(player, tensor.n_players, "player", "players")
    fixed = [0 if p == player else index for p, index in enumerate(others_fixed)]
    index: list[object] = list(checked_profile(fixed, tensor.shape, tensor.players))
    index[player] = slice(None)
    line = np.broadcast_to(tensor.player_payoffs(player), tensor.shape)[tuple(index)]
    best = float(line.max())
    return {i for i, v in enumerate(line) if v >= best - tolerance}


def find_pure_nash(
    tensor: PayoffTensor, tolerance: float = DEFAULT_TOLERANCE
) -> NashResult:
    """Enumerate all pure Nash equilibria of the tensor game.

    A profile qualifies iff every player's strategy is within ``tolerance`` of
    that player's best response to the others' fixed strategies.
    """
    _checked_tolerance(tolerance)
    stable = np.ones(tensor.shape, dtype=bool)
    for p in range(tensor.n_players):
        payoffs_p = tensor.player_payoffs(p)
        with np.errstate(over="ignore"):  # a bound of -inf admits every strategy
            stable &= payoffs_p >= payoffs_p.max(axis=p, keepdims=True) - tolerance
    return NashResult(tensor.shape, np.flatnonzero(stable))


def ideal_vector(tensor: PayoffTensor) -> tuple[float, ...]:
    """Componentwise maximum payoff each player attains over all profiles; a
    zero is +0.0, so that no shortfall ``best - u`` is -0.0 either."""
    return tuple(float(tensor.player_payoffs(p).max()) + 0.0 for p in range(tensor.n_players))


def find_compromise(
    tensor: PayoffTensor, tolerance: float = DEFAULT_TOLERANCE
) -> CompromiseResult:
    """Minimize the worst per-player shortfall from the ideal vector; raises
    OverflowError naming the first profile, in C order, whose residual
    overflows to inf, its payoffs further apart than the largest float."""
    _checked_tolerance(tolerance)
    ideal = ideal_vector(tensor)
    # (ideal - values).max(axis=-1), one player at a time: no array holds a
    # value per profile and player.
    shortfall = np.full(tensor.shape, -np.inf)
    with np.errstate(over="ignore"):  # an overflow is raised below
        for p, best in enumerate(ideal):
            np.maximum(shortfall, best - tensor.player_payoffs(p), out=shortfall)
    if not math.isfinite(shortfall.max()):  # the first inf, by one bool a profile
        profile = profiles_at([np.isinf(shortfall).argmax()], tensor.shape)[0]
        raise OverflowError(
            f"compromise residual overflows to inf at profile {list(profile)} "
            f"(labels {list(tensor.labels_for(profile))!r}): payoffs too far apart for a float"
        )
    min_residual = float(shortfall.min())
    minimal = shortfall <= min_residual + tolerance
    return CompromiseResult(ideal, np.flatnonzero(minimal), min_residual, shortfall)
