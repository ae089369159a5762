"""Payoff evaluation for one player's facility at one location.

A facility earns ``loss / distance`` from every natural object and pays
``damage_weight * emission / (2 * pi_value * distance^2)`` in compensation to
every natural object; the payoff is income minus compensation, summed in
ascending object order. Both terms blow up as the facility approaches an
object, so evaluation exactly on top of an object is an error.

:class:`PayoffTerms` evaluates these terms for one player at many locations
at once; :func:`payoff` and :func:`payoff_gradient` are its one-location views.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .document import checked_index
from .scenario import Point, PlayerSpec, Scenario


class ZeroDistanceError(ArithmeticError):
    """The payoff is singular: the evaluated location sits on a natural object,
    or so close to it that a power of the distance in the formula is 0 as a
    float. ``site_id`` is the row's site if the location is its position, else None."""

    def __init__(self, player_id: str, site_id: str | None, object_id: str):
        self.player_id = player_id
        self.site_id = site_id
        self.object_id = object_id
        where = f"site {site_id!r}" if site_id is not None else "location"
        super().__init__(
            f"player {player_id!r}: {where} coincides with natural object {object_id!r}"
        )


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class PayoffBreakdown:
    """Per-object income and damage terms plus their signed sum."""

    income: tuple[float, ...]
    damage: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class Gradient:
    d_x: float
    d_y: float


def _coefficient_row(player: PlayerSpec, position: Point, site_index: int | None) -> int:
    """``site_index`` if given (see checked_index), else the index of the
    candidate site at exactly ``position``."""
    if site_index is not None:
        sites = len(player.sites)
        return checked_index(site_index, sites, "site_index", "candidate sites", player.id)
    for k, site in enumerate(player.sites):
        if site.position.x == position.x and site.position.y == position.y:
            return k
    raise ValueError(
        f"position ({position.x!r}, {position.y!r}) is not a candidate site of "
        f"player {player.id!r}; pass site_index to pick the coefficient row explicitly"
    )


def offsets(
    origins: Sequence[Point], targets: Sequence[Point]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences ``origin - target`` of the coordinates and Euclidean
    distances for every (origin, target) pair: three (origins × targets)
    arrays ``dx``, ``dy`` and ``rho``.

    Each distance is ``math.hypot`` of its differences, so it equals
    :func:`distance` bit for bit; ``np.hypot`` rounds some inputs differently.
    """
    dx = _coordinates(origins, "x")[:, None] - _coordinates(targets, "x")
    dy = _coordinates(origins, "y")[:, None] - _coordinates(targets, "y")
    # Iterating a memoryview yields each difference as a float, without a list.
    rho = np.fromiter(
        map(math.hypot, memoryview(dx.ravel()), memoryview(dy.ravel())), dtype=float, count=dx.size
    )
    return dx, dy, rho.reshape(dx.shape)


def _coordinates(points: Sequence[Point], axis: str) -> np.ndarray:
    return np.fromiter(map(attrgetter(axis), points), dtype=float, count=len(points))


def _coefficients(rows: list[tuple[float, ...]], width: int) -> np.ndarray:
    """``np.array(rows, dtype=float)``: each row packed as C doubles straight
    into its line of the array, when every row has ``width`` entries that
    pack; other rows get ``np.array``'s own result or error."""
    if all(len(row) == width for row in rows):
        out = np.empty((len(rows), width))
        doubles = struct.Struct(f"{width}d")
        try:
            for row, line in zip(rows, out):
                doubles.pack_into(line, 0, *row)
        except (struct.error, OverflowError):
            pass
        else:
            return out
    return np.array(rows, dtype=float)


def _sums(terms: np.ndarray) -> np.ndarray:
    """``sum(row)`` of every row, by ``sum`` itself: the per-object code summed
    income and damage with ``sum``, which compensates float rounding from
    Python 3.12 on, so only ``sum`` gives its totals on every version."""
    # A memoryview of a row yields its terms as floats, without a list.
    return np.fromiter(map(sum, map(memoryview, terms)), dtype=float, count=len(terms))


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """``0.0`` plus each term of every row in ascending object order, one
    addition after another, as the per-object gradient loop added them."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate([start, terms], axis=-1), axis=-1)[..., -1]


class PayoffTerms:
    """The payoff kernel: the income and damage terms of one player (the
    PlayerSpec ``player``) at several locations, as (locations × objects)
    arrays, with their totals and gradients.

    Location r is ``positions[r]`` evaluated with coefficient row ``rows[r]``;
    by default, the player's candidate sites with their own rows. Every
    element is computed with the operations of the per-object formula, in
    its order, and every sum adds as the per-object code did, so each value
    equals a loop over the objects bit for bit. Where that loop divided by
    zero (a distance, or a power of it, that is 0 as a float), the kernel
    raises ZeroDistanceError for the first such location, then object.
    """

    def __init__(
        self,
        scenario: Scenario,
        player_index: int,
        positions: Sequence[Point] | None = None,
        rows: Sequence[int] | None = None,
    ):
        player = scenario.players[player_index]
        if positions is None:
            positions = [site.position for site in player.sites]
            rows = range(len(player.sites))
        self.player = player
        self._positions = positions
        self._rows = rows
        self._objects = scenario.objects
        self.dx, self.dy, self.rho = offsets(positions, [obj.position for obj in self._objects])
        width = len(self._objects)
        self._loss = _coefficients([player.loss[k] for k in rows], width)
        self._weight = _coefficients([player.damage_weight[k] for k in rows], width)
        self._gradient_scale = player.emission / scenario.region.pi_value
        scale = player.emission / (2.0 * scenario.region.pi_value)
        # Python float arithmetic overflows to inf, and makes nan of inf - inf,
        # without a warning; so does the kernel.
        with np.errstate(all="ignore"):
            rho2 = self._nonzero(self.rho * self.rho)
            if self._loss.shape != self.rho.shape or self._weight.shape != self.rho.shape:
                raise ValueError(
                    f"player {player.id!r}: every coefficient row needs one entry per object"
                )
            self.income = self._loss / self.rho
            self.damage = self._weight * scale / rho2
            self.total = _sums(self.income) - _sums(self.damage)

    def _nonzero(self, denominators: np.ndarray) -> np.ndarray:
        """``denominators``, once none is 0; else raises ZeroDistanceError for
        the first location, then object, where one is."""
        if not denominators.all():
            r, j = np.argwhere(denominators == 0.0)[0].tolist()
            site = self.player.sites[self._rows[r]]
            site_id = site.id if site.position == self._positions[r] else None
            raise ZeroDistanceError(self.player.id, site_id, self._objects[j].id)
        return denominators

    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """``d_x`` and ``d_y`` of the total at every location; see
        :func:`payoff_gradient`."""
        with np.errstate(all="ignore"):
            rho2 = self.rho * self.rho
            # rho^4 is 0 wherever rho^3 is, as both are 0 only for rho < 1.
            rho4 = self._nonzero(rho2 * rho2)
            factor = -self._loss / (rho2 * self.rho) + self._weight * self._gradient_scale / rho4
            return _running_sums(factor * self.dx), _running_sums(factor * self.dy)


def _terms_at(
    player_index: int, site_position: Point, scenario: Scenario, site_index: int | None
) -> PayoffTerms:
    player = scenario.players[player_index]
    row = _coefficient_row(player, site_position, site_index)
    return PayoffTerms(scenario, player_index, [site_position], [row])


def payoff(
    player_index: int,
    site_position: Point,
    scenario: Scenario,
    *,
    site_index: int | None = None,
) -> PayoffBreakdown:
    """Evaluate one player's payoff at a location.

    The loss/damage coefficient row is keyed by candidate site. By default the
    row is found by matching ``site_position`` against the player's candidate
    sites exactly; pass ``site_index`` to fix the row and evaluate at an
    arbitrary location (useful for derivative checks and sensitivity probes).
    A ``site_index`` outside ``range(len(sites))`` raises ValueError.
    """
    terms = _terms_at(player_index, site_position, scenario, site_index)
    return PayoffBreakdown(
        tuple(terms.income[0].tolist()), tuple(terms.damage[0].tolist()), terms.total.item()
    )


def payoff_gradient(
    player_index: int,
    site_position: Point,
    scenario: Scenario,
    *,
    site_index: int | None = None,
) -> Gradient:
    """Partial derivatives of the payoff with respect to the facility coordinates.

    Closed form: each income term contributes ``-loss * dx / rho^3`` and each
    damage term ``+weight * emission * dx / (pi_value * rho^4)`` to d_x
    (symmetrically for d_y). Same coefficient-row resolution as :func:`payoff`.
    """
    d_x, d_y = _terms_at(player_index, site_position, scenario, site_index).gradient()
    return Gradient(d_x.item(), d_y.item())
