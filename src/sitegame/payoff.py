"""Payoff evaluation for one player's facility at one location.

A facility earns ``loss / distance`` from every natural object and pays
``damage_weight * emission / (2 * pi_value * distance^2)`` in compensation to
every natural object; the payoff is income minus compensation, summed in
ascending object order. Both terms blow up as the facility approaches an
object, so evaluation exactly on top of an object is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import Point, PlayerSpec, Scenario


class ZeroDistanceError(ArithmeticError):
    """The payoff is singular: the evaluated location sits on a natural object."""

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
    """``site_index`` if given and in range, else the index of the candidate
    site at exactly ``position``."""
    if site_index is not None:
        if not 0 <= site_index < len(player.sites):
            raise ValueError(
                f"site_index {site_index!r} is out of range for player {player.id!r}, "
                f"which has {len(player.sites)} candidate sites"
            )
        return site_index
    for k, site in enumerate(player.sites):
        if site.position.x == position.x and site.position.y == position.y:
            return k
    raise ValueError(
        f"position ({position.x!r}, {position.y!r}) is not a candidate site of "
        f"player {player.id!r}; pass site_index to pick the coefficient row explicitly"
    )


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
    player = scenario.players[player_index]
    row = _coefficient_row(player, site_position, site_index)
    loss_row = player.loss[row]
    weight_row = player.damage_weight[row]
    site_id = player.sites[row].id
    scale = player.emission / (2.0 * scenario.region.pi_value)

    income = []
    damage = []
    for j, obj in enumerate(scenario.objects):
        rho = distance(site_position, obj.position)
        if rho == 0.0:
            raise ZeroDistanceError(player.id, site_id, obj.id)
        income.append(loss_row[j] / rho)
        damage.append(weight_row[j] * scale / (rho * rho))
    return PayoffBreakdown(tuple(income), tuple(damage), sum(income) - sum(damage))


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
    player = scenario.players[player_index]
    row = _coefficient_row(player, site_position, site_index)
    loss_row = player.loss[row]
    weight_row = player.damage_weight[row]
    site_id = player.sites[row].id
    scale = player.emission / scenario.region.pi_value

    d_x = 0.0
    d_y = 0.0
    for j, obj in enumerate(scenario.objects):
        dx = site_position.x - obj.position.x
        dy = site_position.y - obj.position.y
        rho = math.hypot(dx, dy)
        if rho == 0.0:
            raise ZeroDistanceError(player.id, site_id, obj.id)
        rho2 = rho * rho
        income_factor = -loss_row[j] / (rho2 * rho)
        damage_factor = weight_row[j] * scale / (rho2 * rho2)
        d_x += (income_factor + damage_factor) * dx
        d_y += (income_factor + damage_factor) * dy
    return Gradient(d_x, d_y)
