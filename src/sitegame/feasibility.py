"""Strategy-set constraints: region box membership and the object-distance band.

A location is feasible when it lies inside the region box and its distance to
every natural object falls within the closed band [rho_min, rho_max]. The
band can optionally also be enforced pairwise between distinct players' chosen
sites: per profile via :func:`check_profile_spacing`, or over every profile at
once via :func:`spacing_codes`, which keeps the checks per player pair and
lists the violating profiles through :meth:`SpacingCodes.violating` and
:meth:`SpacingCodes.codes_at`.

Feasibility here is advisory: the solvers operate on whatever payoff tensor
they are given and never consult these checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .payoff import distance, offsets
from .scenario import Point, RegionConfig, Scenario
from .tensor import _ReadOnlyArrays, checked_profile, profiles_at

BELOW = "below"
ABOVE = "above"


@dataclass(frozen=True)
class BandViolation:
    object_id: str
    distance: float
    bound: str  # BELOW: closer than rho_min; ABOVE: farther than rho_max


@dataclass(frozen=True)
class FeasibilityReport:
    player_id: str | None
    site_id: str | None
    position: Point
    in_box: bool
    band_violations: tuple[BandViolation, ...]

    @property
    def feasible(self) -> bool:
        return self.in_box and not self.band_violations


@dataclass(frozen=True)
class PairSpacingViolation:
    """Two distinct players' chosen sites breach the distance band."""

    player_a: str
    site_a: str
    player_b: str
    site_b: str
    distance: float
    bound: str


def check_site(
    position: Point,
    scenario: Scenario,
    *,
    player_id: str | None = None,
    site_id: str | None = None,
) -> FeasibilityReport:
    """Check one location against the region box and the per-object band.
    A distance beyond the largest float raises OverflowError naming the
    site, or the location if ``site_id`` is None, and the object."""
    return _check_sites(scenario, [(player_id, site_id, position)])[0]


def check_scenario(
    scenario: Scenario, distances: Sequence[np.ndarray] | None = None
) -> list[FeasibilityReport]:
    """Feasibility report for every candidate site, player-major site-minor.

    ``distances``, if given, holds each player's (sites × objects) array of
    distances, as the payoff kernel's ``rho``; else they are computed.
    Raises OverflowError as :func:`check_site` does.
    """
    return _check_sites(
        scenario,
        [(player.id, s.id, s.position) for player in scenario.players for s in player.sites],
        None if distances is None else np.concatenate(distances),
    )


def _check_sites(
    scenario: Scenario,
    sites: list[tuple[str | None, str | None, Point]],
    rho: np.ndarray | None = None,
) -> list[FeasibilityReport]:
    """Reports for (player id, site id, position) triples, from one array
    ``rho`` of their distances to every natural object (computed if None)."""
    region = scenario.region
    objects = scenario.objects
    if rho is None:
        positions = [position for _, _, position in sites]
        _, _, rho = offsets(positions, [obj.position for obj in objects])
    found: list[list[BandViolation]] = [[] for _ in sites]
    for (r, j), rho_rj, bound in _band_violations(rho, region):
        if rho_rj == math.inf:
            raise _distance_overflow(_end(*sites[r]), f"natural object {objects[j].id!r}")
        found[r].append(BandViolation(objects[j].id, rho_rj, bound))
    return [
        FeasibilityReport(
            player_id,
            site_id,
            position,
            0 <= position.x <= region.x_max and 0 <= position.y <= region.y_max,
            tuple(violations),
        )
        for (player_id, site_id, position), violations in zip(sites, found)
    ]


def _end(player_id: str | None, site_id: str | None, position: Point | None) -> str:
    """One end of a distance: a site by its ids, else a location by its coordinates."""
    if site_id is None:
        return f"location ({position.x!r}, {position.y!r})"
    return f"site {site_id!r}" if player_id is None else f"player {player_id!r} site {site_id!r}"


def _distance_overflow(a: str, b: str) -> OverflowError:
    """The error for a distance from ``a`` to ``b`` beyond the largest float,
    which the band check found: an inf distance is always above rho_max."""
    return OverflowError(f"distance from {a} to {b} overflows to inf")


def _pair_overflow(player_a: str, site_a: str, player_b: str, site_b: str) -> OverflowError:
    """The error for two players' sites further apart than the largest float."""
    return _distance_overflow(_end(player_a, site_a, None), _end(player_b, site_b, None))


def _band(rho, region: RegionConfig):
    """Whether ``rho`` lies below rho_min, and whether above rho_max, of the
    closed band: two bools for one distance, two bool arrays for an array."""
    return rho < region.rho_min, rho > region.rho_max


def _band_violations(
    rho: np.ndarray, region: RegionConfig
) -> list[tuple[tuple[int, ...], float, str]]:
    """Every distance in ``rho`` outside the band, in C order: its index, the
    distance and BELOW or ABOVE."""
    below, above = _band(rho, region)
    outside = below | above
    bounds = np.where(below[outside], BELOW, ABOVE).tolist()
    return list(zip(profiles_at(np.flatnonzero(outside), rho.shape), rho[outside].tolist(), bounds))


def check_profile_spacing(
    scenario: Scenario, profile: Sequence[int]
) -> list[PairSpacingViolation]:
    """Apply the distance band pairwise between the sites chosen in a profile.

    Optional stricter reading of the spacing rule: besides keeping distance to
    natural objects, facilities of distinct players must also keep the band
    between each other. ``profile`` holds one site index per player; an index
    outside a player's sites raises ValueError. The violations come in
    (player a, player b) lexicographic order, a < b. A distance beyond the
    largest float raises OverflowError naming both sites.
    """
    players = scenario.players
    profile = checked_profile(
        profile, [len(player.sites) for player in players], [player.id for player in players]
    )
    chosen = [(player, player.sites[k]) for player, k in zip(players, profile)]
    violations = []
    for (player_a, site_a), (player_b, site_b) in itertools.combinations(chosen, 2):
        rho = distance(site_a.position, site_b.position)
        below, above = _band(rho, scenario.region)
        if below or above:
            if rho == math.inf:
                raise _pair_overflow(player_a.id, site_a.id, player_b.id, site_b.id)
            violations.append(
                PairSpacingViolation(
                    player_a.id, site_a.id, player_b.id, site_b.id, rho, BELOW if below else ABOVE
                )
            )
    return violations


@dataclass(frozen=True, eq=False)
class SpacingCodes(_ReadOnlyArrays):
    """The pairwise band over every profile of a scenario, kept per player
    pair: the code tables hold nothing per profile, and :meth:`violating`
    holds one bool per profile while it runs.

    ``pairs`` holds ``(a, b, codes, violations)`` for each player pair
    a < b, in lexicographic order, that has a pair of sites outside the
    band: ``codes[k_a, k_b]`` is 0 where sites k_a and k_b keep the band,
    else c for ``violations[c - 1]``. A profile's violations, in the order
    :func:`check_profile_spacing` lists them, are ``violations[c - 1]`` for
    each pair whose code c at it (see :meth:`codes_at`) is not 0.
    """

    shape: tuple[int, ...]
    pairs: tuple[tuple[int, int, np.ndarray, tuple[PairSpacingViolation, ...]], ...]

    def codes_at(self, profiles: np.ndarray) -> list[np.ndarray]:
        """Each pair's code at each of ``profiles``, flat (C-order) indices."""
        shape = self.shape
        sites = np.unravel_index(profiles, shape)
        return [codes.ravel().take(sites[a] * shape[b] + sites[b]) for a, b, codes, _ in self.pairs]

    def violating(self) -> np.ndarray:
        """The flat indices, in C order, of the profiles where some pair of
        sites breaks the band: each pair's table broadcast from its two axes."""
        hit = np.zeros(self.shape, dtype=bool)
        for a, b, codes, _ in self.pairs:
            hit |= np.expand_dims(codes != 0, tuple(q for q in range(hit.ndim) if q not in (a, b)))
        return np.flatnonzero(hit)


def spacing_codes(scenario: Scenario) -> SpacingCodes:
    """The pairwise band of :func:`check_profile_spacing` over every profile,
    as codes per player pair: the band between two sites depends on those
    two sites alone, so each player pair classifies its site pairs once.
    Raises OverflowError as :func:`check_profile_spacing` does."""
    players = scenario.players
    pairs = []
    for a, b in itertools.combinations(range(len(players)), 2):
        sites_a, sites_b = players[a].sites, players[b].sites
        _, _, rho = offsets([s.position for s in sites_a], [s.position for s in sites_b])
        codes = np.zeros(rho.shape, dtype=np.intp)
        found = []
        for (k_a, k_b), rho_ab, bound in _band_violations(rho, scenario.region):
            ends = (players[a].id, sites_a[k_a].id, players[b].id, sites_b[k_b].id)
            if rho_ab == math.inf:
                raise _pair_overflow(*ends)
            found.append(PairSpacingViolation(*ends, rho_ab, bound))
            codes[k_a, k_b] = len(found)
        if found:
            pairs.append((a, b, codes, tuple(found)))
    return SpacingCodes(tuple(len(player.sites) for player in players), tuple(pairs))
