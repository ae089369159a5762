"""Strategy-set constraints: region box membership and the object-distance band.

A location is feasible when it lies inside the region box and its distance to
every natural object falls within the closed band [rho_min, rho_max]. The
band can optionally also be enforced pairwise between distinct players' chosen
sites: per profile via :func:`check_profile_spacing`, or over every profile at
once via :func:`profile_spacing`.

Feasibility here is advisory: the solvers operate on whatever payoff tensor
they are given and never consult these checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .payoff import distance
from .scenario import CandidateSite, PlayerSpec, Point, RegionConfig, Scenario
from .tensor import Profile

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
    """Check one location against the region box and the per-object band."""
    region = scenario.region
    in_box = 0 <= position.x <= region.x_max and 0 <= position.y <= region.y_max
    violations = []
    for obj in scenario.objects:
        rho = distance(position, obj.position)
        bound = _band_bound(rho, region)
        if bound is not None:
            violations.append(BandViolation(obj.id, rho, bound))
    return FeasibilityReport(player_id, site_id, position, in_box, tuple(violations))


def check_scenario(scenario: Scenario) -> list[FeasibilityReport]:
    """Feasibility report for every candidate site, player-major site-minor."""
    return [
        check_site(site.position, scenario, player_id=player.id, site_id=site.id)
        for player in scenario.players
        for site in player.sites
    ]


def _band_bound(rho: float, region: RegionConfig) -> str | None:
    """BELOW or ABOVE when ``rho`` lies outside the closed band, else None."""
    if rho < region.rho_min:
        return BELOW
    if rho > region.rho_max:
        return ABOVE
    return None


def _pair_violation(
    region: RegionConfig,
    player_a: PlayerSpec,
    site_a: CandidateSite,
    player_b: PlayerSpec,
    site_b: CandidateSite,
) -> PairSpacingViolation | None:
    rho = distance(site_a.position, site_b.position)
    bound = _band_bound(rho, region)
    if bound is None:
        return None
    return PairSpacingViolation(player_a.id, site_a.id, player_b.id, site_b.id, rho, bound)


def check_profile_spacing(
    scenario: Scenario, profile: Sequence[int]
) -> list[PairSpacingViolation]:
    """Apply the distance band pairwise between the sites chosen in a profile.

    Optional stricter reading of the spacing rule: besides keeping distance to
    natural objects, facilities of distinct players must also keep the band
    between each other. ``profile`` holds one site index per player; the
    violations come in (player a, player b) lexicographic order, a < b.
    """
    region = scenario.region
    chosen = [
        (player, player.sites[profile[i]]) for i, player in enumerate(scenario.players)
    ]
    violations = []
    for (player_a, site_a), (player_b, site_b) in itertools.combinations(chosen, 2):
        violation = _pair_violation(region, player_a, site_a, player_b, site_b)
        if violation is not None:
            violations.append(violation)
    return violations


def profile_spacing(scenario: Scenario) -> dict[Profile, tuple[PairSpacingViolation, ...]]:
    """:func:`check_profile_spacing` over every profile at once.

    Maps each violating profile, in normative order, to its violations in the
    order :func:`check_profile_spacing` lists them. The band between two sites
    depends on those two sites alone, so each site pair of each player pair is
    classified once, and one ``PairSpacingViolation`` is shared by every
    profile that contains its pair.
    """
    players = scenario.players
    shape = tuple(len(player.sites) for player in players)
    violating = np.zeros(shape, dtype=bool)
    pairs = []  # (a, b, {(k_a, k_b): violation}) for player pairs a < b
    for a, b in itertools.combinations(range(len(players)), 2):
        found = {}
        mask = np.zeros((shape[a], shape[b]), dtype=bool)
        for k_a, site_a in enumerate(players[a].sites):
            for k_b, site_b in enumerate(players[b].sites):
                violation = _pair_violation(scenario.region, players[a], site_a, players[b], site_b)
                if violation is not None:
                    found[k_a, k_b] = violation
                    mask[k_a, k_b] = True
        if found:
            axes = [1] * len(shape)
            axes[a], axes[b] = shape[a], shape[b]
            violating |= mask.reshape(axes)
            pairs.append((a, b, found))
    # argwhere lists indices in C order, which is the normative profile order.
    return {
        profile: tuple(
            found[profile[a], profile[b]]
            for a, b, found in pairs
            if (profile[a], profile[b]) in found
        )
        for profile in map(tuple, np.argwhere(violating).tolist())
    }
