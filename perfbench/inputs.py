"""Seeded input documents for the benchmark workloads.

Every document is a pure function of its seed and size, written with the
same JSON conventions as the program's own writers (floats with full repr
precision, two-space indent), so a seed names one exact input file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

REGION_SIDE = 1000.0
# Share of profiles that violate the pairwise band in a pairwise-band
# scenario. It is fixed, rather than left to each seed's geometry, so that
# every seed renders about the same number of violation rows.
PAIRWISE_SHARE = 0.25


def random_tensor_doc(seed: int, players: int, strategies: int) -> tuple[dict, np.ndarray]:
    """Continuous uniform payoffs in [-10, 10): ties are measure-zero."""
    rng = np.random.default_rng(seed)
    shape = (strategies,) * players
    values = rng.uniform(-10.0, 10.0, size=shape + (players,))
    doc = {
        "shape": list(shape),
        "players": [f"P{i + 1}" for i in range(players)],
        "strategy_labels": [[f"P{i + 1}S{k + 1}" for k in range(strategies)] for i in range(players)],
        "payoffs": values.reshape(-1, players).tolist(),
    }
    return doc, values


def random_scenario_doc(
    seed: int, players: int, sites: int, objects: int, *, pairwise_band: bool
) -> dict:
    """Random siting scenario in a square region.

    Without ``pairwise_band`` the band is wide (every site keeps every object
    inside it). With it, the band is set so that PAIRWISE_SHARE of the
    profiles violate the pairwise band, and the violation-rendering path runs.
    """
    rng = np.random.default_rng(seed)
    object_xy = rng.uniform(0.0, REGION_SIDE, size=(objects, 2))
    site_xy = rng.uniform(0.0, REGION_SIDE, size=(players, sites, 2))
    object_points = {(float(x), float(y)) for x, y in object_xy}
    for x, y in site_xy.reshape(-1, 2):
        if (float(x), float(y)) in object_points:
            raise RuntimeError(f"seed {seed}: a candidate site coincides with a natural object")
    if pairwise_band:
        rho_min, rho_max = _pairwise_band(site_xy)
    else:
        rho_min, rho_max = 1e-9, 2.0 * REGION_SIDE
    loss = rng.uniform(0.0, 20.0, size=(players, sites, objects))
    weight = rng.uniform(0.0, 3.0, size=(players, sites, objects))
    emission = rng.uniform(1.0, 80.0, size=players)
    return {
        "region": {
            "x_max": REGION_SIDE,
            "y_max": REGION_SIDE,
            "rho_min": rho_min,
            "rho_max": rho_max,
            "pi": math.pi,
        },
        "objects": [
            {"id": f"A{j + 1}", "x": float(x), "y": float(y)} for j, (x, y) in enumerate(object_xy)
        ],
        "players": [
            {
                "id": f"P{i + 1}",
                "emission": float(emission[i]),
                "sites": [
                    {"id": f"P{i + 1}S{k + 1}", "x": float(x), "y": float(y)}
                    for k, (x, y) in enumerate(site_xy[i])
                ],
                "loss": loss[i].tolist(),
                "damage_weight": weight[i].tolist(),
            }
            for i in range(players)
        ],
    }


def _violating(pair_ok: dict[tuple[int, int], np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Profiles where some pair of players' chosen sites is outside the band.

    ``pair_ok[a, b][ka, kb]`` says whether player a's site ka and player b's
    site kb keep the band, for a < b.
    """
    ok = np.ones(shape, dtype=bool)
    for (a, b), within in pair_ok.items():
        index: list = [None] * len(shape)
        index[a] = index[b] = slice(None)
        ok &= within[tuple(index)]
    return ~ok


def _pairwise_band(site_xy: np.ndarray) -> tuple[float, float]:
    """rho_min and rho_max cutting equal tails off the cross-player site
    distances, with the tail chosen by bisection so that as near to
    PAIRWISE_SHARE of the profiles as the geometry allows violate the band."""
    players, sites = site_xy.shape[:2]
    pairs = list(itertools.combinations(range(players), 2))
    dist = {(a, b): np.hypot(*np.moveaxis(site_xy[a][:, None] - site_xy[b][None, :], -1, 0)) for a, b in pairs}
    cross = np.concatenate([d.ravel() for d in dist.values()])

    def band(tail: float) -> tuple[float, float]:
        return float(np.quantile(cross, tail)), float(np.quantile(cross, 1.0 - tail))

    def share(tail: float) -> float:
        lo, hi = band(tail)
        within = {pair: (d >= lo) & (d <= hi) for pair, d in dist.items()}
        return float(_violating(within, (sites,) * players).mean())

    low, high = 0.0, 0.5
    for _ in range(30):
        mid = (low + high) / 2
        low, high = (mid, high) if share(mid) < PAIRWISE_SHARE else (low, mid)
    # The share moves in steps (one site pair enters or leaves the band at a
    # time); take whichever side of the target is nearer.
    return band(min((low, high), key=lambda tail: abs(share(tail) - PAIRWISE_SHARE)))


def pairwise_violating_profiles(doc: dict) -> int:
    """Exact number of profiles with at least one pairwise-band violation.

    Independent of the program: distances come from math.hypot over the
    document's own coordinates, the formula the band is defined by.
    """
    region = doc["region"]
    sites = [[(s["x"], s["y"]) for s in player["sites"]] for player in doc["players"]]
    within = {
        (a, b): np.array(
            [
                [region["rho_min"] <= math.hypot(xa - xb, ya - yb) <= region["rho_max"] for xb, yb in sites[b]]
                for xa, ya in sites[a]
            ]
        )
        for a, b in itertools.combinations(range(len(sites)), 2)
    }
    return int(np.count_nonzero(_violating(within, tuple(len(axis) for axis in sites))))


def write_doc(doc: dict, path) -> dict:
    """Write a document and return its size and digest."""
    data = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    path.write_bytes(data)
    return {"file": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
