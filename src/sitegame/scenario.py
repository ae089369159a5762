"""Game input model: region, natural objects, players and their candidate sites.

A scenario is pure data. Construction never validates; :func:`validate` reports
every broken invariant as a value instead of raising, so callers can show all
problems at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .document import NOT_UTF8, ScenarioFormatError, _expect_dict, _get, encodes_as_utf8, read_json
from .document import checked_index  # noqa: F401  (re-exported: part of this module's API)


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class RegionConfig:
    """Region box, allowed distance band to natural objects, damage constant.

    ``pi_value`` is the constant appearing in the damage denominator. It is a
    scenario parameter rather than a hard-coded constant because instances may
    calibrate it (the bundled example uses 3).
    """

    x_max: float
    y_max: float
    rho_min: float
    rho_max: float
    pi_value: float = math.pi


@dataclass(frozen=True)
class NaturalObject:
    id: str
    position: Point


@dataclass(frozen=True)
class CandidateSite:
    id: str
    position: Point


@dataclass(frozen=True)
class PlayerSpec:
    """One player: emission volume, candidate sites, per-site coefficient rows.

    ``loss`` and ``damage_weight`` are indexed [site][object]: row k holds the
    coefficients in effect when the player builds at ``sites[k]``. A zero
    damage weight means the facility does not harm that object.
    """

    id: str
    emission: float
    sites: tuple[CandidateSite, ...]
    loss: tuple[tuple[float, ...], ...]
    damage_weight: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "loss", tuple(tuple(row) for row in self.loss))
        object.__setattr__(
            self, "damage_weight", tuple(tuple(row) for row in self.damage_weight)
        )


@dataclass(frozen=True)
class Scenario:
    region: RegionConfig
    objects: tuple[NaturalObject, ...]
    players: tuple[PlayerSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "players", tuple(self.players))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_objects(self) -> int:
        return len(self.objects)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pointing at the offending field."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _finite(x: float) -> bool:
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _check_nonnegative(value: float, path: str, out: list[Violation]) -> None:
    if not _finite(value) or value < 0:
        out.append(Violation(path, f"must be a finite number >= 0, got {value!r}"))


def _labeled_clean(items: tuple, box: tuple[float, float] | None) -> bool:
    """Whether no object or site of ``items`` has a violation, checked on the
    whole list: unique ids (by set size), float coordinates, finite (by their
    sum) and, if ``box`` is given, inside it (by min and max). False may also
    mean a sum that overflows; the caller then checks item by item."""
    if not items:
        return True
    ids = [item.id for item in items]
    positions = [item.position for item in items]
    xs, ys = [p.x for p in positions], [p.y for p in positions]
    coordinates = xs + ys
    return (
        len(set(ids)) == len(ids)
        and set(map(type, coordinates)) <= {float}
        and math.isfinite(sum(coordinates))
        and (box is None or all(
            0.0 <= min(values) and max(values) <= bound for values, bound in zip((xs, ys), box)
        ))
    )


def _check_labeled(
    items: tuple[NaturalObject | CandidateSite, ...], path: str, kind: str,
    out: list[Violation], box: tuple[float, float] | None = None,
) -> None:
    """Append the violations of the objects or sites ``items``, found item by
    item once the whole-list check fails: an id seen before, each coordinate
    that is not a finite number and, once both are, each outside ``box``
    (x_max, y_max) if given."""
    if _labeled_clean(items, box):
        return
    seen: set[str] = set()
    for k, item in enumerate(items):
        at = f"{path}[{k}]"
        if item.id in seen:
            out.append(Violation(at + ".id", f"duplicate {kind} id {item.id!r}"))
        seen.add(item.id)
        at += ".position"
        values = (item.position.x, item.position.y)
        for axis, value in zip("xy", values):
            if not _finite(value):
                out.append(Violation(f"{at}.{axis}", f"must be a finite number, got {value!r}"))
        if box is not None and all(map(_finite, values)):
            for axis, value, bound in zip("xy", values, box):
                if not 0 <= value <= bound:
                    message = f"outside region box [0, {bound!r}], got {value!r}"
                    out.append(Violation(f"{at}.{axis}", message))


def _finite_nonnegative_floats(row: tuple) -> bool:
    """Whether every entry of ``row`` is a float in [0, inf), checked on the
    whole row. False may also mean a sum that overflows; the caller then
    checks entry by entry."""
    return (
        set(map(type, row)) <= {float}
        and math.isfinite(sum(row))
        and min(row, default=0.0) >= 0.0
    )


def _check_matrix(
    matrix: tuple[tuple[float, ...], ...],
    path: str,
    n_sites: int,
    n_objects: int,
    out: list[Violation],
) -> None:
    if len(matrix) != n_sites:
        out.append(
            Violation(path, f"expected {n_sites} rows (one per site), got {len(matrix)}")
        )
    for i, row in enumerate(matrix):
        if len(row) != n_objects:
            out.append(
                Violation(
                    f"{path}[{i}]",
                    f"expected {n_objects} entries (one per object), got {len(row)}",
                )
            )
        elif _finite_nonnegative_floats(row):
            continue
        for j, entry in enumerate(row):
            _check_nonnegative(entry, f"{path}[{i}][{j}]", out)


def validate(scenario: Scenario) -> list[Violation]:
    """Return every broken scenario invariant; an empty list means valid.

    Side-effect free and idempotent. Violations carry the path of the bad
    field, e.g. ``players[0].loss[2][1]``.
    """
    out: list[Violation] = []
    region = scenario.region

    for name in ("x_max", "y_max", "rho_min", "pi_value"):
        value = getattr(region, name)
        if not _finite(value) or value <= 0:
            out.append(Violation(f"region.{name}", f"must be > 0, got {value!r}"))
        elif name == "rho_min" and (not _finite(region.rho_max) or region.rho_max < value):
            message = f"must be >= rho_min ({value!r}), got {region.rho_max!r}"
            out.append(Violation("region.rho_max", message))
    # Objects are placed in the box only once both of its sides are > 0.
    box_ok = not any(v.path in ("region.x_max", "region.y_max") for v in out)
    box = (region.x_max, region.y_max) if box_ok else None

    if scenario.n_objects < 1:
        out.append(Violation("objects", "at least one natural object is required"))
    _check_labeled(scenario.objects, "objects", "object", out, box)

    if scenario.n_players < 1:
        out.append(Violation("players", "at least one player is required"))
    ids: set[str] = set()
    for i, player in enumerate(scenario.players):
        path = f"players[{i}]"
        if player.id in ids:
            out.append(Violation(path + ".id", f"duplicate player id {player.id!r}"))
        ids.add(player.id)
        _check_nonnegative(player.emission, path + ".emission", out)
        if not player.sites:
            out.append(Violation(path + ".sites", "at least one candidate site is required"))
        _check_labeled(player.sites, path + ".sites", "site", out)
        for name in ("loss", "damage_weight"):
            _check_matrix(
                getattr(player, name), f"{path}.{name}", len(player.sites), scenario.n_objects, out
            )
    return out


# --- JSON document mapping -------------------------------------------------

def _expect_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{path}: integer too large for a float") from None


def _string(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{path}: expected a string, got {type(value).__name__}")
    if not encodes_as_utf8(value):
        raise ScenarioFormatError(f"{path}: {NOT_UTF8}, got {value!r}")
    return value


def _matrix(value: object, path: str) -> tuple[tuple[float, ...], ...]:
    rows = _expect_list(value, path)
    return tuple(_matrix_row(row, f"{path}[{i}]") for i, row in enumerate(rows))


def _matrix_row(row: object, path: str) -> tuple[float, ...]:
    # A list of plain floats is kept as it is, and one of plain ints and
    # floats (bool is a type of its own) converts as a whole; any other row
    # is walked entry by entry, to name its first bad entry or to accept
    # subclasses of int and float.
    if isinstance(row, list):
        types = set(map(type, row))
        if types <= {float}:
            return tuple(row)
        if types <= {float, int}:
            try:
                return tuple(map(float, row))
            except OverflowError:
                pass
    return tuple(_number(entry, f"{path}[{j}]") for j, entry in enumerate(_expect_list(row, path)))


def _labeled_points(value: object, path: str, kind: type) -> tuple:
    """The list ``value`` of ``{"id", "x", "y"}`` entries, each as ``kind(id, Point(x, y))``."""
    entries = _expect_list(value, path)
    points = []
    # A plain dict with a UTF-8 str id and float coordinates is taken as it
    # is; from the first other entry on, each is walked, to name its fault
    # or to convert ints and subclasses.
    for entry in entries:
        if type(entry) is not dict:
            break
        label, x, y = entry.get("id"), entry.get("x"), entry.get("y")
        plain = type(label) is str and type(x) is float and type(y) is float
        if not (plain and encodes_as_utf8(label)):
            break
        points.append(kind(label, Point(x, y)))
    for k in range(len(points), len(entries)):
        at = f"{path}[{k}]"
        entry = _expect_dict(entries[k], at)
        label = _string(_get(entry, "id", at), f"{at}.id")
        x, y = _number(_get(entry, "x", at), f"{at}.x"), _number(_get(entry, "y", at), f"{at}.y")
        points.append(kind(label, Point(x, y)))
    return tuple(points)


def scenario_from_dict(doc: object) -> Scenario:
    """Build a Scenario from a parsed JSON document; unknown keys are ignored."""
    root = _expect_dict(doc, "document")

    region_doc = _expect_dict(_get(root, "region", "document"), "region")
    required = ("x_max", "y_max", "rho_min", "rho_max")
    region = RegionConfig(
        *(_number(_get(region_doc, key, "region"), f"region.{key}") for key in required),
        pi_value=_number(region_doc.get("pi", math.pi), "region.pi"),
    )

    objects = _labeled_points(_get(root, "objects", "document"), "objects", NaturalObject)

    players = []
    for i, entry in enumerate(_expect_list(_get(root, "players", "document"), "players")):
        path = f"players[{i}]"
        player_doc = _expect_dict(entry, path)
        # Sites before the id: a document broken in both reports its sites.
        sites = _labeled_points(_get(player_doc, "sites", path), f"{path}.sites", CandidateSite)
        players.append(
            PlayerSpec(
                id=_string(_get(player_doc, "id", path), f"{path}.id"),
                emission=_number(_get(player_doc, "emission", path), f"{path}.emission"),
                sites=sites,
                loss=_matrix(_get(player_doc, "loss", path), f"{path}.loss"),
                damage_weight=_matrix(
                    _get(player_doc, "damage_weight", path), f"{path}.damage_weight"
                ),
            )
        )

    return Scenario(region=region, objects=objects, players=tuple(players))


def scenario_to_dict(scenario: Scenario) -> dict:
    # Numbers are written as floats so that dump -> load -> dump is stable.
    return {
        "region": {
            "x_max": float(scenario.region.x_max),
            "y_max": float(scenario.region.y_max),
            "rho_min": float(scenario.region.rho_min),
            "rho_max": float(scenario.region.rho_max),
            "pi": float(scenario.region.pi_value),
        },
        "objects": [
            {"id": obj.id, "x": float(obj.position.x), "y": float(obj.position.y)}
            for obj in scenario.objects
        ],
        "players": [
            {
                "id": player.id,
                "emission": float(player.emission),
                "sites": [
                    {"id": site.id, "x": float(site.position.x), "y": float(site.position.y)}
                    for site in player.sites
                ],
                "loss": [[float(x) for x in row] for row in player.loss],
                "damage_weight": [[float(x) for x in row] for row in player.damage_weight],
            }
            for player in scenario.players
        ],
    }


def dumps_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def load_scenario(path: Path | str) -> Scenario:
    """Read and parse a scenario JSON file.

    Raises ScenarioFormatError for malformed JSON (see read_json) or naming
    the offending key path for schema problems.
    """
    return scenario_from_dict(read_json(path))
