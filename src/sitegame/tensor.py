"""Dense n-player payoff tensor over the Cartesian product of candidate sites.

The normative profile order used everywhere (file format, reports, solver
output) is lexicographic with the last player's index varying fastest, i.e.
numpy C order.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .payoff import PayoffTerms
from .scenario import NOT_UTF8, Scenario, encodes_as_utf8, read_json

Profile = tuple[int, ...]

PROVENANCE_COMPUTED = "computed-from-equation"
PROVENANCE_LOADED = "loaded-from-file"


class TensorFormatError(ValueError):
    """A document could not be parsed into a PayoffTensor."""


@dataclass(frozen=True)
class PayoffTensor:
    """Payoff vectors for every strategy profile of a finite game.

    ``values`` has shape ``shape + (n_players,)``; ``values[profile][p]`` is
    player p's payoff at that profile. The array is frozen after construction
    so tensors can be shared across threads. A read-only, C-contiguous float
    array is kept as it is rather than copied, so a large tensor is never
    held twice; whoever passes one must not write to it through another view.
    """

    shape: tuple[int, ...]
    players: tuple[str, ...]
    strategy_labels: tuple[tuple[str, ...], ...]
    values: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        players = tuple(self.players)
        labels = tuple(tuple(axis) for axis in self.strategy_labels)
        if len(shape) != len(players):
            raise ValueError(f"{len(players)} player labels for {len(shape)} axes")
        if any(s < 1 for s in shape):
            raise ValueError(f"every player needs at least one strategy, got shape {shape}")
        if len(labels) != len(shape) or any(len(axis) != s for axis, s in zip(labels, shape)):
            raise ValueError("strategy_labels must match shape")
        values = self.values
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == float
            and values.flags.c_contiguous
            and not values.flags.writeable
        ):
            values = np.array(values, dtype=float)
        if values.shape != shape + (len(players),):
            raise ValueError(
                f"values shape {values.shape} does not match {shape + (len(players),)}"
            )
        # min and max are nan if any value is, and need no array of flags.
        if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise ValueError("all payoff values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "strategy_labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_profiles(self) -> int:
        return math.prod(self.shape)

    def payoff_vector(self, profile: Sequence[int]) -> tuple[float, ...]:
        profile = checked_profile(profile, self.shape, self.players)
        return tuple(float(v) for v in self.values[profile])

    def labels_for(self, profile: Sequence[int]) -> tuple[str, ...]:
        profile = checked_profile(profile, self.shape, self.players)
        return tuple(self.strategy_labels[p][i] for p, i in enumerate(profile))


def checked_profile(
    profile: Sequence[int], shape: Sequence[int], players: Sequence[str]
) -> Profile:
    """``profile`` as a tuple, once it is known to hold one index in
    ``range(shape[p])`` for every player p. Otherwise raises ValueError naming
    the player and the index: a negative index would silently count from the
    end."""
    profile = tuple(profile)
    if len(profile) != len(shape):
        raise ValueError(f"profile {profile!r} has {len(profile)} indices for {len(shape)} players")
    if min(profile, default=0) >= 0 and all(map(operator.lt, profile, shape)):
        return profile
    for player, index, size in zip(players, profile, shape):
        if not 0 <= index < size:
            raise ValueError(
                f"strategy index {index!r} is out of range for player {player!r}, "
                f"which has {size} strategies"
            )
    return profile


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def iterate_profiles(shape: Iterable[int]) -> Iterator[Profile]:
    """All profiles of a shape in normative order (last index fastest)."""
    dims = tuple(int(s) for s in shape)
    if any(s < 1 for s in dims):
        raise ValueError(f"every player needs at least one strategy, got shape {dims}")
    return itertools.product(*(range(s) for s in dims))


def build_tensor(scenario: Scenario) -> PayoffTensor:
    """Evaluate the payoff formula at every candidate site and assemble the tensor.

    Each player's payoff depends only on their own site, so the payoff kernel
    runs once per player over all of that player's sites, and its totals are
    broadcast along the other players' axes. Raises ZeroDistanceError (naming
    player, site and object) if any candidate site sits on a natural object,
    and ValueError, before allocating anything, if the tensor would not fit
    in physical memory.
    """
    for player in scenario.players:
        if not player.sites:
            raise ValueError(f"player {player.id!r} has no candidate sites")
    shape = tuple(len(player.sites) for player in scenario.players)
    n = len(scenario.players)
    nbytes = math.prod(shape) * n * np.dtype(float).itemsize
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise ValueError(
            f"payoff tensor of shape {shape} for {n} players needs {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )

    values = np.empty(shape + (n,), dtype=float)
    for p in range(n):
        broadcast_shape = [1] * n
        broadcast_shape[p] = shape[p]
        values[..., p] = PayoffTerms(scenario, p).total.reshape(broadcast_shape)
    values.setflags(write=False)

    return PayoffTensor(
        shape=shape,
        players=tuple(player.id for player in scenario.players),
        strategy_labels=tuple(
            tuple(site.id for site in player.sites) for player in scenario.players
        ),
        values=values,
        provenance=PROVENANCE_COMPUTED,
    )


# --- JSON document mapping -------------------------------------------------

def tensor_head(tensor: PayoffTensor) -> dict:
    """The keys a tensor document puts before its payoffs."""
    return {
        "shape": list(tensor.shape),
        "players": list(tensor.players),
        "strategy_labels": [list(axis) for axis in tensor.strategy_labels],
    }


def tensor_to_dict(tensor: PayoffTensor) -> dict:
    """Tensor document; payoff rows listed in normative profile order."""
    doc = tensor_head(tensor)
    doc["payoffs"] = tensor.values.reshape(-1, tensor.n_players).tolist()
    return doc


# --- JSON rendering from arrays ----------------------------------------------
#
# The per-profile listings are written straight from the arrays, and must come
# out exactly as ``json.dumps(doc, indent=2)`` writes them. With an indent,
# ``json`` encodes in pure Python, one call per value; here a whole document
# is a single ``%`` over a template of ``json.dumps``'s own layout. A value
# nested at depth d equals its top-level encoding with every "\n" replaced by
# "\n" plus 2d spaces: with ``ensure_ascii`` no newline can occur inside a
# string.

JSON_SLOT = "%s"


def distinct_spellings(values: np.ndarray, spell: Callable[[list[float]], list[str]]) -> np.ndarray:
    """The spelling of every float in ``values``, as an object array of the
    same shape; ``spell`` maps a list of floats to their spellings.

    ``spell`` sees each distinct bit pattern once (so -0.0 and 0.0 stay
    apart): a tensor built from a scenario holds only Σk_i distinct values
    among its Πk_i·n cells.
    """
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    spelled = spell(distinct.view(float).tolist())
    return np.array(spelled, dtype=object)[inverse].reshape(values.shape)


def _json_spellings(floats: list[float]) -> list[str]:
    # The indent-free encoder spells floats the way the indented one does
    # (float.__repr__, Infinity, -Infinity, NaN); no spelling contains ", ".
    return json.dumps(floats)[1:-1].split(", ")


def json_floats(values: np.ndarray) -> np.ndarray:
    """``json.dumps``'s spelling of every float in ``values``, as an object
    array of the same shape."""
    return distinct_spellings(values, _json_spellings)


def profile_columns(axes: Sequence[Sequence[str]], grid: Sequence[np.ndarray]) -> np.ndarray:
    """One row per profile, one column per player: entry [r, p] is
    ``axes[p][grid[p][r]]``, an object array of shape (len(grid[0]), len(axes))."""
    columns = np.empty((len(grid[0]), len(axes)), dtype=object)
    for p, axis in enumerate(axes):
        columns[:, p] = np.array(axis, dtype=object)[grid[p]]
    return columns


def index_spellings(shape: Sequence[int]) -> list[list[str]]:
    """Each player's strategy indices as decimal strings, for profile_columns."""
    return [[str(k) for k in range(s)] for s in shape]


def profile_json_columns(tensor: PayoffTensor, *axes: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """For every profile in normative order, the encoded strategy indices, the
    encoded labels, then each of ``axes`` (``axes[i][p][k]``: the text for
    player p's strategy k), each an object array of shape (n_profiles, n_players)."""
    grid = np.indices(tensor.shape).reshape(tensor.n_players, -1)
    labels = [[json.dumps(label) for label in axis] for axis in tensor.strategy_labels]
    return [profile_columns(axis, grid) for axis in (index_spellings(tensor.shape), labels, *axes)]


def json_document(
    head: dict, listings: Sequence[tuple[str, object, np.ndarray]], end: str = ""
) -> str:
    """``json.dumps(head | {key: listing, ...}, indent=2) + end`` for a
    non-empty ``head`` followed by the non-empty ``(key, entry, slots)``
    listings in order, where every entry of a listing has the structure of
    its ``entry``.

    Every ``"%s"`` string in ``entry`` is a slot; row r of ``slots`` holds the
    encoded JSON text of entry r's slots, in the order ``json.dumps`` writes
    them.
    """
    pieces = [json.dumps(head, indent=2)[: -len("\n}")].replace("%", "%%")]
    for key, entry, slots in listings:
        one = json.dumps(entry, indent=2).replace(json.dumps(JSON_SLOT), JSON_SLOT)
        one = one.replace("\n", "\n    ")
        pieces += [f",\n  {json.dumps(key)}: [\n    ", one]
        pieces += itertools.repeat(",\n    " + one, len(slots) - 1)
        pieces.append("\n  ]")
    pieces.append(f"\n}}{end}")
    # One join and no named slot list: a second copy of either, held during
    # the ``%``, would raise the peak.
    return "".join(pieces) % tuple(
        itertools.chain.from_iterable(slots.reshape(-1).tolist() for _, _, slots in listings)
    )


def tensor_from_dict(doc: object) -> PayoffTensor:
    """Parse a tensor document; provenance is always loaded-from-file.

    ``players`` and ``strategy_labels`` are optional and default to positional
    labels. Unknown keys are ignored.
    """
    if not isinstance(doc, dict):
        raise TensorFormatError(f"document: expected an object, got {type(doc).__name__}")
    if "shape" not in doc:
        raise TensorFormatError("document: missing required key 'shape'")
    if "payoffs" not in doc:
        raise TensorFormatError("document: missing required key 'payoffs'")

    shape_doc = doc["shape"]
    if not isinstance(shape_doc, list) or not shape_doc:
        raise TensorFormatError("shape: expected a non-empty list of integers")
    shape = []
    for i, entry in enumerate(shape_doc):
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < 1:
            raise TensorFormatError(f"shape[{i}]: expected an integer >= 1, got {entry!r}")
        shape.append(entry)
    n = len(shape)
    n_profiles = math.prod(shape)

    payoffs_doc = doc["payoffs"]
    if not isinstance(payoffs_doc, list):
        raise TensorFormatError("payoffs: expected a list of payoff vectors")
    if len(payoffs_doc) != n_profiles:
        raise TensorFormatError(
            f"payoffs: expected {n_profiles} rows (product of shape), got {len(payoffs_doc)}"
        )

    # Defaults are built only when absent and only after the row count check:
    # a shape may claim any size, and the default labels hold sum(shape) strings.
    if "players" in doc:
        players = doc["players"]
    else:
        players = [f"P{i + 1}" for i in range(n)]
    if not isinstance(players, list) or not all(isinstance(p, str) for p in players):
        raise TensorFormatError("players: expected a list of strings")
    if len(players) != n:
        raise TensorFormatError(f"players: expected {n} labels, got {len(players)}")
    _check_utf8(players, "players")

    if "strategy_labels" in doc:
        labels = doc["strategy_labels"]
    else:
        labels = [[f"S{k + 1}" for k in range(s)] for s in shape]
    if not isinstance(labels, list) or len(labels) != n:
        raise TensorFormatError(f"strategy_labels: expected {n} label lists")
    for p, axis in enumerate(labels):
        if not isinstance(axis, list) or not all(isinstance(x, str) for x in axis):
            raise TensorFormatError(f"strategy_labels[{p}]: expected a list of strings")
        if len(axis) != shape[p]:
            raise TensorFormatError(
                f"strategy_labels[{p}]: expected {shape[p]} labels, got {len(axis)}"
            )
        _check_utf8(axis, f"strategy_labels[{p}]")

    values = _plain_payoffs(payoffs_doc, n)
    if values is None:
        values = np.array(_walk_payoffs(payoffs_doc, n), dtype=float)
    values = values.reshape(tuple(shape) + (n,))
    values.setflags(write=False)
    return PayoffTensor(
        shape=tuple(shape),
        players=tuple(players),
        strategy_labels=tuple(tuple(axis) for axis in labels),
        values=values,
        provenance=PROVENANCE_LOADED,
    )


def _check_utf8(labels: list[str], path: str) -> None:
    """Raise TensorFormatError naming the first of ``labels`` that does not
    encode as UTF-8."""
    for k, label in enumerate(labels):
        if not encodes_as_utf8(label):
            raise TensorFormatError(f"{path}[{k}]: {NOT_UTF8}, got {label!r}")


def _plain_payoffs(payoffs_doc: list, n: int) -> np.ndarray | None:
    """The payoff rows as one array when every row is a list of ``n`` plain
    ints and floats, all finite as floats; else None. Checks whole rows, with
    no Python call per entry."""
    if not all(isinstance(row, list) and len(row) == n for row in payoffs_doc):
        return None
    if not set(map(type, itertools.chain.from_iterable(payoffs_doc))) <= {float, int}:
        return None
    try:
        # fromiter fills one array; np.array of nested lists peaks at twice that.
        values = np.fromiter(
            itertools.chain.from_iterable(payoffs_doc), dtype=float, count=len(payoffs_doc) * n
        )
    except OverflowError:
        return None
    return values if math.isfinite(values.min()) and math.isfinite(values.max()) else None


def _walk_payoffs(payoffs_doc: list, n: int) -> list[list[float]]:
    """The payoff rows checked entry by entry: raises TensorFormatError naming
    the first bad row or entry."""
    rows = []
    for r, row in enumerate(payoffs_doc):
        if not isinstance(row, list) or len(row) != n:
            raise TensorFormatError(f"payoffs[{r}]: expected a vector of {n} numbers")
        entries = []
        for p, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise TensorFormatError(f"payoffs[{r}][{p}]: expected a number, got {entry!r}")
            try:
                value = float(entry)
            except OverflowError:
                raise TensorFormatError(
                    f"payoffs[{r}][{p}]: integer too large for a float"
                ) from None
            if not math.isfinite(value):
                raise TensorFormatError(f"payoffs[{r}][{p}]: must be finite, got {entry!r}")
            entries.append(value)
        rows.append(entries)
    return rows


def dumps_tensor(tensor: PayoffTensor, explain: Scenario | None = None) -> str:
    """``json.dumps(tensor_to_dict(tensor), indent=2) + "\\n"``, rendered from
    the array. Given the scenario the tensor was built from as ``explain``,
    the document ends with an ``explain`` listing: for every profile, its
    indices, labels and each player's income and damage terms and total."""
    n = tensor.n_players
    listings = [("payoffs", [JSON_SLOT] * n, json_floats(tensor.values).reshape(-1, n))]
    if explain is not None:
        # One breakdown per (player, site), encoded once at its depth in the
        # document and shared by every profile that picks that site.
        breakdowns = []
        for p, player in enumerate(explain.players):
            terms = PayoffTerms(explain, p)
            columns = (terms.income.tolist(), terms.damage.tolist(), terms.total.tolist())
            breakdowns.append([
                json.dumps({"player": player.id, "site": site.id, "income": income,
                            "damage": damage, "total": total}, indent=2).replace("\n", "\n        ")
                for site, income, damage, total in zip(player.sites, *columns)
            ])
        entry = {"indices": [JSON_SLOT] * n, "labels": [JSON_SLOT] * n, "players": [JSON_SLOT] * n}
        listings.append(("explain", entry, np.hstack(profile_json_columns(tensor, breakdowns))))
    return json_document(tensor_head(tensor), listings, "\n")


def load_tensor(path: Path | str) -> PayoffTensor:
    """Read and parse a tensor JSON file; see load_scenario for error style."""
    return tensor_from_dict(read_json(path, TensorFormatError))
