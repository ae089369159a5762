"""n-player payoff tensor over the Cartesian product of candidate sites.

The normative profile order used everywhere (file format, reports, solver
output) is lexicographic with the last player's index varying fastest, i.e.
numpy C order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from . import FormatError
from .document import NOT_UTF8, _expect_dict, _get, checked_index, encodes_as_utf8, read_json

if TYPE_CHECKING:
    from .payoff import PayoffTerms
    from .scenario import Scenario

Profile = tuple[int, ...]

PROVENANCE_COMPUTED = "computed-from-equation"
PROVENANCE_LOADED = "loaded-from-file"


class TensorFormatError(FormatError):
    """A document could not be parsed into a PayoffTensor."""


def _read_only(values: Iterable[object]) -> None:
    """Make each array among ``values``, or in their tuples at any depth, read-only."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, tuple):
            _read_only(value)


class _ReadOnlyArrays:
    """Base of the frozen dataclasses that hold arrays: every array among
    their fields, or in tuples of them, is made read-only on construction
    (PayoffTensor checks its own), and again when pickle or deepcopy
    restores the fields, which they do with writeable copies and without
    ``__post_init__``."""

    def __post_init__(self) -> None:
        _read_only(vars(self).values())

    def __setstate__(self, state: dict) -> None:
        _read_only(state.values())
        vars(self).update(state)


@dataclass(frozen=True, eq=False)
class PayoffTensor(_ReadOnlyArrays):
    """Payoff vectors for every strategy profile of a finite game, held in
    one of two forms: exactly one of ``values`` and ``totals`` is set.

    ``values`` has shape ``shape + (n_players,)``; ``values[profile][p]`` is
    player p's payoff at that profile. A separable tensor, as build_tensor
    makes, has ``values=None`` and ``totals`` instead, a tuple of each
    player's 1-D array: ``totals[p][k]`` is player p's payoff at every
    profile where p plays strategy k, Σk_i numbers in all. Read the payoffs
    of either form through player_payoffs and payoffs_at.

    The arrays are frozen after construction so tensors can be shared across
    threads. A read-only, C-contiguous float array is kept as it is rather
    than copied, so a large tensor is never held twice, and replace and copy
    keep the arrays they are given; whoever passes one must not write to it
    through another view.
    """

    shape: tuple[int, ...]
    players: tuple[str, ...]
    strategy_labels: tuple[tuple[str, ...], ...]
    values: np.ndarray | None = field(repr=False)
    provenance: str
    totals: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        players = tuple(self.players)
        labels = tuple(tuple(axis) for axis in self.strategy_labels)
        if len(shape) != len(players):
            raise ValueError(f"{len(players)} player labels for {len(shape)} axes")
        if not shape:
            raise ValueError("a game needs at least one player")
        if any(s < 1 for s in shape):
            raise ValueError(f"every player needs at least one strategy, got shape {shape}")
        if len(labels) != len(shape) or any(len(axis) != s for axis, s in zip(labels, shape)):
            raise ValueError("strategy_labels must match shape")
        values, totals = self.values, self.totals
        if values is None:
            totals = tuple(map(_float_array, totals or ()))
            if [total.shape for total in totals] != [(s,) for s in shape]:
                raise ValueError(
                    f"a tensor needs values, or totals of one payoff per strategy of {shape}"
                )
            try:  # player_payoffs views totals[p] with one axis per player
                np.empty((1,) * len(shape))
            except ValueError as exc:  # more axes than numpy's limit on dimensions
                message = f"{len(shape)} players are more than numpy supports: {exc}"
                raise ValueError(message) from None
            arrays = totals
        elif totals is not None:
            raise ValueError("a tensor takes values or totals, not both")
        else:
            values = _float_array(values)
            if values.shape != shape + (len(players),):
                raise ValueError(
                    f"values shape {values.shape} does not match {shape + (len(players),)}"
                )
            arrays = [values]
        # min and max are nan if any value is, and need no array of flags.
        for array in arrays:
            if not (math.isfinite(array.min()) and math.isfinite(array.max())):
                raise ValueError("all payoff values must be finite")
            array.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "strategy_labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "totals", totals)

    @property
    def separable(self) -> bool:
        """Whether the tensor holds each player's ``totals`` rather than ``values``."""
        return self.totals is not None

    def player_payoffs(self, p: int) -> np.ndarray:
        """Player p's payoff at every profile, as a read-only array that
        broadcasts to ``shape``: ``values[..., p]``, or for a separable
        tensor a view of ``totals[p]`` along p's axis, with every other axis
        of length 1."""
        if self.totals is None:
            return self.values[..., p]
        return self.totals[p].reshape([k if q == p else 1 for q, k in enumerate(self.shape)])

    def payoffs_at(self, flat: np.ndarray) -> np.ndarray:
        """The (m, n) payoff rows of the profiles at ``flat``, an integer
        array of flat (C-order) indices; as in a dense gather, -1 is the
        last profile and an index outside the game raises IndexError. A
        separable tensor reads column p from ``totals[p]`` at
        ``flat // stride_p % k_p``, with no ``% k_0``."""
        if self.totals is None:
            return self.values.reshape(-1, self.n_players)[flat]
        payoffs = np.empty((len(flat), self.n_players))
        stride = self.n_profiles
        for p, (total, k) in enumerate(zip(self.totals, self.shape)):
            stride //= k
            payoffs[:, p] = total[flat // stride % k if p else flat // stride]
        return payoffs

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_profiles(self) -> int:
        return math.prod(self.shape)

    def payoff_vector(self, profile: Sequence[int]) -> tuple[float, ...]:
        profile = checked_profile(profile, self.shape, self.players)
        return tuple(self.payoffs_at(flat_indices([profile], self.shape))[0].tolist())

    def labels_for(self, profile: Sequence[int]) -> tuple[str, ...]:
        profile = checked_profile(profile, self.shape, self.players)
        return tuple(self.strategy_labels[p][i] for p, i in enumerate(profile))


def checked_profile(
    profile: Sequence[int], shape: Sequence[int], players: Sequence[str]
) -> Profile:
    """``profile`` as a tuple of ints, entry p checked by checked_index against
    ``shape[p]``: a ValueError names the player and the index."""
    profile = tuple(profile)
    if len(profile) != len(shape):
        raise ValueError(f"profile {profile!r} has {len(profile)} indices for {len(shape)} players")
    return tuple(
        checked_index(index, size, "strategy index", "strategies", player)
        for index, size, player in zip(profile, shape, players)
    )


def _float_array(array: object) -> np.ndarray:
    """``array`` as it is if it is a read-only, C-contiguous float array,
    else as a new float array."""
    kept = isinstance(array, np.ndarray) and array.dtype == float and array.flags.c_contiguous
    return array if kept and not array.flags.writeable else np.array(array, dtype=float)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def profiles_at(flat: Sequence[int] | np.ndarray, shape: tuple[int, ...]) -> tuple[Profile, ...]:
    """The profile, a tuple of Python ints, at each flat (C-order) index."""
    grid = np.unravel_index(flat, shape)  # up to 64 axes
    return tuple(zip(*(axis.tolist() for axis in grid)))


def flat_indices(profiles: Collection[Profile], shape: tuple[int, ...]) -> np.ndarray:
    """The flat (C-order) index of each profile."""
    grid = np.fromiter(
        itertools.chain.from_iterable(profiles), dtype=np.intp, count=len(profiles) * len(shape)
    )
    # Not np.ravel_multi_index, which takes at most 63 axes.
    strides = [math.prod(shape[p + 1 :]) for p in range(len(shape))]
    return grid.reshape(-1, len(shape)) @ np.array(strides, dtype=np.intp)


def iterate_profiles(shape: Iterable[int]) -> Iterator[Profile]:
    """All profiles of a shape in normative order (last index fastest)."""
    dims = tuple(int(s) for s in shape)
    if any(s < 1 for s in dims):
        raise ValueError(f"every player needs at least one strategy, got shape {dims}")
    return itertools.product(*(range(s) for s in dims))


# Bytes per profile that `solve` holds at its peak, in the residual listing's
# np.unique(shortfall, return_inverse=True) (see distinct_spellings): floats
# for the shortfall, its flattened copy and the sorted copy; a bool flag per
# sorted entry; intps for the argsort, the flags' cumsum and the inverse.
PROFILE_BYTES = 3 * np.dtype(float).itemsize + 1 + 3 * np.dtype(np.intp).itemsize


def build_tensor(
    scenario: Scenario, on_kernel: Callable[[PayoffTerms], object] | None = None
) -> PayoffTensor:
    """Evaluate the payoff formula at every candidate site: a separable tensor.

    Each player's payoff depends only on their own site, so the payoff kernel
    runs once per player over all of that player's sites, and the tensor
    keeps its totals (see PayoffTensor). ``on_kernel``, if given, is called
    with each player's PayoffTerms in turn. Raises ZeroDistanceError (naming
    player, site and object) if any candidate site sits on a natural object,
    OverflowError naming player and site if a payoff overflows to inf or nan,
    ValueError if there are more players than numpy has dimensions, and
    ValueError, before the kernel runs, if PROFILE_BYTES per profile would not
    fit in physical memory.
    """
    for player in scenario.players:
        if not player.sites:
            raise ValueError(f"player {player.id!r} has no candidate sites")
    shape = tuple(len(player.sites) for player in scenario.players)
    n = len(scenario.players)
    nbytes = math.prod(shape) * PROFILE_BYTES
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise ValueError(
            f"game of shape {shape} for {n} players needs {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )

    from .payoff import PayoffTerms

    totals = []
    for p, player in enumerate(scenario.players):
        terms = PayoffTerms(scenario, p)
        if on_kernel is not None:
            on_kernel(terms)
        for site, value in zip(player.sites, terms.total.tolist()):
            if not math.isfinite(value):
                message = f"payoff at site {site.id!r} overflows to {value!r}"
                raise OverflowError(f"player {player.id!r}: {message}")
        totals.append(terms.total)

    return PayoffTensor(
        shape=shape,
        players=tuple(player.id for player in scenario.players),
        strategy_labels=tuple(
            tuple(site.id for site in player.sites) for player in scenario.players
        ),
        values=None,
        provenance=PROVENANCE_COMPUTED,
        totals=totals,
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
    doc["payoffs"] = tensor.payoffs_at(np.arange(tensor.n_profiles)).tolist()
    return doc


# --- Listings ----------------------------------------------------------------
#
# A listing has one row per profile, joined a block at a time from columns of
# pre-spelled pieces. A JSON row is ``json.dumps``'s own layout of one entry,
# so a document comes out as ``json.dumps(doc, indent=2)`` writes it, without
# that encoder's Python call per value. A value nested at depth d is its
# top-level encoding with each "\n" replaced by "\n" plus 2d spaces: with
# ``ensure_ascii`` no newline occurs inside a string.

# Characters per block. The CLI writes each block before it renders the next,
# so this, not the output, bounds the memory a listing takes.
BLOCK_CHARS = 1 << 20

SLOT = "%s"
# A listing's detail codes for a block's slice of its rows (see listing).
Codes = Callable[[slice], Sequence[np.ndarray]]
# The value a document head gives each key that json_document writes as a
# listing, and what writes that listing's rows from (row, between).
LISTING = "<listing>"
Rows = Callable[[str, str], Iterator[str]]


def distinct_spellings(
    columns: Iterable[np.ndarray], spell: Callable[[list[float]], list[str]]
) -> tuple[list[np.ndarray], Codes]:
    """Listing details and their codes (see listing). For each of
    ``columns``, flat float arrays: its distinct floats as spelled by
    ``spell`` (a list of floats to their spellings), in an object array, and
    each float's index in that array.

    Each distinct bit pattern is spelled once (so -0.0 and 0.0 stay apart):
    residuals, and payoffs read from a file, often repeat.
    """
    details, codes = [], []
    for column in columns:
        bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        details.append(np.array(spell(distinct.view(float).tolist()), dtype=object))
        codes.append(inverse)
    return details, lambda rows: [c[rows] for c in codes]


def json_spellings(floats: list[float]) -> list[str]:
    """``json.dumps``'s spelling of each of ``floats``, for distinct_spellings."""
    # The indent-free encoder spells floats the way the indented one does
    # (float.__repr__); no spelling contains ", ". JSON has no inf or nan
    # (RFC 8259, section 6), so either raises ValueError.
    return json.dumps(floats, allow_nan=False)[1:-1].split(", ")


def index_spellings(shape: Sequence[int]) -> list[list[str]]:
    """Each player's strategy indices as decimal strings: a listing axis."""
    return [[str(k) for k in range(s)] for s in shape]


def listing(
    row: str, between: str, profiles: np.ndarray | range, shape: tuple[int, ...],
    axes: Sequence[Sequence[Sequence[str]]] = (), details: list[np.ndarray] | tuple[()] = (),
    codes: Codes = lambda rows: (),
) -> Iterator[str]:
    """The rows laid out by ``row``, row r for the profile whose flat
    (C-order) index is ``profiles[r]``, joined by ``between``: in blocks of
    at most BLOCK_CHARS characters or of one row, with the separator between
    two blocks as a piece of its own. ``profiles`` is an array of flat
    indices or a ``range`` of them; a listing of every profile passes
    ``range(n_profiles)``, so that it holds only a block's indices at once.

    ``row`` is a row with each value replaced by SLOT: one slot for each
    player along each of ``axes``, then one for each of the ``details``,
    arrays of spellings, which it empties: it takes each out of the list as
    it folds its slot. ``axes[a][p][k]`` spells player p's strategy k along
    axis a, and a detail's slot takes the spelling that the row's code from
    ``codes`` names. The players split into a head and a tail of about
    equal profile counts: along each axis, every head and every tail
    profile is spelled once, as its players' words, each followed by the
    text after its slot.
    """
    h = min(range(1, len(shape) + 1), key=lambda h: math.prod(shape[:h]) + math.prod(shape[h:]))
    tail_size = math.prod(shape[h:])

    # A detail that no text follows keeps its spellings uncopied. The text
    # after the last slot starts the next row instead, with ``between`` and
    # the text before the first slot, in front of the first slot's words: a
    # block's first row cuts that start down to the last of the three, and a
    # block ends with the text after the last slot.
    first, *after, last = row.split(SLOT)
    lead = last + between + first
    texts = [*after, ""]
    columns = []
    for a, axis in enumerate(axes):
        words = [[w + text for w in player] for player, text in zip(axis, texts[a * len(shape) :])]
        if not a:
            words[0] = [lead + w for w in words[0]]
        for part in (words[:h], words[h:]):
            columns.append(np.array(list(map("".join, itertools.product(*part))), dtype=object))
    for text in texts[len(axes) * len(shape) :]:
        spelled = details.pop(0)
        if not columns:  # one pass: the first spellings are copied once
            spelled = np.array([lead + s + text for s in spelled.tolist()], dtype=object)
        elif text:
            spelled = spelled + text
        columns.append(spelled)
    # Each column counts len(SLOT) characters past its widest spelling: blocks of
    # true-width rows raised render peaks (6x6x200 pairwise text 2.49 -> 2.72 MB).
    widest = sum(len(SLOT) + max(map(len, c.tolist()), default=0) for c in columns)
    size = max(1, BLOCK_CHARS // widest)
    cut = len(last) + len(between)
    for start in range(0, len(profiles), size):
        if start:
            yield between
        rows = slice(start, start + size)
        flat = profiles[rows]
        if isinstance(flat, range):
            flat = np.arange(flat.start, flat.stop, flat.step)
        head, tail = divmod(flat, tail_size)
        # No name holds the block or its pieces while the caller writes it.
        yield "".join(_pieces(columns, [*(head, tail) * len(axes), *codes(rows)], cut, last))


def _pieces(columns: list[np.ndarray], codes: list[np.ndarray], cut: int, last: str) -> list[str]:
    """A block's pieces in row order: each column's spellings gathered by the
    rows' codes (see listing); the block's first piece cut by ``cut``
    characters; and ``last`` at the end."""
    block = np.column_stack([spelled[c] for spelled, c in zip(columns, codes)])
    block[0, 0] = block[0, 0][cut:]
    pieces = block.ravel().tolist()
    pieces.append(last)
    return pieces


def json_profile_axes(tensor: PayoffTensor) -> list[list[list[str]]]:
    """The listing axes of an entry's "indices" and "labels", in JSON."""
    labels = [[json.dumps(label) for label in axis] for axis in tensor.strategy_labels]
    return [index_spellings(tensor.shape), labels]


def json_document(head: dict, listings: Iterable[tuple[str, object, Rows]]) -> Iterator[str]:
    """``json.dumps(head, indent=2)`` in pieces, with the list of each listing
    ``(key, entry, rows)`` where the head gives ``key`` the value LISTING.
    The listings come in the order of the document, and their keys are
    unique in it. ``rows(row, between)`` gives the entries in blocks, each
    shaped like ``entry`` with each SLOT string standing for a slot (see
    listing); with no entries the list is ``[]``."""
    rest = json.dumps(head, indent=2, allow_nan=False)
    for key, entry, rows in listings:
        # A string value escapes its quotes, so only the key itself, with
        # the placeholder after it, matches.
        before, rest = rest.split(f"{json.dumps(key)}: {json.dumps(LISTING)}", 1)
        newline = before[before.rindex("\n") :]
        yield f"{before}{json.dumps(key)}: "
        # Entries sit one level deeper than their key.
        row = json.dumps(entry, indent=2).replace("\n", f"{newline}  ")
        row = row.replace(f'"{SLOT}', SLOT).replace(f'{SLOT}"', SLOT)
        pieces = rows(row, f",{newline}  ")
        piece = next(pieces, None)
        if piece is None:
            yield "[]"
            continue
        yield f"[{newline}  "
        yield piece
        del piece
        yield from pieces
        yield f"{newline}]"
    yield rest


def tensor_from_dict(doc: object) -> PayoffTensor:
    """Parse a tensor document; provenance is always loaded-from-file.

    ``players`` and ``strategy_labels`` are optional and default to positional
    labels. Unknown keys are ignored.
    """
    doc = _expect_dict(doc, "document", TensorFormatError)
    shape_doc = _get(doc, "shape", "document", TensorFormatError)
    payoffs_doc = _get(doc, "payoffs", "document", TensorFormatError)
    if not isinstance(shape_doc, list) or not shape_doc:
        raise TensorFormatError("shape: expected a non-empty list of integers")
    shape = []
    for i, entry in enumerate(shape_doc):
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < 1:
            raise TensorFormatError(f"shape[{i}]: expected an integer >= 1, got {entry!r}")
        shape.append(entry)
    n = len(shape)
    n_profiles = math.prod(shape)

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
    players = _labels(players, n, "players")

    if "strategy_labels" in doc:
        labels = doc["strategy_labels"]
    else:
        labels = [[f"S{k + 1}" for k in range(s)] for s in shape]
    if not isinstance(labels, list) or len(labels) != n:
        raise TensorFormatError(f"strategy_labels: expected {n} label lists")
    labels = tuple(
        _labels(axis, s, f"strategy_labels[{p}]") for p, (axis, s) in enumerate(zip(labels, shape))
    )

    values = _plain_payoffs(payoffs_doc, n)
    if values is None:
        values = np.array(_walk_payoffs(payoffs_doc, n), dtype=float)
    try:
        values = values.reshape(tuple(shape) + (n,))
    except ValueError as exc:  # one axis more than numpy's limit on dimensions
        raise TensorFormatError(f"shape: {n} players are more than numpy supports: {exc}") from None
    values.setflags(write=False)
    return PayoffTensor(
        shape=tuple(shape),
        players=players,
        strategy_labels=labels,
        values=values,
        provenance=PROVENANCE_LOADED,
    )


def _labels(value: object, count: int, path: str) -> tuple[str, ...]:
    """``value`` as a tuple, once it is a list of ``count`` strings that
    encode as UTF-8; else raises TensorFormatError naming the first fault."""
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise TensorFormatError(f"{path}: expected a list of strings")
    if len(value) != count:
        raise TensorFormatError(f"{path}: expected {count} labels, got {len(value)}")
    for k, label in enumerate(value):
        if not encodes_as_utf8(label):
            raise TensorFormatError(f"{path}[{k}]: {NOT_UTF8}, got {label!r}")
    return tuple(value)


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


def tensor_document(
    tensor: PayoffTensor, explain: Sequence[PayoffTerms] | None = None
) -> Iterator[str]:
    """``json.dumps(tensor_to_dict(tensor), indent=2)`` in pieces. Given as ``explain`` the
    kernels that built the tensor (one PayoffTerms per player, in order, at all its sites),
    it ends with an ``explain`` listing: each profile's indices, labels and breakdowns."""
    n = tensor.n_players
    rows = functools.partial(listing, profiles=range(tensor.n_profiles), shape=tensor.shape)
    head = tensor_head(tensor) | {"payoffs": LISTING}
    if tensor.separable:
        # A row lists each player's total at their own strategy: the totals
        # are a listing axis.
        totals = [json_spellings(total.tolist()) for total in tensor.totals]
        payoff_rows = functools.partial(rows, axes=[totals])
    else:
        # Each player's distinct payoffs are spelled apart, since the text
        # after a payoff is folded into them; the listing empties ``details``.
        details, codes = distinct_spellings(tensor.values.reshape(-1, n).T, json_spellings)
        payoff_rows = functools.partial(rows, details=details, codes=codes)

    listings = [("payoffs", [SLOT] * n, payoff_rows)]
    if explain is not None:
        # One breakdown per (player, site), encoded once at its depth in the
        # document and shared by every profile that picks that site.
        breakdowns = []
        for terms in explain:
            columns = (terms.income.tolist(), terms.damage.tolist(), terms.total.tolist())
            breakdowns.append([
                json.dumps({"player": terms.player.id, "site": site.id, "income": income,
                            "damage": damage, "total": total}, indent=2, allow_nan=False)
                .replace("\n", "\n        ")
                for site, income, damage, total in zip(terms.player.sites, *columns)
            ])
        head["explain"] = LISTING
        entry = {"indices": [SLOT] * n, "labels": [SLOT] * n, "players": [SLOT] * n}
        axes = [*json_profile_axes(tensor), breakdowns]
        listings.append(("explain", entry, functools.partial(rows, axes=axes)))
    return json_document(head, listings)


def dumps_tensor(tensor: PayoffTensor, explain: Scenario | None = None) -> str:
    """The document of tensor_document, with the ``explain`` listing of the
    scenario ``explain`` if given, as one string ending in a newline."""
    from .payoff import PayoffTerms

    kernels = explain and [PayoffTerms(explain, p) for p in range(explain.n_players)]
    return "".join(itertools.chain(tensor_document(tensor, kernels), "\n"))


def load_tensor(path: Path | str) -> PayoffTensor:
    """Read and parse a tensor JSON file; see load_scenario for error style."""
    return tensor_from_dict(read_json(path, TensorFormatError))
