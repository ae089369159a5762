"""Solve report: runs the requested solvers over a tensor and renders the
results as JSON-ready data or human-readable text.

The JSON rendering keeps full float precision and fixed key order, so the
same inputs always produce byte-identical documents. Text mode rounds to six
significant digits.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import DEFAULT_TOLERANCE, __version__, _checked_tolerance
from .solvers import (
    CompromiseResult,
    NashResult,
    find_compromise,
    find_pure_nash,
)
from .tensor import (
    LISTING,
    SLOT,
    Codes,
    PayoffTensor,
    Profile,
    Rows,
    checked_profile,
    distinct_spellings,
    flat_indices,
    index_spellings,
    iterate_profiles,
    json_document,
    json_profile_axes,
    json_spellings,
    listing,
    profiles_at,
    tensor_head,
)

if TYPE_CHECKING:
    from .feasibility import FeasibilityReport, PairSpacingViolation, SpacingCodes
    # What SolveReport lists as its pairwise section.
    _Pairwise = SpacingCodes | Mapping[Profile, Sequence[PairSpacingViolation]]

TOOL_NAME = "sitegame"

# A pairwise listing (see SolveReport._spacing).
_Spacing = tuple[np.ndarray, list[Sequence["PairSpacingViolation"]], Codes]


@dataclass(frozen=True)
class SolveReport:
    """Everything the CLI reports about one solve run.

    ``pairwise_spacing`` is what :func:`sitegame.feasibility.spacing_codes`
    returns. A mapping from violating profiles to their violations is listed
    too, in its own order: ``perfbench/traced.py`` builds one from
    :func:`sitegame.feasibility.check_profile_spacing`. Either lists only
    profiles with violations, in the feasibility section, and needs
    ``feasibility``: ``()`` lists no sites. ``pairwise_spacing``, unless a
    mapping, ``nash`` and ``compromise`` must be of the tensor's shape, each
    key of a mapping a profile of the tensor (see checked_profile) and each
    value a non-empty sequence of PairSpacingViolation: ValueError otherwise.
    """

    tensor: PayoffTensor
    tolerance: float
    nash: NashResult | None
    compromise: CompromiseResult | None
    feasibility: tuple[FeasibilityReport, ...] | None = None
    pairwise_spacing: _Pairwise | None = None

    def __post_init__(self) -> None:
        _checked_tolerance(self.tolerance)
        spacing = self.pairwise_spacing
        if spacing is not None and self.feasibility is None:
            raise ValueError("pairwise_spacing needs feasibility; feasibility=() lists no sites")
        shapes = {}
        if self.nash is not None:
            shapes["nash"] = self.nash.shape
        if isinstance(spacing, Mapping):
            from .feasibility import PairSpacingViolation

            for profile, found in spacing.items():
                checked_profile(profile, self.tensor.shape, self.tensor.players)
                if not isinstance(found, Sequence) or not found or not all(
                    isinstance(violation, PairSpacingViolation) for violation in found
                ):
                    raise ValueError(
                        f"pairwise_spacing at profile {profile!r}: expected a non-empty "
                        f"sequence of PairSpacingViolation, got {found!r}"
                    )
        elif spacing is not None:
            shapes["pairwise_spacing"] = spacing.shape
        if self.compromise is not None:
            shapes["compromise"] = self.compromise.shortfall.shape
        for name, shape in shapes.items():
            if shape != self.tensor.shape:
                raise ValueError(f"{name} has shape {shape}, the tensor {self.tensor.shape}")

    def to_dict(self) -> dict:
        doc = self._head_dict()
        if self.pairwise_spacing is not None:
            profiles, columns, codes = self._spacing()
            codes = [c.tolist() for c in codes(slice(None))]
            # asdict costs about 20 dict literals: each violation is turned
            # into a dict once, and that dict copied for each row that lists it.
            dicts = [[None, *map(asdict, column)] for column in columns]
            doc["feasibility"]["pairwise_spacing"] = [
                self._entry(
                    profile, violations=[dict(d[c[r]]) for d, c in zip(dicts, codes) if c[r]]
                )
                for r, profile in enumerate(profiles_at(profiles, self.tensor.shape))
            ]
        if self.nash is not None:
            rows = self.tensor.payoffs_at(self.nash.flat).tolist()
            doc["nash"]["equilibria"] = [
                self._entry(profile, payoffs=payoffs)
                for profile, payoffs in zip(self.nash.equilibria, rows)
            ]
        if self.compromise is not None:
            compromise = self.compromise
            rows = self.tensor.payoffs_at(compromise.flat).tolist()
            doc["compromise"]["minimizers"] = [
                self._entry(profile, payoffs=payoffs, residual=float(compromise.shortfall[profile]))
                for profile, payoffs in zip(compromise.minimizers, rows)
            ]
            shortfall = compromise.shortfall
            residuals = zip(iterate_profiles(shortfall.shape), shortfall.reshape(-1).tolist())
            doc["residuals"] = [self._entry(profile, residual=r) for profile, r in residuals]
        return doc

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``: json_pieces as one string."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """to_json() in pieces, each per-profile listing a block at a time."""
        listings = []
        slots = [SLOT] * self.tensor.n_players
        profile = {"indices": slots, "labels": slots}
        if self.pairwise_spacing is not None:
            entry = {**profile, "violations": SLOT}
            listings.append(("pairwise_spacing", entry, self._spacing_json))
        # A lambda looks up its names when it runs: each listing's indices have their own.
        payoffs = self.tensor.payoffs_at
        if self.nash is not None:
            equilibria = self.nash.flat
            rows = self._json_rows(equilibria, lambda: payoffs(equilibria).T)
            listings.append(("equilibria", {**profile, "payoffs": slots}, rows))
        if self.compromise is not None:
            minimal, shortfall = self.compromise.flat, self.compromise.shortfall.reshape(-1)
            rows = self._json_rows(minimal, lambda: [*payoffs(minimal).T, shortfall[minimal]])
            listings.append(("minimizers", {**profile, "payoffs": slots, "residual": SLOT}, rows))
            rows = self._json_rows(range(shortfall.size), lambda: [shortfall])
            listings.append(("residuals", {**profile, "residual": SLOT}, rows))
        return json_document(self._head_dict(), listings)

    def _head_dict(self) -> dict:
        """The document with LISTING for each per-profile listing."""
        tensor = self.tensor
        doc: dict = {
            "tool": {"name": TOOL_NAME, "version": __version__},
            "tolerance": self.tolerance,
            "tensor": {"provenance": tensor.provenance, **tensor_head(tensor)},
        }
        if self.feasibility is not None:
            feasibility: dict = {
                "sites": [
                    {
                        "player": report.player_id,
                        "site": report.site_id,
                        "in_box": report.in_box,
                        "band_violations": [
                            {
                                "object": violation.object_id,
                                "distance": violation.distance,
                                "bound": violation.bound,
                            }
                            for violation in report.band_violations
                        ],
                        "feasible": report.feasible,
                    }
                    for report in self.feasibility
                ]
            }
            if self.pairwise_spacing is not None:
                feasibility["pairwise_spacing"] = LISTING
            doc["feasibility"] = feasibility
        if self.nash is not None:
            doc["nash"] = {"count": self.nash.flat.size, "equilibria": LISTING}
        if self.compromise is not None:
            doc["compromise"] = {
                "ideal": list(self.compromise.ideal),
                "min_residual": self.compromise.min_residual,
                "count": self.compromise.flat.size,
                "minimizers": LISTING,
            }
            doc["residuals"] = LISTING
        return doc

    def _entry(self, profile: Profile, **fields) -> dict:
        """A profile's JSON entry: its indices and labels, then ``fields``."""
        return {"indices": list(profile), "labels": list(self.tensor.labels_for(profile)), **fields}

    def _json_rows(
        self, profiles: np.ndarray | range, columns: Callable[[], Iterable[np.ndarray]]
    ) -> Rows:
        """The writer of a JSON listing (see json_document) of the flat (C-order)
        indices ``profiles``: each row holds its indices and labels, then its
        float in each of ``columns()``, called only as the listing is written."""

        def rows(row: str, between: str) -> Iterator[str]:
            details, codes = distinct_spellings(columns(), json_spellings)
            axes = json_profile_axes(self.tensor)
            return listing(row, between, profiles, self.tensor.shape, axes, details, codes)

        return rows

    def _spacing_json(self, row: str, between: str) -> Iterator[str]:
        profiles, columns, codes = self._spacing()
        item = f"{between[1:]}    "  # a row's violations sit one level below its keys

        def spell(violation: PairSpacingViolation) -> str:
            return json.dumps(asdict(violation), indent=2, allow_nan=False).replace("\n", item)

        details, codes = _violation_columns(columns, codes, spell, f",{item}")
        before, _, after = row.rpartition(SLOT)  # the violations' slot is the last
        row = f"{before}[{item}{SLOT * len(details)}{between[1:]}  ]{after}"
        axes = json_profile_axes(self.tensor)
        return listing(row, between, profiles, self.tensor.shape, axes, details, codes)

    def _spacing(self) -> _Spacing:
        """The pairwise listing: its profiles' flat (C-order) indices, its
        columns and the codes of a block's rows in each. Code c >= 1 of a
        column names the violation at c - 1 in it, and 0 none: one column
        per player pair, or, for a mapping, column j for each row's
        violation at j. Each row names one violation at least."""
        spacing = self.pairwise_spacing
        if not isinstance(spacing, Mapping):
            profiles = spacing.violating()
            columns = [found for *_, found in spacing.pairs]
            return profiles, columns, lambda rows: spacing.codes_at(profiles[rows])
        found = list(spacing.values())
        columns, codes = [], []
        for j in range(max(map(len, found), default=0)):
            hit = np.fromiter((len(row) > j for row in found), bool, len(found))
            columns.append([row[j] for row in found if len(row) > j])
            codes.append(np.cumsum(hit) * hit)
        profiles = flat_indices(spacing, self.tensor.shape)
        return profiles, columns, lambda rows: [c[rows] for c in codes]

    def to_text(self) -> str:
        return "".join(self.text_pieces())

    def text_pieces(self) -> Iterator[str]:
        """to_text() in pieces: one per line outside the listings, and the
        listings a block at a time."""
        tensor = self.tensor
        yield f"{TOOL_NAME} {__version__}"
        shape = "x".join(str(s) for s in tensor.shape)
        yield f"\ntensor {shape} ({tensor.provenance}); players: {', '.join(tensor.players)}"
        yield f"\ntolerance {_fmt(self.tolerance)}"
        if self.feasibility is not None:
            feasible = sum(1 for report in self.feasibility if report.feasible)
            yield f"\nfeasibility: {len(self.feasibility)} sites checked, {feasible} feasible"
            for report in self.feasibility:
                if report.feasible:
                    continue
                problems = []
                if not report.in_box:
                    problems.append("outside region box")
                problems.extend(
                    f"{v.bound} band to {v.object_id} (distance {_fmt(v.distance)})"
                    for v in report.band_violations
                )
                yield f"\n  {report.player_id}/{report.site_id}: {'; '.join(problems)}"
            if self.pairwise_spacing is not None:
                yield from self._spacing_text()
        if self.nash is not None:
            yield f"\nnash equilibria ({self.nash.flat.size}):"
            yield from self._payoff_rows(self.nash)
        if self.compromise is not None:
            yield f"\nideal vector: ({', '.join(_text_spellings(self.compromise.ideal))})"
            yield (
                f"\ncompromise minimizers ({self.compromise.flat.size}), "
                f"min residual {_fmt(self.compromise.min_residual)}:"
            )
            yield from self._payoff_rows(self.compromise)
            yield "\nresiduals:"
            shortfall = self.compromise.shortfall.reshape(-1)
            details, codes = distinct_spellings([shortfall], _text_spellings)
            yield from self._rows(range(shortfall.size), details, codes, SLOT)

    def _spacing_text(self) -> Iterator[str]:
        """The pairwise section: its count, then a row per profile."""
        # Its own generator, so that the listing's profiles are freed with it.
        profiles, columns, codes = self._spacing()
        yield f"\npairwise spacing violations: {len(profiles)} profiles"
        details, codes = _violation_columns(columns, codes, _violation_text, ", ")
        yield from self._rows(profiles, details, codes, SLOT * len(details))

    def _rows(
        self, profiles: np.ndarray | range, details: Sequence[np.ndarray], codes: Codes, text: str
    ) -> Iterator[str]:
        """The rows "\\n  (labels) = (indices): text" of a text listing, for
        the flat (C-order) indices ``profiles`` (see listing); ``text`` holds
        a slot for each of the details."""
        profile = ", ".join([SLOT] * self.tensor.n_players)
        axes = (self.tensor.strategy_labels, index_spellings(self.tensor.shape))
        row = f"\n  ({profile}) = ({profile}): {text}"
        return listing(row, "", profiles, self.tensor.shape, axes, details, codes)

    def _payoff_rows(self, listed: NashResult | CompromiseResult) -> Iterator[str]:
        """The text rows of ``listed``'s profiles, those at its flat (C-order)
        indices, each with its payoff vector, read from the tensor: "payoffs (...)"."""
        details, codes = distinct_spellings(self.tensor.payoffs_at(listed.flat).T, _text_spellings)
        return self._rows(listed.flat, details, codes, f"payoffs ({', '.join([SLOT] * len(details))})")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text_spellings(floats: list[float]) -> list[str]:
    """The text spelling of each of ``floats``, for distinct_spellings."""
    return list(map(_fmt, floats))


def _violation_text(v: PairSpacingViolation) -> str:
    return f"{v.site_a}-{v.site_b} {v.bound} band (distance {_fmt(v.distance)})"


def _violation_columns(
    columns: list[Sequence[PairSpacingViolation]],
    codes: Codes,
    spell: Callable[[PairSpacingViolation], str],
    later: str,
) -> tuple[list[np.ndarray], Codes]:
    """A pairwise listing's details, and what gives their codes for a block
    (see listing): a row's violations, each spelled once per column by
    ``spell``, after ``later`` in each of its columns but the first."""
    details = []
    for j, column in enumerate(columns):
        spelled = list(map(spell, column))
        every = ["", *spelled]
        if j:  # no column comes before the first
            every += [later + text for text in spelled]
        details.append(np.array(every, dtype=object))

    def violation_codes(rows: slice) -> list[np.ndarray]:
        # Code c of a column stands for c + len(column) once an earlier
        # column of its row has violations.
        found, seen = [], False
        for c, column in zip(codes(rows), columns):
            hit = c != 0
            found.append(c + len(column) * (seen & hit))
            seen = seen | hit
        return found

    return details, violation_codes


def solve(
    tensor: PayoffTensor,
    *,
    nash: bool = True,
    compromise: bool = True,
    tolerance: float = DEFAULT_TOLERANCE,
    feasibility: tuple[FeasibilityReport, ...] | None = None,
    pairwise_spacing: _Pairwise | None = None,
) -> SolveReport:
    """Run the requested solvers (both by default) and assemble a report.
    Raises the report's ValueErrors (see SolveReport) before either solver runs."""
    report = SolveReport(tensor, tolerance, None, None, feasibility, pairwise_spacing)
    return replace(
        report,
        nash=find_pure_nash(tensor, tolerance) if nash else None,
        compromise=find_compromise(tensor, tolerance) if compromise else None,
    )
