"""Solve report: runs the requested solvers over a tensor and renders the
results as JSON-ready data or human-readable text.

The JSON rendering keeps full float precision and fixed key order, so the
same inputs always produce byte-identical documents. Text mode rounds to six
significant digits.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .feasibility import FeasibilityReport, PairSpacingViolation
from .solvers import (
    DEFAULT_TOLERANCE,
    CompromiseResult,
    NashResult,
    find_compromise,
    find_pure_nash,
)
from .tensor import (
    PROFILE,
    SLOT,
    Detail,
    PayoffTensor,
    Profile,
    distinct_spellings,
    index_spellings,
    json_document,
    json_profile_axes,
    json_spellings,
    listing,
    tensor_head,
)

TOOL_NAME = "sitegame"


@dataclass(frozen=True)
class SolveReport:
    """Everything the CLI reports about one solve run."""

    tensor: PayoffTensor
    tolerance: float
    nash: NashResult | None
    compromise: CompromiseResult | None
    feasibility: tuple[FeasibilityReport, ...] | None = None
    pairwise_spacing: dict[Profile, tuple[PairSpacingViolation, ...]] | None = None

    def to_dict(self) -> dict:
        doc = self._head_dict()
        if self.compromise is not None:
            doc["residuals"] = [
                {
                    "indices": list(profile),
                    "labels": list(self.tensor.labels_for(profile)),
                    "residual": residual,
                }
                for profile, residual in self.compromise.residuals.items()
            ]
        return doc

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``: json_pieces as one string."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """to_json() in pieces, the residual listing a block at a time."""
        listings = []
        if self.compromise is not None:
            entry = {"indices": [PROFILE], "labels": [PROFILE], "residual": SLOT}
            residuals = distinct_spellings(self.compromise.shortfall.reshape(-1), json_spellings)
            listings.append(("residuals", entry, json_profile_axes(self.tensor), [residuals]))
        return json_document(self.tensor, self._head_dict(), listings)

    def _head_dict(self) -> dict:
        """The document without its per-profile residual listing."""
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
                feasibility["pairwise_spacing"] = [
                    {
                        "indices": list(profile),
                        "labels": list(tensor.labels_for(profile)),
                        "violations": [
                            {
                                "player_a": v.player_a,
                                "site_a": v.site_a,
                                "player_b": v.player_b,
                                "site_b": v.site_b,
                                "distance": v.distance,
                                "bound": v.bound,
                            }
                            for v in violations
                        ],
                    }
                    for profile, violations in self.pairwise_spacing.items()
                ]
            doc["feasibility"] = feasibility
        if self.nash is not None:
            doc["nash"] = {
                "count": len(self.nash.equilibria),
                "equilibria": [
                    self._profile_entry(profile) for profile in self.nash.equilibria
                ],
            }
        if self.compromise is not None:
            doc["compromise"] = {
                "ideal": list(self.compromise.ideal),
                "min_residual": self.compromise.min_residual,
                "count": len(self.compromise.minimizers),
                "minimizers": [
                    self._profile_entry(profile, residual=float(self.compromise.shortfall[profile]))
                    for profile in self.compromise.minimizers
                ],
            }
        return doc

    def _profile_entry(self, profile: Profile, residual: float | None = None) -> dict:
        entry = {
            "indices": list(profile),
            "labels": list(self.tensor.labels_for(profile)),
            "payoffs": list(self.tensor.payoff_vector(profile)),
        }
        if residual is not None:
            entry["residual"] = residual
        return entry

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
                yield f"\npairwise spacing violations: {len(self.pairwise_spacing)} profiles"
                yield from self._rows(*_spacing_details(self.pairwise_spacing, tensor.shape))
        if self.nash is not None:
            yield f"\nnash equilibria ({len(self.nash.equilibria)}):"
            yield from self._rows(*_payoff_details(tensor, self.nash.equilibria))
        if self.compromise is not None:
            yield f"\nideal vector: {_vector_text(self.compromise.ideal)}"
            yield (
                f"\ncompromise minimizers ({len(self.compromise.minimizers)}), "
                f"min residual {_fmt(self.compromise.min_residual)}:"
            )
            yield from self._rows(*_payoff_details(tensor, self.compromise.minimizers))
            yield "\nresiduals:"
            shortfall = self.compromise.shortfall.reshape(-1)
            residuals = distinct_spellings(shortfall, lambda floats: list(map(_fmt, floats)))
            yield from self._rows(np.arange(shortfall.size), residuals)

    def _rows(self, profiles: np.ndarray, details: Detail) -> Iterator[str]:
        """The rows "\\n  (labels) = (indices): details" of a text listing,
        for the flat (C-order) indices ``profiles``."""
        axes = (self.tensor.strategy_labels, index_spellings(self.tensor.shape))
        row = "\n  (%s%s) = (%s%s): %s"
        return listing(row, ", ", "", profiles, self.tensor.shape, axes, [details])


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _spacing_details(
    spacing: dict[Profile, tuple[PairSpacingViolation, ...]], shape: tuple[int, ...]
) -> tuple[np.ndarray, Detail]:
    """The flat indices of a pairwise listing's profiles and its detail: row
    r holds profile r's violations, joined by ", "."""
    # profile_spacing shares one tuple among the profiles with the same
    # violations: spell each tuple object once.
    ids = list(map(id, spacing.values()))
    distinct = dict(zip(ids, spacing.values()))
    spelled = [
        ", ".join(
            [f"{v.site_a}-{v.site_b} {v.bound} band (distance {_fmt(v.distance)})" for v in row]
        )
        for row in distinct.values()
    ]
    code = dict(zip(distinct, itertools.count()))
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
    return _flat_indices(spacing, shape), (np.array(spelled, dtype=object), codes)


def _flat_indices(profiles: Collection[Profile], shape: tuple[int, ...]) -> np.ndarray:
    """The flat (C-order) index of each profile."""
    grid = np.fromiter(
        itertools.chain.from_iterable(profiles), dtype=np.intp, count=len(profiles) * len(shape)
    )
    return np.ravel_multi_index(grid.reshape(-1, len(shape)).T, shape)


def _payoff_details(
    tensor: PayoffTensor, profiles: Collection[Profile]
) -> tuple[np.ndarray, Detail]:
    """The flat indices of ``profiles`` and a detail of their payoff
    vectors, "payoffs (...)"."""
    flat = _flat_indices(profiles, tensor.shape)
    payoffs = tensor.values.reshape(-1, tensor.n_players)[flat].tolist()
    spelled = np.array([f"payoffs {_vector_text(v)}" for v in payoffs], dtype=object)
    return flat, (spelled, np.arange(len(flat)))


def _vector_text(values) -> str:
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


def solve(
    tensor: PayoffTensor,
    *,
    nash: bool = True,
    compromise: bool = True,
    tolerance: float = DEFAULT_TOLERANCE,
    feasibility: tuple[FeasibilityReport, ...] | None = None,
    pairwise_spacing: dict[Profile, tuple[PairSpacingViolation, ...]] | None = None,
) -> SolveReport:
    """Run the requested solvers (both by default) and assemble a report."""
    return SolveReport(
        tensor=tensor,
        tolerance=tolerance,
        nash=find_pure_nash(tensor, tolerance) if nash else None,
        compromise=find_compromise(tensor, tolerance) if compromise else None,
        feasibility=feasibility,
        pairwise_spacing=pairwise_spacing,
    )
