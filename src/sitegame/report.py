"""Solve report: runs the requested solvers over a tensor and renders the
results as JSON-ready data or human-readable text.

The JSON rendering keeps full float precision and fixed key order, so the
same inputs always produce byte-identical documents. Text mode rounds to six
significant digits.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Collection, Iterator, Sequence
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
    JSON_SLOT,
    PayoffTensor,
    Profile,
    distinct_spellings,
    index_spellings,
    json_document,
    json_floats,
    profile_json_columns,
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
        """``json.dumps(self.to_dict(), indent=2)``, with the residual listing
        rendered from the shortfall array."""
        head = self._head_dict()
        if self.compromise is None:
            return json.dumps(head, indent=2)
        shortfall = json_floats(self.compromise.shortfall).reshape(-1, 1)
        n = self.tensor.n_players
        entry = {"indices": [JSON_SLOT] * n, "labels": [JSON_SLOT] * n, "residual": JSON_SLOT}
        slots = np.hstack([*profile_json_columns(self.tensor), shortfall])
        return json_document(head, [("residuals", entry, slots)])

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
        tensor = self.tensor
        lines = [f"{TOOL_NAME} {__version__}"]
        shape = "x".join(str(s) for s in tensor.shape)
        lines.append(
            f"tensor {shape} ({tensor.provenance}); players: {', '.join(tensor.players)}"
        )
        lines.append(f"tolerance {_fmt(self.tolerance)}")
        if self.feasibility is not None:
            feasible = sum(1 for report in self.feasibility if report.feasible)
            lines.append(
                f"feasibility: {len(self.feasibility)} sites checked, {feasible} feasible"
            )
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
                lines.append(f"  {report.player_id}/{report.site_id}: {'; '.join(problems)}")
            if self.pairwise_spacing is not None:
                lines.append(
                    f"pairwise spacing violations: {len(self.pairwise_spacing)} profiles"
                )
            if self.pairwise_spacing:
                details = _spacing_details(self.pairwise_spacing, tensor.shape)
                lines.extend(_listing(tensor, *details))
        if self.nash is not None:
            lines.append(f"nash equilibria ({len(self.nash.equilibria)}):")
            lines.extend(_listing(tensor, *_payoff_details(tensor, self.nash.equilibria)))
        if self.compromise is not None:
            lines.append(f"ideal vector: {_vector_text(self.compromise.ideal)}")
            lines.append(
                f"compromise minimizers ({len(self.compromise.minimizers)}), "
                f"min residual {_fmt(self.compromise.min_residual)}:"
            )
            lines.extend(_listing(tensor, *_payoff_details(tensor, self.compromise.minimizers)))
            lines.append("residuals:")
            shortfall = self.compromise.shortfall.reshape(-1)
            residuals = distinct_spellings(shortfall, lambda floats: list(map(_fmt, floats)))
            lines.extend(_listing(tensor, np.arange(shortfall.size), residuals.reshape(-1, 1)))
        return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# A listing is filled a block of rows at a time: one ``%`` over a whole
# listing would hold all of its slots in one tuple beside its text.
LISTING_BLOCK_ROWS = 4096


def _listing(tensor: PayoffTensor, profiles: np.ndarray, details: np.ndarray) -> Iterator[str]:
    """The rows "  (labels) = (indices): details" of a text listing, one
    string per block of rows.

    Row r lists the profile whose flat (C-order) index is ``profiles[r]``,
    then the detail string ``details[r, 0]``. The players split into a head
    and a tail whose profile counts are about equal; the labels and indices
    of every head profile and of every tail profile are spelled once, and a
    row fills five slots from them.
    """
    shape = tensor.shape
    h = min(range(1, len(shape) + 1), key=lambda h: math.prod(shape[:h]) + math.prod(shape[h:]))
    tail_size = math.prod(shape[h:])
    axes = (tensor.strategy_labels, index_spellings(shape))
    # A head spelling ends in ", " when a tail spelling follows it.
    heads = [_spellings(axis[:h], ", " if h < len(shape) else "") for axis in axes]
    tails = [_spellings(axis[h:], "") for axis in axes]
    row = "  (%s%s) = (%s%s): %s"
    for start in range(0, len(profiles), LISTING_BLOCK_ROWS):
        block = slice(start, start + LISTING_BLOCK_ROWS)
        head, tail = divmod(profiles[block], tail_size)
        filled = np.column_stack(
            [heads[0][head], tails[0][tail], heads[1][head], tails[1][tail], details[block]]
        )
        yield "\n".join(itertools.repeat(row, len(filled))) % tuple(filled.reshape(-1).tolist())


def _spellings(axes: Sequence[Sequence[str]], end: str) -> np.ndarray:
    """For every profile of ``axes`` in C order, its entries joined by ", "
    and followed by ``end``, as an object array."""
    spelled = [", ".join(entries) + end for entries in itertools.product(*axes)]
    return np.array(spelled, dtype=object)


def _spacing_details(
    spacing: dict[Profile, tuple[PairSpacingViolation, ...]], shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a non-empty pairwise listing's profiles and its
    detail column: row r holds profile r's violations, joined by ", "."""
    # profile_spacing shares one tuple among the profiles with the same
    # violations: spell each tuple object once.
    ids = list(map(id, spacing.values()))
    spelled = {
        key: ", ".join(
            [f"{v.site_a}-{v.site_b} {v.bound} band (distance {_fmt(v.distance)})" for v in row]
        )
        for key, row in dict(zip(ids, spacing.values())).items()
    }
    details = np.array(list(map(spelled.__getitem__, ids)), dtype=object)
    return _flat_indices(spacing, shape), details.reshape(-1, 1)


def _flat_indices(profiles: Collection[Profile], shape: tuple[int, ...]) -> np.ndarray:
    """The flat (C-order) index of each profile."""
    grid = np.fromiter(
        itertools.chain.from_iterable(profiles), dtype=np.intp, count=len(profiles) * len(shape)
    )
    return np.ravel_multi_index(grid.reshape(-1, len(shape)).T, shape)


def _payoff_details(
    tensor: PayoffTensor, profiles: Collection[Profile]
) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of ``profiles`` and a detail column of their payoff
    vectors, "payoffs (...)"."""
    flat = _flat_indices(profiles, tensor.shape)
    payoffs = tensor.values.reshape(-1, tensor.n_players)[flat].tolist()
    return flat, np.array([f"payoffs {_vector_text(v)}" for v in payoffs], dtype=object)[:, None]


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
