"""The benchmark workloads: the input each one generates from a seed, the
`sitegame` command it runs, and the correctness gate for that command's
output.

The gate is computed once per generated input, outside the timed region,
from the independent reference implementations in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import inputs
import oracles
from sitegame.solvers import DEFAULT_TOLERANCE

INPUT = "{input}"

# Sizes are chosen so one CLI invocation takes about a second on a 2-vCPU
# x86 VM, so a 25-second run holds a dozen or more invocations per median,
# and so the pure-Python oracles stay within a few seconds.
DENSE_SHAPE = (5, 8)  # players, strategies: 8^5 = 32,768 profiles
WIDE_SHAPE = (3, 40, 1500)  # players, sites, objects: 64,000 profiles
DEEP_SHAPE = (6, 6, 200)  # players, sites, objects: 46,656 profiles


@dataclass(frozen=True)
class Prepared:
    """One generated input and the gate its command's stdout must pass."""

    doc: dict
    check: Callable[[bytes], list[str]]
    note: str = ""


@dataclass(frozen=True)
class Workload:
    """A `sitegame` command over one generated input. Why each workload was
    chosen is recorded in BENCHMARK.json."""

    name: str
    command: tuple[str, ...]
    prepare: Callable[[int], Prepared]

    def argv(self, input_path: str) -> list[str]:
        return [input_path if arg == INPUT else arg for arg in self.command]


def _gate(check: Callable[[bytes], list[str]]) -> Callable[[bytes], list[str]]:
    """Turn an output the gate cannot even read into a reported problem."""

    def guarded(output: bytes) -> list[str]:
        try:
            return check(output)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, StopIteration) as exc:
            return [f"output not in the expected form: {type(exc).__name__}: {exc}"]

    return guarded


def _prepare_dense(seed: int) -> Prepared:
    players, strategies = DENSE_SHAPE
    doc, values = inputs.random_tensor_doc(seed, players, strategies)
    shape = tuple(doc["shape"])
    profiles = itertools.product(*(range(s) for s in shape))
    payoffs = dict(zip(profiles, map(tuple, values.reshape(-1, players).tolist())))
    nash = [list(u) for u in oracles.oracle_nash(shape, payoffs, DEFAULT_TOLERANCE)]
    ideal, _, minimizers, min_residual = oracles.oracle_compromise(shape, payoffs, DEFAULT_TOLERANCE)
    minimizers = [list(u) for u in minimizers]

    def check(output: bytes) -> list[str]:
        got = json.loads(output)
        problems = []
        if [entry["indices"] for entry in got["nash"]["equilibria"]] != nash:
            problems.append(f"nash set differs from oracle_nash ({len(nash)} equilibria)")
        if got["compromise"]["ideal"] != ideal:
            problems.append("ideal vector differs from oracle_compromise")
        if got["compromise"]["min_residual"] != min_residual:
            problems.append("min_residual differs from oracle_compromise")
        if [entry["indices"] for entry in got["compromise"]["minimizers"]] != minimizers:
            problems.append("compromise minimizers differ from oracle_compromise")
        return problems

    return Prepared(doc, _gate(check))


def _argmax_product(doc: dict) -> list[list[int]]:
    """Nash set of a scenario game: each player's payoff depends only on their
    own site, so it is the product of each player's argmax sets."""
    objects = [(obj["x"], obj["y"]) for obj in doc["objects"]]
    pi_value = doc["region"]["pi"]
    best_sites = []
    for player in doc["players"]:
        totals = [
            oracles.oracle_payoff_total(
                (site["x"], site["y"]),
                player["loss"][k],
                player["damage_weight"][k],
                player["emission"],
                objects,
                pi_value,
            )
            for k, site in enumerate(player["sites"])
        ]
        best = max(totals)
        best_sites.append([k for k, total in enumerate(totals) if total >= best - DEFAULT_TOLERANCE])
    return [list(u) for u in itertools.product(*best_sites)]


_NASH_HEADER = re.compile(r"nash equilibria \((\d+)\):")
_PROFILE_LINE = re.compile(r"  \(.*\) = \(([\d, ]+)\): payoffs ")


def _text_nash(text: str) -> list[list[int]]:
    lines = iter(text.split("\n"))
    count = next(int(m.group(1)) for m in map(_NASH_HEADER.fullmatch, lines) if m)
    return [
        [int(i) for i in _PROFILE_LINE.match(next(lines)).group(1).split(", ")]
        for _ in range(count)
    ]


_PAIRWISE_HEADER = re.compile(r"pairwise spacing violations: (\d+) profiles")


def _prepare_scenario_text(shape: tuple[int, int, int], *, pairwise_band: bool):
    def prepare(seed: int) -> Prepared:
        doc = inputs.random_scenario_doc(seed, *shape, pairwise_band=pairwise_band)
        nash = _argmax_product(doc)
        profiles = math.prod(len(player["sites"]) for player in doc["players"])
        violating = inputs.pairwise_violating_profiles(doc) if pairwise_band else None

        def check(output: bytes) -> list[str]:
            text = output.decode("utf-8")
            problems = []
            got = _text_nash(text)
            if got != nash:
                problems.append(f"nash set {got[:3]} differs from the product of oracle argmaxes {nash[:3]}")
            if violating is not None:
                reported = int(_PAIRWISE_HEADER.search(text).group(1))
                if reported != violating:
                    problems.append(f"{reported} profiles violate the pairwise band, expected {violating}")
            return problems

        note = ""
        if violating is not None:
            note = f"pairwise band violated by {violating} of {profiles} profiles ({violating / profiles:.4f})"
        return Prepared(doc, _gate(check), note)

    return prepare


def _prepare_tensor_doc(seed: int) -> Prepared:
    doc = inputs.random_scenario_doc(seed, *DEEP_SHAPE, pairwise_band=True)
    sites = [len(player["sites"]) for player in doc["players"]]
    rows = math.prod(sites)

    def check(output: bytes) -> list[str]:
        got = json.loads(output)
        problems = []
        if got["shape"] != sites:
            problems.append(f"shape {got['shape']} differs from {sites}")
        if len(got["payoffs"]) != rows:
            problems.append(f"{len(got['payoffs'])} payoff rows, expected {rows}")
        return problems

    return Prepared(doc, _gate(check))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_tensor_json",
            ("solve", INPUT, "--format", "json"),
            _prepare_dense,
        ),
        Workload(
            "wide_scenario_text",
            ("solve", INPUT),
            _prepare_scenario_text(WIDE_SHAPE, pairwise_band=False),
        ),
        Workload(
            "deep_scenario_pairwise",
            ("solve", INPUT, "--pairwise-band"),
            _prepare_scenario_text(DEEP_SHAPE, pairwise_band=True),
        ),
        Workload(
            "scenario_tensor_doc",
            ("tensor", INPUT),
            _prepare_tensor_doc,
        ),
    )
}
