"""Traced in-process copy of the CLI's call sequence, and the per-layer
metrics computed from its spans.

Each call into a public function of a ``sitegame`` module is wrapped in a
span named ``<layer>.<call>``, where the layer is the module the function
lives in: ``cli``, ``scenario``, ``payoff``, ``tensor``, ``feasibility``,
``solvers`` or ``report``. The copy writes the bytes the CLI writes to
stdout, so the benchmark can confirm that it measured the same program.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from sitegame.cli import build_parser
from sitegame.feasibility import check_profile_spacing, check_scenario
from sitegame.payoff import payoff
from sitegame.report import SolveReport
from sitegame.scenario import scenario_from_dict, validate
from sitegame.solvers import find_compromise, find_pure_nash
from sitegame.tensor import build_tensor, iterate_profiles, tensor_from_dict, tensor_to_dict

LAYERS = ("cli", "scenario", "payoff", "tensor", "feasibility", "solvers", "report")
# Calls whose allocation peak the tracemalloc pass records.
ALLOC_SPANS = (
    "tensor.from_dict",
    "tensor.to_dict",
    "solvers.compromise",
    "report.to_dict",
    "cli.json_encode",
)
MIB = float(1 << 20)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span within the same run
    run: int
    alloc_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, one list per run; the caller writes them out.

    With ``measure_alloc`` the calls named in ALLOC_SPANS run under
    tracemalloc and record their allocation peak; such a run's timings are
    distorted and only its allocation figures are used.
    """

    def __init__(self, *, measure_alloc: bool = False):
        self.runs: list[list[Span]] = []
        self.measure_alloc = measure_alloc
        self._open: list[int] = []

    def new_run(self) -> None:
        self.runs.append([])
        self._open = []

    @contextmanager
    def span(self, name: str):
        spans = self.runs[-1]
        index = len(spans)
        parent = self._open[-1] if self._open else None
        spans.append(None)
        self._open.append(index)
        alloc = self.measure_alloc and name in ALLOC_SPANS
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = None
            if alloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()
            spans[index] = Span(name, start, end, parent, len(self.runs) - 1, peak)


def traced_run(tracer: Tracer, argv: list[str], out_path: Path) -> dict[str, float]:
    """One traced run of `sitegame <argv>`, writing its stdout to ``out_path``.

    Mirrors ``sitegame.cli._cmd_solve`` and ``_cmd_tensor`` call for call. If
    those change and this copy does not follow, its output digest differs
    from the CLI's and the benchmark counts a failure. Returns the run's
    exact work counts. A scenario run is followed by a second, separate
    trace that calls the public payoff() once per (player, site).
    """
    counts: dict[str, float] = {}
    tracer.new_run()
    with tracer.span("run"):
        with tracer.span("cli.parse_args"):
            args = build_parser().parse_args(argv)
        with tracer.span("cli.read"):
            text = Path(args.file).read_text(encoding="utf-8")
        with tracer.span("cli.json_parse"):
            doc = json.loads(text)
        scenario = None
        if args.command == "solve" and "payoffs" in doc:
            with tracer.span("tensor.from_dict"):
                tensor = tensor_from_dict(doc)
        else:
            with tracer.span("scenario.from_dict"):
                scenario = scenario_from_dict(doc)
            with tracer.span("scenario.validate"):
                violations = validate(scenario)
            if violations:
                raise ValueError(f"generated scenario is invalid: {violations[0]}")
            with tracer.span("tensor.build"):
                tensor = build_tensor(scenario)

        if args.command == "tensor":
            with tracer.span("tensor.to_dict"):
                out_doc = tensor_to_dict(tensor)
            with tracer.span("cli.json_encode"):
                rendered = json.dumps(out_doc, indent=2)
        else:
            feasibility = pairwise = None
            if scenario is not None:
                with tracer.span("feasibility.check_scenario"):
                    feasibility = tuple(check_scenario(scenario))
                counts["feasibility.site_object_pairs"] = len(feasibility) * scenario.n_objects
                if args.pairwise_band:
                    with tracer.span("feasibility.pairwise"):
                        pairwise = {}
                        for profile in iterate_profiles(tensor.shape):
                            found = check_profile_spacing(scenario, profile)
                            if found:
                                pairwise[profile] = tuple(found)
            nash = compromise = None
            if args.nash or not args.compromise:
                with tracer.span("solvers.nash"):
                    nash = find_pure_nash(tensor, args.tolerance)
            if args.compromise or not args.nash:
                with tracer.span("solvers.compromise"):
                    compromise = find_compromise(tensor, args.tolerance)
            report = SolveReport(tensor, args.tolerance, nash, compromise, feasibility, pairwise)
            if args.format == "json":
                with tracer.span("report.to_dict"):
                    out_doc = report.to_dict()
                with tracer.span("cli.json_encode"):
                    rendered = json.dumps(out_doc, indent=2)
            else:
                with tracer.span("report.to_text"):
                    rendered = report.to_text()
            counts.update(_solve_counts(tensor, nash, compromise, pairwise))
        with tracer.span("cli.write"):
            with open(out_path, "w", encoding="utf-8") as out:
                out.write(rendered)
                out.write("\n")

    counts["cli.input_mb"] = Path(args.file).stat().st_size / MIB
    counts["cli.output_mb"] = out_path.stat().st_size / MIB
    counts["tensor.profiles"] = tensor.n_profiles
    counts["tensor.entries"] = tensor.n_profiles * tensor.n_players
    counts["tensor.values_mb"] = tensor.n_profiles * tensor.n_players * 8 / MIB  # computed
    if scenario is not None:
        sites = sum(len(player.sites) for player in scenario.players)
        counts["scenario.coefficients"] = 2 * sites * scenario.n_objects  # loss + damage_weight
        counts["payoff.terms"] = sites * scenario.n_objects
        _probe_payoff(tracer, scenario)
    return counts


def _solve_counts(tensor, nash, compromise, pairwise) -> dict[str, float]:
    counts: dict[str, float] = {"report.rows": 0}
    if pairwise is not None:
        n = tensor.n_players
        counts["feasibility.pair_checks"] = tensor.n_profiles * n * (n - 1) // 2
        counts["feasibility.violating_profile_share"] = len(pairwise) / tensor.n_profiles
        counts["report.rows"] += len(pairwise)
    if nash is not None:
        counts["solvers.equilibria"] = len(nash.equilibria)
        counts["solvers.nash_yield"] = len(nash.equilibria) / tensor.n_profiles
        counts["report.rows"] += len(nash.equilibria)
    if compromise is not None:
        counts["solvers.minimizers"] = len(compromise.minimizers)
        counts["solvers.residual_entries"] = len(compromise.residuals)
        counts["report.rows"] += len(compromise.minimizers) + len(compromise.residuals)
    return counts


def _probe_payoff(tracer: Tracer, scenario) -> None:
    tracer.new_run()
    with tracer.span("probe"):
        for p, player in enumerate(scenario.players):
            for k, site in enumerate(player.sites):
                with tracer.span("payoff.payoff"):
                    payoff(p, site.position, scenario, site_index=k)


def run_times(spans: list[Span]) -> dict[str, float]:
    """Summed time per call name, self time per layer and the root's total."""
    self_time = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.duration
    out: dict[str, float] = {}
    for s, own in zip(spans, self_time):
        if s.parent is None:
            out["total_s"] = s.duration
            continue
        out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.duration
        layer = f"{s.name.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + own
        if s.alloc_bytes is not None:
            out[f"{s.name}_alloc_mb"] = s.alloc_bytes / MIB
    return out


def per_layer(timed: Tracer, alloc: Tracer, counts: dict[str, float], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics: medians over the timed runs, exact counts, the
    allocation peaks of the tracemalloc pass and the tracing overhead.

    ``untraced_s`` is the untraced median of wall_s - setup_s. A layer that
    does not run on a workload reports 0.
    """
    cli_runs = [run_times(spans) for spans in timed.runs if spans[0].name == "run"]
    for run in cli_runs:
        run["trace.unaccounted_s"] = run["total_s"] - sum(
            run.get(f"{layer}.self_s", 0.0) for layer in LAYERS
        )
    probe_runs = [run_times(spans) for spans in timed.runs if spans[0].name == "probe"]
    out = dict(counts)
    for key in sorted({k for run in cli_runs for k in run}):
        out[key] = statistics.median(run.get(key, 0.0) for run in cli_runs)
    if probe_runs:
        out["payoff.payoff_s"] = statistics.median(run["payoff.payoff_s"] for run in probe_runs)
    for spans in alloc.runs:
        for key, value in run_times(spans).items():
            if key.endswith("_alloc_mb"):
                out[key] = value
    out["trace.total_s"] = out.pop("total_s")
    out["trace.overhead_s"] = out["trace.total_s"] - untraced_s
    out["scenario.from_dict_ns_per_coefficient"] = _ns_per(out, "scenario.from_dict_s", "scenario.coefficients")
    out["payoff.ns_per_term"] = _ns_per(out, "payoff.payoff_s", "payoff.terms")
    out["tensor.from_dict_ns_per_entry"] = _ns_per(out, "tensor.from_dict_s", "tensor.entries")
    return out


def _ns_per(metrics: dict[str, float], seconds: str, count: str) -> float:
    n = metrics.get(count, 0)
    return metrics.get(seconds, 0.0) * 1e9 / n if n else 0.0
