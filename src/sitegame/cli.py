"""Command-line front end.

Subcommands:
  validate <file>          check a scenario document, list violations
  tensor <file>            build the payoff tensor from a scenario
  solve <file>             solve a tensor or scenario document
  fixtures emit <dir>      write the bundled example files

Exit codes: 0 success, 1 domain error (invalid scenario, singular payoff),
2 unreadable or unparseable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .feasibility import check_scenario, profile_spacing
from .fixtures import write_fixtures
from .payoff import ZeroDistanceError, payoff
from .report import solve
from .scenario import Scenario, ScenarioFormatError, load_scenario, scenario_from_dict, validate
from .solvers import DEFAULT_TOLERANCE
from .tensor import (
    TensorFormatError,
    build_tensor,
    dumps_tensor,
    iterate_profiles,
    tensor_from_dict,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# read_text raises UnicodeDecodeError, not OSError, on bytes that are not UTF-8.
_READ_ERRORS = (OSError, UnicodeDecodeError)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_valid_scenario(path: str) -> Scenario | int:
    """Load and validate a scenario; on failure return an exit code instead."""
    try:
        scenario = load_scenario(path)
    except _READ_ERRORS as exc:
        return _fail(f"cannot read {path}: {exc}", EXIT_INPUT)
    except ScenarioFormatError as exc:
        return _fail(str(exc), EXIT_INPUT)
    violations = validate(scenario)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return EXIT_DOMAIN
    return scenario


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.file)
    except _READ_ERRORS as exc:
        return _fail(f"cannot read {args.file}: {exc}", EXIT_INPUT)
    except ScenarioFormatError as exc:
        return _fail(str(exc), EXIT_INPUT)
    violations = validate(scenario)
    if violations:
        for violation in violations:
            print(violation)
        return EXIT_DOMAIN
    sites = sum(len(player.sites) for player in scenario.players)
    print(
        f"valid: {scenario.n_players} players, {scenario.n_objects} objects, "
        f"{sites} candidate sites"
    )
    return EXIT_OK


def _cmd_tensor(args: argparse.Namespace) -> int:
    scenario = _load_valid_scenario(args.file)
    if isinstance(scenario, int):
        return scenario
    try:
        tensor = build_tensor(scenario)
    except ZeroDistanceError as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    text = dumps_tensor(tensor)
    if args.explain:
        breakdowns = [
            [payoff(p, site.position, scenario, site_index=k) for k, site in enumerate(player.sites)]
            for p, player in enumerate(scenario.players)
        ]
        explain = [
            {
                "indices": list(profile),
                "labels": list(tensor.labels_for(profile)),
                "players": [
                    {
                        "player": tensor.players[p],
                        "site": tensor.strategy_labels[p][profile[p]],
                        "income": list(breakdowns[p][profile[p]].income),
                        "damage": list(breakdowns[p][profile[p]].damage),
                        "total": breakdowns[p][profile[p]].total,
                    }
                    for p in range(tensor.n_players)
                ],
            }
            for profile in iterate_profiles(tensor.shape)
        ]
        # Append "explain" as the document's last member: drop the closing
        # "\n}\n" and nest the list's own encoding one level deeper.
        nested = json.dumps(explain, indent=2).replace("\n", "\n  ")
        text = f'{text[:-3]},\n  "explain": {nested}\n}}\n'
    sys.stdout.write(text)
    return EXIT_OK


def _sniff_document(doc: object) -> str:
    if isinstance(doc, dict):
        if "payoffs" in doc:
            return "tensor"
        if "region" in doc or "players" in doc:
            return "scenario"
    return "unknown"


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except _READ_ERRORS as exc:
        return _fail(f"cannot read {args.file}: {exc}", EXIT_INPUT)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail(
            f"{args.file}: line {exc.lineno}, column {exc.colno}: {exc.msg}", EXIT_INPUT
        )
    except ValueError as exc:  # an integer literal longer than int's digit limit
        return _fail(f"{args.file}: {exc}", EXIT_INPUT)

    kind = _sniff_document(doc)
    feasibility = None
    pairwise = None
    if kind == "tensor":
        try:
            tensor = tensor_from_dict(doc)
        except TensorFormatError as exc:
            return _fail(str(exc), EXIT_INPUT)
    elif kind == "scenario":
        try:
            scenario = scenario_from_dict(doc)
        except ScenarioFormatError as exc:
            return _fail(str(exc), EXIT_INPUT)
        violations = validate(scenario)
        if violations:
            for violation in violations:
                print(violation, file=sys.stderr)
            return EXIT_DOMAIN
        try:
            tensor = build_tensor(scenario)
        except ZeroDistanceError as exc:
            return _fail(str(exc), EXIT_DOMAIN)
        except ValueError as exc:
            return _fail(str(exc), EXIT_DOMAIN)
        feasibility = tuple(check_scenario(scenario))
        if args.pairwise_band:
            pairwise = profile_spacing(scenario)
    else:
        return _fail(f"{args.file}: not a scenario or tensor document", EXIT_INPUT)

    run_nash = args.nash or not (args.nash or args.compromise)
    run_compromise = args.compromise or not (args.nash or args.compromise)
    report = solve(
        tensor,
        nash=run_nash,
        compromise=run_compromise,
        tolerance=args.tolerance,
        feasibility=feasibility,
        pairwise_spacing=pairwise,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    paths = write_fixtures(args.directory)
    for path in paths:
        print(path)
    return EXIT_OK


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("tolerance must be a finite number >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitegame",
        description="Facility-siting game solver: payoffs, pure Nash equilibria, compromise set.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario document")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=_cmd_validate)

    p_tensor = sub.add_parser("tensor", help="build a payoff tensor from a scenario")
    p_tensor.add_argument("file")
    p_tensor.add_argument(
        "--explain", action="store_true", help="include per-profile income/damage breakdowns"
    )
    p_tensor.set_defaults(func=_cmd_tensor)

    p_solve = sub.add_parser("solve", help="solve a tensor or scenario document")
    p_solve.add_argument("file")
    p_solve.add_argument("--nash", action="store_true", help="report pure Nash equilibria")
    p_solve.add_argument("--compromise", action="store_true", help="report the compromise set")
    p_solve.add_argument(
        "--tolerance", type=_nonnegative_float, default=DEFAULT_TOLERANCE,
        help=f"tie tolerance for both solvers (default {DEFAULT_TOLERANCE})",
    )
    p_solve.add_argument("--format", choices=["text", "json"], default="text")
    p_solve.add_argument(
        "--pairwise-band", action="store_true",
        help="also check the distance band between distinct players' chosen sites",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_fixtures = sub.add_parser("fixtures", help="bundled example files")
    fixtures_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_emit = fixtures_sub.add_parser("emit", help="write the example scenario and tensor")
    p_emit.add_argument("directory")
    p_emit.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
