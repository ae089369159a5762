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
import math
import os
import sys
from typing import TextIO

# Each command imports the modules it runs: `validate` needs only `scenario`,
# which does not import numpy.
from . import DEFAULT_TOLERANCE, __version__
from .scenario import Scenario, ScenarioFormatError, read_json, scenario_from_dict, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# read_text raises UnicodeDecodeError, not OSError, on bytes that are not UTF-8.
_READ_ERRORS = (OSError, UnicodeDecodeError)

# Characters per write to stdout: the text layer encodes one slice at a time
# instead of a second copy of the whole document.
WRITE_SLICE = 1 << 20


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(text: str, end: str = "") -> None:
    """Write ``text`` and then ``end`` to stdout, ``WRITE_SLICE`` characters
    at a time."""
    out = sys.stdout
    for start in range(0, len(text), WRITE_SLICE):
        out.write(text[start : start + WRITE_SLICE])
    out.write(end)


def _read_document(path: str) -> tuple[object, int]:
    """The JSON document at ``path`` and EXIT_OK; on failure, reports it as an
    ``error:`` line on stderr and returns None and the exit code."""
    try:
        return read_json(path), EXIT_OK
    except _READ_ERRORS as exc:
        return None, _fail(f"cannot read {path}: {exc}", EXIT_INPUT)
    except ScenarioFormatError as exc:
        return None, _fail(str(exc), EXIT_INPUT)


def _valid_scenario(doc: object, violations_to: TextIO) -> Scenario | int:
    """The valid Scenario of a parsed document; on failure, reports it (each
    violation to ``violations_to``, a format error on stderr) and returns the
    exit code."""
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioFormatError as exc:
        return _fail(str(exc), EXIT_INPUT)
    violations = validate(scenario)
    if violations:
        for violation in violations:
            print(violation, file=violations_to)
        return EXIT_DOMAIN
    return scenario


def _load(path: str, violations_to: TextIO) -> Scenario | int:
    """Read, parse and check a scenario document: the valid Scenario, or the
    exit code once the failure is reported."""
    doc, code = _read_document(path)
    return code if code else _valid_scenario(doc, violations_to)


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.file, sys.stdout)
    if isinstance(scenario, int):
        return scenario
    sites = sum(len(player.sites) for player in scenario.players)
    print(
        f"valid: {scenario.n_players} players, {scenario.n_objects} objects, "
        f"{sites} candidate sites"
    )
    return EXIT_OK


def _cmd_tensor(args: argparse.Namespace) -> int:
    from .payoff import ZeroDistanceError
    from .tensor import build_tensor, dumps_tensor

    scenario = _load(args.file, sys.stderr)
    if isinstance(scenario, int):
        return scenario
    try:
        tensor = build_tensor(scenario)
    except (ZeroDistanceError, ValueError) as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    _write(dumps_tensor(tensor, scenario if args.explain else None))
    return EXIT_OK


def _sniff_document(doc: object) -> str:
    if isinstance(doc, dict):
        if "payoffs" in doc:
            return "tensor"
        if "region" in doc or "players" in doc:
            return "scenario"
    return "unknown"


def _cmd_solve(args: argparse.Namespace) -> int:
    import numpy as np

    from .feasibility import check_scenario, profile_spacing
    from .payoff import ZeroDistanceError
    from .report import solve
    from .tensor import TensorFormatError, build_tensor, tensor_from_dict

    doc, code = _read_document(args.file)
    if code:
        return code
    kind = _sniff_document(doc)
    scenario = None
    if kind == "tensor":
        try:
            tensor = tensor_from_dict(doc)
        except TensorFormatError as exc:
            return _fail(str(exc), EXIT_INPUT)
    elif kind == "scenario":
        scenario = _valid_scenario(doc, sys.stderr)
        if isinstance(scenario, int):
            return scenario
    else:
        return _fail(f"{args.file}: not a scenario or tensor document", EXIT_INPUT)
    del doc  # free the document tree before the tensor is built and solved

    feasibility = None
    pairwise = None
    if scenario is not None:
        try:
            tensor = build_tensor(scenario)
        except (ZeroDistanceError, ValueError) as exc:
            return _fail(str(exc), EXIT_DOMAIN)
        feasibility = tuple(check_scenario(scenario))
        if args.pairwise_band:
            pairwise = profile_spacing(scenario)

    run_nash = args.nash or not (args.nash or args.compromise)
    run_compromise = args.compromise or not (args.nash or args.compromise)
    # Payoffs further apart than the largest float overflow a residual to
    # inf; that is reported below, so numpy's warning would only repeat it.
    with np.errstate(over="ignore"):
        report = solve(
            tensor,
            nash=run_nash,
            compromise=run_compromise,
            tolerance=args.tolerance,
            feasibility=feasibility,
            pairwise_spacing=pairwise,
        )
    if report.compromise is not None:
        shortfall = report.compromise.shortfall
        if not math.isfinite(shortfall.max()):
            profile = tuple(np.argwhere(~np.isfinite(shortfall))[0].tolist())
            return _fail(
                f"compromise residual overflows to inf at profile {list(profile)} "
                f"(labels {list(tensor.labels_for(profile))!r}): payoffs too far apart for a float",
                EXIT_DOMAIN,
            )
    _write(report.to_json() if args.format == "json" else report.to_text(), end="\n")
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import write_fixtures

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
    # sitegame makes no BLAS call, yet numpy's bundled OpenBLAS starts worker
    # threads at import that busy-wait, costing CPU time but no wall time.
    # Commands import numpy only after this line; importing the package or
    # this module does not. A value the caller set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
