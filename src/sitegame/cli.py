"""Command-line front end.

Subcommands:
  validate <file>          check a scenario document, list violations
  tensor <file>            build the payoff tensor from a scenario
  solve <file>             solve a tensor or scenario document
  fixtures emit <dir>      write the bundled example files

Exit codes: 0 success, 1 domain error (invalid scenario, singular payoff),
2 unreadable or unparseable input, or output that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from collections.abc import Callable, Iterable

# Each command imports the modules it runs: `validate` needs only `scenario`,
# which does not import numpy.
from . import DEFAULT_TOLERANCE, __version__
from .scenario import Scenario, ScenarioFormatError, read_json, scenario_from_dict, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


class _Exit(Exception):
    """Ends a command with exit ``code``; ``main`` writes ``message``, if any,
    as one ``error:`` line on stderr."""

    def __init__(self, code: int, message: str | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _write(pieces: Iterable[str]) -> None:
    """Write each of ``pieces`` to stdout as it is rendered, and flush it.
    Output that cannot be written exits 2, without a message for a broken
    pipe."""
    out = sys.stdout
    try:
        for piece in pieces:
            out.write(piece)
            # A document renders its next piece only once this one is freed.
            del piece
        out.flush()
    except OSError as exc:
        # Python flushes stdout again at exit; what is left goes to devnull.
        # A stream without a file descriptor raises io.UnsupportedOperation,
        # a ValueError.
        with contextlib.suppress(AttributeError, ValueError):
            fd = out.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        message = None if isinstance(exc, BrokenPipeError) else f"cannot write to stdout: {exc}"
        raise _Exit(EXIT_INPUT, message)


def _write_stderr(text: str) -> None:
    """Write ``text`` to stderr and flush it; a stderr that cannot be written
    must not change the exit code."""
    with contextlib.suppress(OSError):
        sys.stderr.write(text)
        sys.stderr.flush()


def _read_document(path: str) -> object:
    """The parsed JSON document at ``path``."""
    try:
        return read_json(path)
    except (OSError, UnicodeDecodeError) as exc:  # read_text's error for non-UTF-8 bytes
        raise _Exit(EXIT_INPUT, f"cannot read {path}: {exc}")
    except ScenarioFormatError as exc:
        raise _Exit(EXIT_INPUT, str(exc))


def _valid_scenario(doc: object, report: Callable[[str], object]) -> Scenario:
    """The valid Scenario of a parsed document; its violations, if any, go to
    ``report`` one per line before exit 1."""
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioFormatError as exc:
        raise _Exit(EXIT_INPUT, str(exc))
    violations = validate(scenario)
    if violations:
        report("".join(f"{violation}\n" for violation in violations))
        raise _Exit(EXIT_DOMAIN)
    return scenario


def _build_tensor(scenario: Scenario):
    from .payoff import ZeroDistanceError
    from .tensor import build_tensor

    try:
        return build_tensor(scenario)
    except (ZeroDistanceError, ValueError) as exc:
        raise _Exit(EXIT_DOMAIN, str(exc))


def _cmd_validate(args: argparse.Namespace) -> None:
    scenario = _valid_scenario(_read_document(args.file), lambda text: _write([text]))
    sites = sum(len(player.sites) for player in scenario.players)
    counts = f"{scenario.n_players} players, {scenario.n_objects} objects, {sites} candidate sites"
    _write([f"valid: {counts}\n"])


def _cmd_tensor(args: argparse.Namespace) -> None:
    from .tensor import tensor_document

    scenario = _valid_scenario(_read_document(args.file), _write_stderr)
    _write(tensor_document(_build_tensor(scenario), scenario if args.explain else None))


def _cmd_solve(args: argparse.Namespace) -> None:
    import numpy as np

    from .feasibility import check_scenario, profile_spacing
    from .report import solve
    from .tensor import TensorFormatError, tensor_from_dict

    doc = _read_document(args.file)
    scenario = None
    if isinstance(doc, dict) and "payoffs" in doc:
        try:
            tensor = tensor_from_dict(doc)
        except TensorFormatError as exc:
            raise _Exit(EXIT_INPUT, str(exc))
    elif isinstance(doc, dict) and ("region" in doc or "players" in doc):
        scenario = _valid_scenario(doc, _write_stderr)
    else:
        raise _Exit(EXIT_INPUT, f"{args.file}: not a scenario or tensor document")
    del doc  # free the document tree before the tensor is built and solved

    feasibility = None
    pairwise = None
    if scenario is not None:
        tensor = _build_tensor(scenario)
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
            raise _Exit(
                EXIT_DOMAIN,
                f"compromise residual overflows to inf at profile {list(profile)} "
                f"(labels {list(tensor.labels_for(profile))!r}): payoffs too far apart for a float",
            )
    pieces = report.json_pieces() if args.format == "json" else report.text_pieces()
    _write(itertools.chain(pieces, "\n"))


def _cmd_fixtures(args: argparse.Namespace) -> None:
    from .fixtures import write_fixtures

    try:
        paths = write_fixtures(args.directory)
    except OSError as exc:
        raise _Exit(EXIT_INPUT, f"cannot write {args.directory}: {exc}")
    _write(f"{path}\n" for path in paths)


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
    try:
        args.func(args)
    except _Exit as exc:
        if exc.message is not None:
            _write_stderr(f"error: {exc.message}\n")
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
