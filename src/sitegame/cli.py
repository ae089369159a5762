"""Command-line front end.

Subcommands:
  validate <file>          check a scenario document, list violations
  tensor <file>            build the payoff tensor from a scenario
  solve <file>             solve a tensor or scenario document
  fixtures emit <dir>      write the bundled example files

Exit codes: 0 success, 1 domain error (invalid scenario, a game the library
refuses), 2 unreadable or unparseable input, or output that cannot be
written. ``main`` alone maps an exception to a code, by its type: a
SystemExit, raised once a command has reported why, to its own code; a
FormatError or an OSError to 2; any other ValueError or ArithmeticError to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import itertools
import os
import sys
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

# Each command imports the modules it runs: `--version`, `--help` and a usage
# error load no document reader, and no command loads numpy before it has
# parsed its document. `validate` loads `document` and `scenario`, neither of
# which imports numpy; `solve` on a tensor document loads no `scenario`.
from . import DEFAULT_TOLERANCE, FormatError, __version__, _checked_tolerance

if TYPE_CHECKING:
    from .scenario import Scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _write(pieces: Iterable[str]) -> None:
    """Write each of ``pieces`` to stdout as it is rendered, and flush it.
    Output that cannot be written, or spelled in the stream's encoding, raises
    OSError; a broken pipe ends the command with exit 2 and no message."""
    out = sys.stdout
    try:
        if out is None or getattr(out, "closed", False):  # closed at start, or by the caller
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        for piece in pieces:
            out.write(piece)
            # A document renders its next piece only once this one is freed.
            del piece
        out.flush()
    except (OSError, UnicodeEncodeError) as exc:
        # Python flushes stdout again at exit; what is left goes to devnull.
        # A stream without a file descriptor raises io.UnsupportedOperation,
        # a ValueError.
        with contextlib.suppress(AttributeError, ValueError):
            fd = out.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(EXIT_INPUT)
        raise OSError(f"cannot write to stdout: {exc}")


def _write_stderr(text: str) -> None:
    """Write ``text`` to stderr and flush it; a stderr that cannot be written,
    or cannot spell ``text`` in its encoding, must not change the exit code."""
    err = sys.stderr
    if err is None:  # the process started with stderr closed
        return
    with contextlib.suppress(OSError, UnicodeEncodeError):
        err.write(text)
        err.flush()


def _read_document(path: str) -> object:
    """The parsed JSON document at ``path``."""
    from .document import read_json

    try:
        return read_json(path, FormatError)  # of either kind, until it parses
    except (OSError, UnicodeDecodeError) as exc:  # read_text's error for non-UTF-8 bytes
        raise OSError(f"cannot read {path}: {exc}")


def _valid_scenario(doc: object, report: Callable[[str], object]) -> Scenario:
    """The valid Scenario of a parsed document; its violations, if any, go to
    ``report`` one per line before exit 1."""
    from .scenario import scenario_from_dict, validate

    scenario = scenario_from_dict(doc)
    violations = validate(scenario)
    if violations:
        report("".join(f"{violation}\n" for violation in violations))
        raise SystemExit(EXIT_DOMAIN)
    return scenario


def _cmd_validate(args: argparse.Namespace) -> None:
    scenario = _valid_scenario(_read_document(args.file), lambda text: _write([text]))
    sites = sum(len(player.sites) for player in scenario.players)
    counts = f"{scenario.n_players} players, {scenario.n_objects} objects, {sites} candidate sites"
    _write([f"valid: {counts}\n"])


def _cmd_tensor(args: argparse.Namespace) -> None:
    scenario = _valid_scenario(_read_document(args.file), _write_stderr)
    from .tensor import build_tensor, tensor_document

    kernels = []  # with --explain, the kernels that build the tensor spell its breakdowns
    tensor = build_tensor(scenario, kernels.append if args.explain else None)
    document = tensor_document(tensor, kernels if args.explain else None)
    del kernels  # spelled, so freed before the first piece is written
    _write(itertools.chain(document, "\n"))


def _cmd_solve(args: argparse.Namespace) -> None:
    doc = _read_document(args.file)
    from .report import solve
    from .tensor import build_tensor, tensor_from_dict

    scenario = None
    if isinstance(doc, dict) and ("payoffs" in doc or "shape" in doc):
        tensor = tensor_from_dict(doc)
    elif isinstance(doc, dict) and ("region" in doc or "players" in doc):
        scenario = _valid_scenario(doc, _write_stderr)
    else:
        raise FormatError(f"{args.file}: not a scenario or tensor document")
    del doc  # free the document tree before the tensor is built and solved

    feasibility = None
    pairwise = None
    if scenario is not None:
        from .feasibility import check_scenario, spacing_codes

        kernels = []  # the payoff kernel's distances serve the site checks too
        tensor = build_tensor(scenario, kernels.append)
        feasibility = tuple(check_scenario(scenario, [terms.rho for terms in kernels]))
        del kernels  # read, so freed before the game is solved
        if args.pairwise_band:
            pairwise = spacing_codes(scenario)
    del scenario  # read by the checks and the pairwise codes, so freed too

    both = not (args.nash or args.compromise)
    report = solve(
        tensor,
        nash=args.nash or both,
        compromise=args.compromise or both,
        tolerance=args.tolerance,
        feasibility=feasibility,
        pairwise_spacing=pairwise,
    )
    pieces = report.json_pieces() if args.format == "json" else report.text_pieces()
    _write(itertools.chain(pieces, "\n"))


def _cmd_fixtures(args: argparse.Namespace) -> None:
    from .fixtures import write_fixtures

    try:
        paths = write_fixtures(args.directory)
    except OSError as exc:
        raise OSError(f"cannot write {args.directory}: {exc}")
    _write(f"{path}\n" for path in paths)


def _tolerance(text: str) -> float:
    with contextlib.suppress(ValueError):
        return _checked_tolerance(float(text))
    raise argparse.ArgumentTypeError("tolerance must be a finite number >= 0")


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
        "--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
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
    except SystemExit as exc:  # the command has reported why, if there is anything to say
        return exc.code
    except (FormatError, OSError) as exc:  # unreadable or unparseable input, unwritable output
        _write_stderr(f"error: {exc}\n")
        return EXIT_INPUT
    except (ArithmeticError, ValueError) as exc:  # the library refuses the game: exit 1
        _write_stderr(f"error: {exc}\n")
        return EXIT_DOMAIN
    return EXIT_OK


def run() -> int:
    """The process entry point of `sitegame` and `python -m sitegame`:
    ``main`` with the cyclic garbage collector off.

    The objects that start-up and the imports create (some 21,000 with
    numpy) live until the process exits, so each collection would walk them
    again to free little. The interpreter's final collection ignores
    ``gc.disable()`` but skips frozen objects. ``main`` leaves the collector
    alone for in-process callers.
    """
    gc.disable()
    try:
        return main()
    finally:
        # Also when argparse leaves by SystemExit (--version, --help, usage).
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
