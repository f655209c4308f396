"""Command-line front-end.

Three verbs::

    bellbox analyze <file>            analyze an experiment file
    bellbox model <name> [options]    build and verify a named construction
    bellbox export <name> <file>      write a built-in dataset as a file

Shared flags (valid on every verb): ``--format text|machine`` and
``--normalize-tol``.  Exit status: ``analyze`` returns 0 for any
completed analysis whatever the verdicts; ``model`` additionally returns
1 when the construction fails verification; unreadable or invalid files
give 1, usage errors 2 (among them a phase that is not finite and a
tolerance that is not a finite number >= 0).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .expfile import ExperimentFileError, read_experiment, write_experiment
from .hilbert import ISOMORPHISMS
from .models import REGISTRY, get_fixture, get_model
from .report import Report, build_report, render_machine, render_text
from .tables import DEFAULT_NORM_TOL, TableError


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _add_shared_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies suppress their defaults so an unset option never
    # clobbers a value parsed at the top level
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text" if top_level else argparse.SUPPRESS,
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--normalize-tol",
        type=_tolerance,
        default=DEFAULT_NORM_TOL if top_level else argparse.SUPPRESS,
        metavar="R",
        help="accepted |sum - 1| before rescaling probabilities "
        f"(default: {DEFAULT_NORM_TOL})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbox",
        description="Analyze 2x2 bipartite coincidence experiments and the "
        "built-in Hilbert-space constructions.",
    )
    _add_shared_flags(parser, top_level=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_shared_flags(common, top_level=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="analyze an experiment file"
    )
    p_analyze.add_argument("file", help="experiment file (JSON)")

    p_model = sub.add_parser(
        "model", parents=[common], help="build and verify a named construction"
    )
    p_model.add_argument("name", choices=tuple(REGISTRY))
    p_model.add_argument("--alpha", type=_finite, default=0.0, help="first phase (rad)")
    p_model.add_argument("--beta", type=_finite, default=0.0, help="second phase (rad)")
    p_model.add_argument(
        "--iso",
        choices=tuple(ISOMORPHISMS),
        default="canonical",
        help="tensor-product identification used for entanglement flags",
    )
    p_model.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="verification tolerance (default: the model's own)",
    )

    p_export = sub.add_parser(
        "export", parents=[common], help="write a built-in dataset to a file"
    )
    p_export.add_argument(
        "name", choices=tuple(n for n, (data, _) in REGISTRY.items() if data is not None)
    )
    p_export.add_argument("file", help="destination path")

    return parser


def _emit(report: Report, fmt: str) -> None:
    if fmt == "machine":
        sys.stdout.write(render_machine(report))
    else:
        sys.stdout.write(render_text(report))


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        experiment, _metadata = read_experiment(args.file, args.normalize_tol)
    except ExperimentFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(build_report(experiment), args.format)
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    if REGISTRY[args.name][1] is None:
        # a dataset without a construction gets the data-only report
        _emit(build_report(get_fixture(args.name).experiment), args.format)
        return 0
    model = get_model(args.name, args.alpha, args.beta)
    data = get_fixture(model.fixture_name).experiment
    verdict = model.verify(data, tol=args.tol, iso=ISOMORPHISMS[args.iso])
    _emit(build_report(data, model=(model, verdict)), args.format)
    return 0 if verdict.passed else 1


def cmd_export(args: argparse.Namespace) -> int:
    fixture = get_fixture(args.name)
    try:
        write_experiment(args.file, fixture.experiment, metadata={"source": args.name})
    except OSError as exc:
        print(f"error: cannot write {args.file}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "model":
            return cmd_model(args)
        return cmd_export(args)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
