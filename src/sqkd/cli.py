"""Command-line front end: rate evaluation, thresholds, curves, verification.

Four subcommands:

* ``rate`` evaluates the key-rate bound at one error rate,
* ``threshold`` finds the maximal tolerable error rate for a model,
* ``curve`` exports the full report grid over an error range,
* ``verify`` runs the randomized numerical verification suites.

Each command produces a table, a header of column names plus one tuple per
row, rendered as CSV (reals at 12 significant digits) or JSON (full
precision; one row is an object, several a list) on stdout or to
``--output``. With a fixed seed every command is byte-deterministic. Exit
codes: 0 success, 1 failed check or runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from typing import Sequence

from .keyrate import KeyRateReport, QxModel, key_rate, keyrate_curve, noise_threshold
from .verification import DEFAULT_D_E, VerifyReport, run_all_checks

__all__ = ["main", "build_parser"]

_MODEL_HELP = "channel model: equal, depolarizing, half, or explicit:<value>"


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--output", default=None, metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkd",
        description="Key-rate bounds and attack-reduction verification for semi-quantum key distribution.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rate = commands.add_parser("rate", help="evaluate the key-rate bound at one error rate")
    rate.add_argument("--q", type=float, required=True, help="Z error rate in [0, 0.5]")
    rate.add_argument("--qx-model", required=True, metavar="MODEL", help=_MODEL_HELP)
    _add_output_flags(rate)

    threshold = commands.add_parser("threshold", help="find the maximal tolerable error rate")
    threshold.add_argument("--qx-model", required=True, metavar="MODEL", help=_MODEL_HELP)
    threshold.add_argument("--tol", type=float, default=1e-6, help="bisection precision (default 1e-6)")
    _add_output_flags(threshold)

    curve = commands.add_parser("curve", help="export key-rate reports over an error-rate grid")
    curve.add_argument("--q-min", type=float, default=0.0, help="grid start (default 0)")
    curve.add_argument("--q-max", type=float, default=0.5, help="grid end (default 0.5)")
    curve.add_argument("--steps", type=int, default=51, help="number of grid points (default 51)")
    curve.add_argument("--qx-model", required=True, metavar="MODEL", help=_MODEL_HELP)
    _add_output_flags(curve)

    verify = commands.add_parser("verify", help="run the randomized verification suites")
    verify.add_argument(
        "--trials",
        type=int,
        default=100,
        help="attacks per equivalence suite and per grid point of the entropy suites (default 100)",
    )
    verify.add_argument("--seed", type=int, required=True, help="nonnegative integer RNG seed")
    verify.add_argument(
        "--d-e",
        default=",".join(str(d) for d in DEFAULT_D_E),
        metavar="LIST",
        help="comma-separated ancilla dimensions to cycle through (default 2,3,4)",
    )
    _add_output_flags(verify)
    return parser


# main's parser: built on main's first call, not at import, and reused by every later call
_parser = functools.cache(build_parser)


def _cell(value) -> str:
    if type(value) is float or not isinstance(value, (str, int)):  # floats first: most cells
        return f"{value:.12g}"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _render(columns: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """CSV under the header ``columns``, or JSON: an object for one row, else a list."""
    if fmt == "json":
        dicts = [dict(zip(columns, row)) for row in rows]
        return json.dumps(dicts[0] if len(dicts) == 1 else dicts, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # rows that share one tuple of cell types are one % operation (%.12g is _cell's float
    # rule); csv.writer writes any other table, one of a single column (csv quotes a lone
    # empty cell) and one whose text csv would quote
    width = len(columns)
    cells = tuple(itertools.chain.from_iterable(rows))
    kinds = set(zip(*[map(type, cells)] * width)) if set(map(len, rows)) == {width} else set()
    specs = {float: "%.12g", int: "%d", str: "%s"}
    parts = [specs.get(kind) for kind in kinds.pop()] if len(kinds) == 1 and width > 1 else [None]
    text = "" if None in parts else ((",".join(parts) + "\n") * len(rows)) % cells
    # a comma or line break inside a cell raises the count above the number of cells
    if text and text.count(",") + text.count("\n") == len(cells) and '"' not in text and "\r" not in text:
        buf.write(text)
    else:
        writer.writerows([_cell(value) for value in row] for row in rows)
    return buf.getvalue()


def _parse_d_e(text: str) -> tuple[int, ...]:
    # the suites check the values themselves
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse ancilla dimension list {text!r}") from None


def _rows(args: argparse.Namespace) -> tuple[Sequence[str], list[tuple], bool]:
    """The command's column names, its output rows and whether all checks passed."""
    if args.command == "verify":
        reports = run_all_checks(args.trials, args.seed, _parse_d_e(args.d_e))
        return VerifyReport._fields, reports, all(r.passed for r in reports)
    model = QxModel.parse(args.qx_model)
    if args.command == "threshold":
        value = noise_threshold(model, tol=args.tol)
        return ("model", "threshold", "threshold_percent"), [(str(model), value, 100.0 * value)], True
    if args.command == "rate":
        return KeyRateReport.COLUMNS, [key_rate(args.q, model)], True
    return KeyRateReport.COLUMNS, keyrate_curve(args.q_min, args.q_max, args.steps, model), True


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        columns, rows, ok = _rows(args)
        _emit(_render(columns, rows, args.format), args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1
