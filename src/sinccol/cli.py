"""Command line front end: eigenvalue tables, wavefunction samples, convergence runs.

Output is deterministic: 8 significant digits, '.' decimal separator,
'\\n' line endings.  Exit status is 0 on success, 2 on usage errors and
1 on computation errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .coulomb import (
    DEFAULT_BETA,
    DEFAULT_D,
    DEFAULT_M,
    LEVEL_SHIFT,
    eigen_table,
    evaluate_radial,
    solve_states,
)
from .dense_eig import EigenSolveError

__all__ = ["main"]

USAGE_ERROR = 2
COMPUTE_ERROR = 1


def _fmt(v: float) -> str:
    return f"{v:#.8g}"


def _emit(header: list[str], rows: list[list[str]], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
    else:
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
                  for i in range(len(header))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinccol",
        description="Sinc collocation solver for the logarithmic Coulomb spectrum on (0, inf).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=float, default=DEFAULT_D,
                       help="strip half-width (default pi/4)")
        p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                       help="decay exponent in [0.5, 1] (default 1)")
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        p.add_argument("--output", default=None, help="output file (default stdout)")

    p_eig = sub.add_parser("eigen", help="emit an eigenvalue grid over (n, l)")
    p_eig.add_argument("--l", default="0", help="angular momentum, int or comma list")
    p_eig.add_argument("--count", type=int, default=5, help="number of levels per l")
    p_eig.add_argument("--M", type=int, default=DEFAULT_M)
    p_eig.add_argument("--lambda-prime", action="store_true", dest="lambda_prime",
                       help="also emit the shifted eigenvalue column")
    common(p_eig)

    p_wf = sub.add_parser("wavefunction", help="emit (x, R) samples of a normalized state")
    p_wf.add_argument("--l", type=int, default=0)
    p_wf.add_argument("--n", type=int, default=0, help="radial index, 0 = ground state")
    p_wf.add_argument("--M", type=int, default=DEFAULT_M)
    p_wf.add_argument("--x-min", type=float, default=0.05, dest="x_min")
    p_wf.add_argument("--x-max", type=float, default=10.0, dest="x_max")
    p_wf.add_argument("--samples", type=int, default=200,
                      help="log-spaced sample count over [x-min, x-max]")
    common(p_wf)

    p_cv = sub.add_parser("converge", help="track one eigenvalue over a list of M")
    p_cv.add_argument("--l", type=int, default=0)
    p_cv.add_argument("--n", type=int, default=0)
    p_cv.add_argument("--M", default="", help="comma list of M values, strictly increasing")
    common(p_cv)
    return parser


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """Check ``args`` in place, turning the comma lists of ``eigen --l`` and
    ``converge --M`` into lists of integers; usage errors exit through
    ``parser.error``."""
    if not 0 < args.d <= math.pi / 2:
        parser.error(f"--d must lie in (0, pi/2], got {args.d}")
    if not 0.5 <= args.beta <= 1.0:
        parser.error(f"--beta must lie in [0.5, 1], got {args.beta}")

    if args.command == "eigen":
        try:
            args.l = _int_list(args.l)
        except ValueError:
            parser.error(f"--l must be an integer or comma list, got {args.l!r}")
        if not args.l or any(l < 0 for l in args.l):
            parser.error("--l values must be nonnegative integers")
        if args.count < 1:
            parser.error("--count must be >= 1")
        if args.M < 1:
            parser.error("--M must be >= 1")
    elif args.command == "wavefunction":
        if args.l < 0 or args.n < 0:
            parser.error("--l and --n must be nonnegative")
        if args.M < 1:
            parser.error("--M must be >= 1")
        if not 0 < args.x_min < args.x_max < math.inf:
            parser.error("require 0 < x-min < x-max < inf")
        if args.samples < 1:
            parser.error("--samples must be >= 1")
    else:
        if args.l < 0 or args.n < 0:
            parser.error("--l and --n must be nonnegative")
        try:
            args.M = _int_list(args.M)
        except ValueError:
            parser.error(f"--M must be a comma list of integers, got {args.M!r}")
        if len(args.M) < 2:
            parser.error("--M needs at least two values for a convergence run")
        if any(b <= a for a, b in zip(args.M, args.M[1:])) or args.M[0] < 1:
            parser.error("--M values must be strictly increasing positive integers")
    return args


def _cmd_eigen(args: argparse.Namespace) -> None:
    table = eigen_table(args.l, args.count, beta=args.beta, d=args.d, M=args.M)
    header = ["n", "l", "lambda"] + (["lambda_prime"] if args.lambda_prime else [])
    rows = []
    for j, l in enumerate(args.l):
        for n in range(args.count):
            lam = table[n, j]
            row = [str(n), str(l), _fmt(lam)]
            if args.lambda_prime:
                row.append(_fmt(lam + LEVEL_SHIFT))
            rows.append(row)
    _emit(header, rows, args.format, args.output)


def _cmd_wavefunction(args: argparse.Namespace) -> None:
    states = solve_states(args.l, args.n + 1, beta=args.beta, d=args.d, M=args.M)
    state = states[args.n]
    xs = np.geomspace(args.x_min, args.x_max, args.samples)
    values = np.atleast_1d(evaluate_radial(state, xs))
    rows = [[_fmt(x), _fmt(r)] for x, r in zip(xs, values)]
    _emit(["x", "R"], rows, args.format, args.output)


def _cmd_converge(args: argparse.Namespace) -> None:
    rows = []
    previous = None
    for M in args.M:
        lam = eigen_table([args.l], args.n + 1, beta=args.beta, d=args.d, M=M)[args.n, 0]
        delta = "" if previous is None else _fmt(abs(lam - previous))
        rows.append([str(M), _fmt(lam), delta])
        previous = lam
    _emit(["M", "lambda", "delta"], rows, args.format, args.output)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = _validate_args(parser, parser.parse_args(argv))
    try:
        if args.command == "eigen":
            _cmd_eigen(args)
        elif args.command == "wavefunction":
            _cmd_wavefunction(args)
        else:
            _cmd_converge(args)
    except (EigenSolveError, ValueError, ArithmeticError) as exc:
        print(f"sinccol: error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
