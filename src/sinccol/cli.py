"""Command line front end: eigenvalue tables, wavefunction samples, convergence runs.

Output is deterministic: 8 significant digits, '.' decimal separator,
'\\n' line endings.  Exit status is 0 on success, 2 on usage errors and
1 on computation errors or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
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


def _rule(convert, ok, rule: str):
    """An argparse ``type``: ``convert`` the string, then require ``ok`` of
    the value; a failure is a usage error that names the argument."""
    def parse(raw: str):
        try:
            value = convert(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}")
    return parse


_STRIP = _rule(float, lambda v: 0 < v <= math.pi / 2, "must lie in (0, pi/2]")
_DECAY = _rule(float, lambda v: 0.5 <= v <= 1.0, "must lie in [0.5, 1]")
_POSITIVE = _rule(int, lambda v: v >= 1, "must be an integer >= 1")
_NONNEGATIVE = _rule(int, lambda v: v >= 0, "must be a nonnegative integer")
_WINDOW_END = _rule(float, lambda v: 0 < v < math.inf, "must be positive and finite")
_L_LIST = _rule(_int_list, lambda ls: len(ls) > 0 and min(ls) >= 0,
                "must be a nonnegative integer or comma list of them")
_M_LIST = _rule(_int_list,
                lambda ms: len(ms) >= 2 and ms[0] >= 1 and all(a < b for a, b in zip(ms, ms[1:])),
                "must be a comma list of at least two strictly increasing positive integers")


# built once per process: parsing leaves the parser as it was, and each
# parse_args call fills a new namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinccol",
        description="Sinc collocation solver for the logarithmic Coulomb spectrum on (0, inf).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=_STRIP, default=DEFAULT_D,
                       help="strip half-width (default pi/4)")
        p.add_argument("--beta", type=_DECAY, default=DEFAULT_BETA,
                       help="decay exponent in [0.5, 1] (default 1)")
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        p.add_argument("--output", default=None, help="output file (default stdout)")

    p_eig = sub.add_parser("eigen", help="emit an eigenvalue grid over (n, l)")
    p_eig.add_argument("--l", type=_L_LIST, default="0",
                       help="angular momentum, int or comma list")
    p_eig.add_argument("--count", type=_POSITIVE, default=5, help="number of levels per l")
    p_eig.add_argument("--M", type=_POSITIVE, default=DEFAULT_M)
    p_eig.add_argument("--lambda-prime", action="store_true", dest="lambda_prime",
                       help="also emit the shifted eigenvalue column")
    p_eig.set_defaults(run=_cmd_eigen)
    common(p_eig)

    p_wf = sub.add_parser("wavefunction", help="emit (x, R) samples of a normalized state")
    p_wf.add_argument("--l", type=_NONNEGATIVE, default=0)
    p_wf.add_argument("--n", type=_NONNEGATIVE, default=0, help="radial index, 0 = ground state")
    p_wf.add_argument("--M", type=_POSITIVE, default=DEFAULT_M)
    p_wf.add_argument("--x-min", type=_WINDOW_END, default=0.05, dest="x_min")
    p_wf.add_argument("--x-max", type=_WINDOW_END, default=10.0, dest="x_max")
    p_wf.add_argument("--samples", type=_POSITIVE, default=200,
                      help="log-spaced sample count over [x-min, x-max]")
    p_wf.set_defaults(run=_cmd_wavefunction)
    common(p_wf)

    p_cv = sub.add_parser("converge", help="track one eigenvalue over a list of M")
    p_cv.add_argument("--l", type=_NONNEGATIVE, default=0)
    p_cv.add_argument("--n", type=_NONNEGATIVE, default=0)
    p_cv.add_argument("--M", type=_M_LIST, default="",
                      help="comma list of M values, strictly increasing")
    p_cv.set_defaults(run=_cmd_converge)
    common(p_cv)
    return parser


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
    args = parser.parse_args(argv)
    if args.command == "wavefunction" and args.x_min >= args.x_max:
        parser.error(f"argument --x-max: must exceed --x-min, got {args.x_max} <= {args.x_min}")
    try:
        args.run(args)
    except (EigenSolveError, ValueError, ArithmeticError, OSError) as exc:
        print(f"sinccol: error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
