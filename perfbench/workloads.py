"""The three benchmark workloads, their seeded inputs and their checks.

Each workload draws its inputs from ``--seed`` once, at construction.
``run_pass`` is the timed part: it drives the public sinccol API (always
through the module attribute, so a tracer's wrappers see the calls) and
returns raw outputs, catching a failed solve so that the pass goes on.
``check`` is not timed: it turns the raw outputs into one ``Outcome`` per
solve.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import sinccol.cli
import sinccol.coulomb

# Check values lambda_n for the flagship problem: rows n = 0..4, columns
# l = 0..4, at the reference settings d = pi/4, beta = 1.
#   l >= 1: the reference table's digits (as in tests/test_acceptance.py),
#     except (n=4, l=4): the table prints 3.3373990, a misprint; 3.2055826 is
#     self-converged to 1e-11 between M = 400 and M = 500 (README,
#     "Reproduction study").
#   l = 0: the shooting oracle of tests/oracles.py, which agrees with
#     published momentum-space values; the reference table's l = 0 digits
#     are wrong from the fourth decimal on.
CHECK_VALUES = np.array([
    [0.52650899, 1.3861862, 1.8443720, 2.1578468, 2.3962798],
    [1.6612514, 2.0094748, 2.2758614, 2.4881158, 2.6638815],
    [2.1771824, 2.3943387, 2.5800522, 2.7390550, 2.8772701],
    [2.5154477, 2.6726676, 2.8144703, 2.9409664, 3.0543788],
    [2.7676286, 2.8906069, 3.0049630, 3.1096821, 3.2055826],
])

# Acceptance criterion 1's tolerance on every eigenvalue.
TOLERANCE = 5e-6

# The seed's discretization cannot reach the l = 0 column (the
# critical-coupling wall, README "Reproduction study"): those solves count
# as failed, but do not make the run incorrect.  Any other failure does.
KNOWN_DEFECT_L = frozenset({0})

L_VALUES = (0, 1, 2, 3, 4)
COUNT = 5


@dataclass
class Outcome:
    """One solve: ``failed`` if it raised or missed a check value;
    ``problem`` names any other check the outputs broke."""

    l: int
    failed: str = ""
    problem: str = ""


def value_failure(l: int, n: int, value: float) -> str:
    """Empty when lambda_n for l is within TOLERANCE of its check value."""
    want = CHECK_VALUES[n, l]
    if abs(value - want) <= TOLERANCE:
        return ""
    return f"l={l}: lambda_{n} = {value:.8g}, check value {want:.8g}"


def eigenvalue_failure(l: int, values) -> str:
    """Empty when lambda_0..lambda_4 all match their check values."""
    if len(values) != COUNT:
        return f"l={l}: got {len(values)} eigenvalues, want {COUNT}"
    return next(filter(None, (value_failure(l, n, float(v)) for n, v in enumerate(values))), "")


def is_correct(outcomes: list[Outcome]) -> bool:
    return all(not o.problem and (not o.failed or o.l in KNOWN_DEFECT_L) for o in outcomes)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class PaperTable:
    """solve_states(l, 5, M=500) for l = 0..4 (K = 751..2751)."""

    name = "paper_table"
    M = 500

    def __init__(self, seed: int):
        self.order = [int(l) for l in np.random.default_rng(seed).permutation(L_VALUES)]

    def run_pass(self):
        raw = []
        for l in self.order:
            try:
                raw.append((l, sinccol.coulomb.solve_states(l, COUNT, M=self.M)))
            except Exception as exc:
                raw.append((l, exc))
        return raw

    def check(self, raw) -> list[Outcome]:
        return [Outcome(l, _failure(out) if isinstance(out, Exception)
                        else eigenvalue_failure(l, [s.eigenvalue for s in out]))
                for l, out in raw]


class Wavefunctions:
    """solve_states(l, 5, M=100) for l = 0..4, every state sampled by
    evaluate_radial at seeded log-uniform abscissae in [0.01, 20], and the
    5 x 5 state_overlap matrix per l."""

    name = "wavefunctions"
    M = 100
    SAMPLES = 4000
    X_RANGE = (0.01, 20.0)
    REFERENCE_STRIDE = 97  # every 97th abscissa is re-evaluated by the check
    ORTHOGONALITY_TOL = 1e-8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.order = [int(l) for l in rng.permutation(L_VALUES)]
        lo, hi = np.log(self.X_RANGE[0]), np.log(self.X_RANGE[1])
        self.x = np.sort(np.exp(rng.uniform(lo, hi, self.SAMPLES)))

    def run_pass(self):
        raw = []
        for l in self.order:
            try:
                states = sinccol.coulomb.solve_states(l, COUNT, M=self.M)
                radial = [sinccol.coulomb.evaluate_radial(s, self.x) for s in states]
                overlap = np.array([[sinccol.coulomb.state_overlap(a, b) for b in states]
                                    for a in states])
                raw.append((l, (states, radial, overlap)))
            except Exception as exc:
                raw.append((l, exc))
        return raw

    def check(self, raw) -> list[Outcome]:
        outcomes = []
        for l, out in raw:
            if isinstance(out, Exception):
                outcomes.append(Outcome(l, _failure(out)))
                continue
            states, radial, overlap = out
            outcome = Outcome(l, eigenvalue_failure(l, [s.eigenvalue for s in states]))
            if not outcome.failed:
                outcome.problem = self._state_problem(l, states, radial, overlap)
            outcomes.append(outcome)
        return outcomes

    def _state_problem(self, l, states, radial, overlap) -> str:
        if np.max(np.abs(overlap - np.eye(len(states)))) > self.ORTHOGONALITY_TOL:
            return f"l={l}: states are not orthonormal, overlap {overlap.tolist()}"
        for state, R in zip(states, radial):
            nodes = sign_changes(R)
            if nodes != state.n:
                return f"l={l}: state n={state.n} has {nodes} nodes"
            x = self.x[:: self.REFERENCE_STRIDE]
            want = reference_radial(state, x)
            if np.max(np.abs(R[:: self.REFERENCE_STRIDE] - want)) > 1e-10 * np.max(np.abs(want)):
                return f"l={l}: R_{state.n} differs from the direct sinc sum"
        return ""


def sign_changes(values, rel_threshold: float = 1e-8) -> int:
    """Sign changes among the entries above rel_threshold * max |value|."""
    v = np.asarray(values, dtype=float)
    v = v[np.abs(v) > rel_threshold * np.max(np.abs(v))]
    return int(np.count_nonzero(np.signbit(v[1:]) != np.signbit(v[:-1])))


def reference_radial(state, x):
    """R(x) = x^(-1/2) sum_m f_m sinc(ln(sinh x)/a - m), written out directly."""
    grid = state.grid
    t = np.log(np.sinh(x))[:, None] / grid.a - grid.indices[None, :]
    return (np.sinc(t) @ state.coefficients) / np.sqrt(x)


class ConvergeSweep:
    """In-process sinccol CLI: ``converge --n 0 --M 25,50,100,150,200`` for
    l = 1..4, and ``eigen --l <0..4> --count 5 --M 100 --format table``
    (25 solves, K = 64..1101)."""

    name = "converge_sweep"
    M_LIST = (25, 50, 100, 150, 200)
    EIGEN_M = 100

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        eigen_ls = ",".join(str(l) for l in rng.permutation(L_VALUES))
        m_list = ",".join(str(m) for m in self.M_LIST)
        runs = [["converge", "--l", str(l), "--n", "0", "--M", m_list] for l in (1, 2, 3, 4)]
        runs.append(["eigen", "--l", eigen_ls, "--count", str(COUNT), "--M", str(self.EIGEN_M),
                     "--format", "table"])
        self.runs = [runs[i] for i in rng.permutation(len(runs))]

    def run_pass(self):
        raw = []
        for argv in self.runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = sinccol.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            raw.append((argv, code, out.getvalue(), err.getvalue()))
        return raw

    def check(self, raw) -> list[Outcome]:
        outcomes = []
        for argv, code, out, err in raw:
            ls = [int(l) for l in argv[2].split(",")]
            try:
                if argv[0] == "converge":
                    outcomes += check_converge(ls[0], self.M_LIST, code, out, err)
                else:
                    outcomes += check_eigen_table(ls, code, out, err)
            except (ValueError, IndexError) as exc:  # output that does not parse
                solves = len(self.M_LIST) if argv[0] == "converge" else len(ls)
                outcomes += [Outcome(ls[0], problem=f"{argv[0]}: {_failure(exc)}")] * solves
        return outcomes


def check_converge(l: int, m_list, code, out: str, err: str) -> list[Outcome]:
    """One outcome per M: lambda_0 against its check value; the delta column
    must be |lambda_M - lambda_previous| to the printed precision."""
    if code != 0:
        return [Outcome(l, f"exit {code}: {err.strip()}") for _ in m_list]
    rows = [line.split(",") for line in out.splitlines()]
    if rows[:1] != [["M", "lambda", "delta"]] or [r[0] for r in rows[1:]] != [str(m) for m in m_list]:
        return [Outcome(l, problem=f"converge l={l}: unexpected output {out!r}") for _ in m_list]
    outcomes, previous = [], None
    for _, lam, delta in rows[1:]:
        outcome = Outcome(l, value_failure(l, 0, float(lam)))
        if previous is None:
            bad_delta = delta != ""
        else:
            bad_delta = delta == "" or abs(float(delta) - abs(float(lam) - previous)) > 2e-7
        if bad_delta:
            outcome.problem = f"converge l={l}: delta {delta!r} after lambda {previous!r}"
        outcomes.append(outcome)
        previous = float(lam)
    return outcomes


def check_eigen_table(ls: list[int], code, out: str, err: str) -> list[Outcome]:
    """One outcome per l; rows must come in the requested order of l, n."""
    if code != 0:
        return [Outcome(l, f"exit {code}: {err.strip()}") for l in ls]
    lines = out.splitlines()
    rows = [line.split() for line in lines[1:]]
    want = [[str(n), str(l)] for l in ls for n in range(COUNT)]
    if lines[:1] == [] or lines[0].split() != ["n", "l", "lambda"] or [r[:2] for r in rows] != want:
        return [Outcome(l, problem=f"eigen: unexpected output {out!r}") for l in ls]
    return [Outcome(l, eigenvalue_failure(l, [float(r[2]) for r in rows[j * COUNT:(j + 1) * COUNT]]))
            for j, l in enumerate(ls)]


WORKLOADS = {w.name: w for w in (PaperTable, Wavefunctions, ConvergeSweep)}
