"""Tests of the benchmark's own logic: span arithmetic, the check-value
comparison behind ``failed``, and seed-determined inputs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_spans_nest_and_self_time_subtracts_children():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.mid = lambda: (mod.leaf(), mod.leaf())
    mod.top = lambda: mod.mid()
    tracer = Tracer(clock=ticking_clock())
    for attr in ("top", "mid", "leaf"):
        tracer.wrap(mod, attr, attr)
    mod.top()
    names = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert names == [("top", 0, 7, None), ("mid", 1, 6, 0), ("leaf", 2, 3, 1), ("leaf", 4, 5, 1)]
    assert self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0), Span("a", 1.0, 4.0, 0), Span("b", 3.0, 6.0, 0),
             Span("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent's [0, 10]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_wrapper_records_errors_counts_and_restores():
    mod = types.SimpleNamespace(f=lambda x, scale=2: x * scale, g=lambda: 1 / 0)
    original = mod.f
    tracer = Tracer(clock=ticking_clock())
    tracer.wrap(mod, "f", "f", lambda result, b: {"x": b.arguments["x"], "scale": b.arguments["scale"]})
    tracer.wrap(mod, "g", "g")
    assert mod.f(3) == 6
    with pytest.raises(ZeroDivisionError):
        mod.g()
    assert tracer.spans[0].counts == {"x": 3, "scale": 2}
    assert tracer.spans[1].counts == {"errors": 1}
    tracer.restore()
    assert mod.f is original


def test_layer_metrics_totals_and_computed_counts():
    spans = [
        Span("dense_eig.eig", 0.0, 4.0, None, {"K": 10, "flops": 5.0, "residual_max": 1e-12, "real": 8}),
        Span("lapack.geev", 0.5, 3.5, 0, {"K": 10}),
        Span("dense_eig.eig", 4.0, 6.0, None, {"K": 20, "flops": 7.0, "residual_max": 3e-12, "real": 20}),
        Span("lapack.geev", 4.0, 5.0, 2, {"K": 20}),
    ]
    m = layers.layer_metrics(spans, passes=2, traced_walls=[4.0, 4.0], untraced_walls=[3.5, 3.9],
                             cpu_s=12.0)
    assert m["lapack.geev.s"] == pytest.approx(2.0)
    assert m["lapack.geev.share"] == pytest.approx(0.5)
    assert m["lapack.geev.gflops"] == pytest.approx(
        (layers.geev_flops(10) + layers.geev_flops(20)) / 4.0 / 1e9)
    assert m["dense_eig.eig.self_s"] == pytest.approx(1.0)
    assert m["dense_eig.eig.K_max"] == 20
    assert m["dense_eig.eig.flops"] == pytest.approx(6.0)
    assert m["dense_eig.eig.residual_max"] == 3e-12
    assert m["collocation.solve.real_ratio"] == pytest.approx(28 / 30)
    assert m["proc.cpu_util"] == pytest.approx(1.5)
    assert m["trace.overhead_s"] == pytest.approx(4.0 - 3.7)
    assert set(m) == set(layers.LAYER_UNITS)


def test_computed_formulas():
    from sinccol.sinc import build_deltas, build_grid

    assert layers.geev_flops(3) == pytest.approx((25 + 4 / 3) * 27)
    grid = build_grid(alpha=1.5, beta=1.0, d=np.pi / 4, M=10)
    assert layers.dense_bytes(build_deltas(grid)) == 3 * 8 * grid.size**2  # d0, d1, d2


def test_largest_solve_ignores_multi_solve_spans():
    spans = [Span("coulomb.eigen_table", 0.0, 9.0, None, {"K": 900, "solves": 5}),
             Span("coulomb.eigen_table", 9.0, 11.0, None, {"K": 700, "solves": 1}),
             Span("coulomb.eigen_table", 11.0, 11.5, None, {"K": 300, "solves": 1})]
    assert layers.largest_solve_s(spans) == 2.0
    raised = [Span("coulomb.solve_states", 0.0, 3.0, None, {"errors": 1}),
              Span("coulomb.solve_states", 3.0, 4.0, None, {"errors": 1})]
    assert layers.largest_solve_s(raised) == 3.0


def test_value_failure_at_the_tolerance():
    want = wl.CHECK_VALUES[2, 3]
    assert wl.value_failure(3, 2, want + 0.9 * wl.TOLERANCE) == ""
    assert wl.value_failure(3, 2, want - 1.1 * wl.TOLERANCE) != ""
    assert wl.value_failure(3, 2, float("nan")) != ""


def test_eigenvalue_failure_uses_corrected_cells():
    assert wl.eigenvalue_failure(4, wl.CHECK_VALUES[:, 4]) == ""
    assert wl.CHECK_VALUES[4, 4] == 3.2055826  # not the misprinted 3.3373990
    assert wl.CHECK_VALUES[0, 0] == 0.52650899  # shooting oracle, not the table
    assert "got 4" in wl.eigenvalue_failure(1, wl.CHECK_VALUES[:4, 1])
    shifted = wl.CHECK_VALUES[:, 1].copy()
    shifted[3] += 1e-4
    assert "lambda_3" in wl.eigenvalue_failure(1, shifted)


def test_known_defect_counts_as_failed_but_stays_correct():
    assert wl.is_correct([wl.Outcome(0, failed="off"), wl.Outcome(1)])
    assert not wl.is_correct([wl.Outcome(1, failed="off")])
    assert not wl.is_correct([wl.Outcome(0, problem="nodes")])


def test_check_converge_output():
    lams = [wl.CHECK_VALUES[0, 2] + e for e in (3e-6, 1e-7, 0.0)]
    lines = ["M,lambda,delta", f"25,{lams[0]:#.8g},",
             f"50,{lams[1]:#.8g},{abs(lams[1] - lams[0]):#.8g}",
             f"100,{lams[2]:#.8g},{abs(lams[2] - lams[1]):#.8g}"]
    out = "\n".join(lines) + "\n"
    outcomes = wl.check_converge(2, (25, 50, 100), 0, out, "")
    assert [(o.failed, o.problem) for o in outcomes] == [("", "")] * 3
    bad_delta = out.replace(lines[2].rsplit(",", 1)[1], "1.0000000e-05")
    assert wl.check_converge(2, (25, 50, 100), 0, bad_delta, "")[1].problem
    failed = wl.check_converge(2, (25, 50, 100), 1, "", "sinccol: error: x")
    assert all(o.failed for o in failed) and len(failed) == 3


def test_check_eigen_table_output():
    ls = [3, 0]
    rows = [f"{n}  {l}  {wl.CHECK_VALUES[n, l]:#.8g}" for l in ls for n in range(5)]
    out = "\n".join(["n  l     lambda"] + rows) + "\n"
    outcomes = wl.check_eigen_table(ls, 0, out, "")
    assert [(o.l, o.failed, o.problem) for o in outcomes] == [(3, "", ""), (0, "", "")]
    swapped = wl.check_eigen_table([0, 3], 0, out, "")
    assert all(o.problem for o in swapped)


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_inputs_depend_only_on_the_seed(cls):
    def inputs(seed):
        w = cls(seed)
        return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(w).items()}

    assert inputs(7) == inputs(7)
    assert any(inputs(seed) != inputs(7) for seed in range(1, 5))


def test_wavefunction_abscissae_in_range():
    x = wl.Wavefunctions(3).x
    assert len(x) == wl.Wavefunctions.SAMPLES
    assert np.all(np.diff(x) >= 0) and x[0] >= 0.01 and x[-1] <= 20.0


def test_sign_changes_ignores_round_off_tail():
    assert wl.sign_changes([1e-20, -1e-20, 1.0, 0.5, -0.5, -1.0, 1e-12, -1e-12]) == 1


def test_unparseable_cli_output_is_a_problem_not_a_crash():
    sweep = wl.ConvergeSweep(1)
    converge = "M,lambda,delta\n" + "".join(f"{m},garbage,\n" for m in sweep.M_LIST)
    eigen_ls = next(argv[2] for argv in sweep.runs if argv[0] == "eigen").split(",")
    eigen = "n  l  lambda\n" + "".join(f"{n}  {l}  garbage\n" for l in eigen_ls for n in range(5))
    raw = [(argv, 0, converge if argv[0] == "converge" else eigen, "") for argv in sweep.runs]
    outcomes = sweep.check(raw)
    assert len(outcomes) == 25
    assert all("ValueError" in o.problem and not o.failed for o in outcomes)
