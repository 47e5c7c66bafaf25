"""The benchmark's traced run wraps library functions by owner and name
(``perfbench/layers.py``) and its count functions read their arguments by
name; a name or parameter that no longer resolves would otherwise show
only when that run starts."""

import contextlib
import importlib
import io
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_wrapped_name_resolves(layers):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in layers.LAYER_POINTS
               if not callable(getattr(owner, attr, None))]
    assert layers.LAYER_POINTS
    assert missing == []


def test_one_traced_pass_reads_every_wrapped_argument(layers):
    # each call below goes through wrappers whose count functions read
    # arguments by name: solve_states's l, M, beta and d, eigen_table's
    # l_values, solve's problem, interpolate's grid and x
    import sinccol.cli
    import sinccol.coulomb as coulomb

    tracer = importlib.import_module("tracer").Tracer()
    layers.install(tracer, layers.LAYER_POINTS)
    try:
        states = coulomb.solve_states(1, 2, M=10)
        coulomb.evaluate_radial(states[0], [0.5, 2.0])
        coulomb.state_overlap(states[0], states[1])
        with contextlib.redirect_stdout(io.StringIO()):
            status = sinccol.cli.main(["eigen", "--l", "0,1", "--count", "2", "--M", "10"])
    finally:
        tracer.restore()
    assert status == 0
    assert [s.name for s in tracer.spans if s.counts.get("errors")] == []
    metrics = layers.layer_metrics(tracer.spans, 1, [1.0], [1.0], 0.0)
    assert list(metrics) == list(layers.LAYER_UNITS)
