"""The benchmark's traced run wraps library functions by owner and name
(``perfbench/layers.py``); a name that no longer resolves would otherwise
show only when that run starts."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in layers.LAYER_POINTS
               if not callable(getattr(owner, attr, None))]
    assert layers.LAYER_POINTS
    assert missing == []
