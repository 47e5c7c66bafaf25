"""In-memory span recorder that wraps functions from outside the package.

A wrapper is installed at the module attribute through which the caller
looks the function up (``sinccol.coulomb.solve`` rather than
``sinccol.collocation.solve``), so the library itself is not edited and
each span sits at a layer boundary.  Spans nest by call order on the one
thread the benchmark uses; each records its name, start, end, the index of
its parent span and a dict of counts taken from the call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# counts(result, bound_arguments) -> dict of counts for the span
CountFn = Callable[[object, inspect.BoundArguments], dict]


class Tracer:
    """Records spans for every call that goes through a wrapped attribute."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, counts: CountFn | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``counts`` runs after the span has ended, so its own cost is not
        charged to the layer.  A call that raises gets ``errors = 1`` and the
        exception propagates unchanged.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.spans[index].counts["errors"] = 1
                raise
            finally:
                self._end(index)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts.update(counts(result, bound))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name=name, start=self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
