"""Spans and counters at lcse layer boundaries, recorded from outside.

The tracer rebinds the names a calling module imported (for example
`lcse.cpt.integrate`) to wrappers that record a span per call: name, start,
end and the enclosing span. Spans stay in memory. A target that no longer
exists is recorded as absent instead of failing, so a refactor that removes a
wrapped name leaves the benchmark running and the span reported as absent.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Install with `wrap` / `count`, run the workload, then `restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def _target(self, module, attr: str):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return None
        return fn

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Record a span `name` for each call of `module.attr`.

        on_return(span, result) may attach attributes such as nfev.
        """
        fn = self._target(module, attr)
        if fn is None:
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if on_return is not None:
                on_return(span, result)
            return result

        self._rebind(module, attr, fn, traced)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of a hot function without recording spans."""
        fn = self._target(module, attr)
        if fn is None:
            return
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._rebind(module, attr, fn, counted)

    def _rebind(self, module, attr, fn, wrapper) -> None:
        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, self_time: bool = False) -> float:
        return sum(s.self_s if self_time else s.duration
                   for s in self.named(name))
