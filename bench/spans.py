"""In-memory span recorder and the summary statistics the benchmark reports.

A span is one call into a library layer, recorded from the benchmark side:
name, start, end, the span that was open when it began (its parent), the id
of the benchmark call it belongs to, and a few attributes (sizes, counts).
Spans stay in memory until the run ends; `write_jsonl` dumps them.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter


class Span:
    __slots__ = ("call", "name", "parent", "attrs", "start", "end")

    def __init__(self, call: int, name: str, parent: int | None, attrs: dict):
        self.call = call
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span; yields the span's attribute dict so the
    caller can add result-dependent attributes before it closes."""

    __slots__ = ("rec", "span", "index")

    def __init__(self, rec: "Recorder", span: Span, index: int):
        self.rec, self.span, self.index = rec, span, index

    def __enter__(self) -> dict:
        self.rec._stack.append(self.index)
        self.span.start = perf_counter()
        return self.span.attrs

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self.rec._stack.pop()


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Open:
        parent = self._stack[-1] if self._stack else None
        s = Span(self.call, name, parent, attrs)
        self.spans.append(s)
        return _Open(self, s, len(self.spans) - 1)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) gives attributes up front,
        after(result, attrs, args) adds attributes from the result."""

        def traced(*args, **kwargs):
            with self.span(name, **(before(args) if before else {})) as attrs:
                result = fn(*args, **kwargs)
                if after:
                    after(result, attrs, args)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def top_level_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "call": s.call, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


class _NullRecorder:
    """Stand-in used with tracing off: spans cost one method call and record nothing."""

    _null = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


NULL = _NullRecorder()


@contextlib.contextmanager
def patched(module, replacements: dict):
    """Temporarily replace module attributes; always restores the originals."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count). Under 11 samples it is the maximum."""
    s = sorted(values)
    n = len(s)
    i = n - 11 if n >= 11 else n - 1
    return s[i], 100.0 * (i + 1) / n, n


def lower_quartile(values) -> float:
    """q1 of statistics.quantiles(values, n=4); needs at least two values."""
    return statistics.quantiles(values, n=4)[0]


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default
