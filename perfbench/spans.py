"""Spans around calls into the package, and the arithmetic built on them.

Public functions are wrapped from outside the package: the wrapper is bound
under the function's name in every ``volentropy`` module that holds the
original object, so calls the package makes internally are recorded as well
as the benchmark's own calls.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    """One call: name, start and end (ns), parent span index and operation id.

    An operation is one call the benchmark makes into the package; it and
    every call made inside it share the operation id.
    """

    name: str
    start: int
    end: int
    parent: int
    op: int
    tag: str | None = None
    error: str | None = None


class Tracer:
    """Records spans for a fixed set of wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, tag, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not stack:
                self.op += 1
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.op,
                        tag(*args, **kwargs) if tag else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, tag, on_result)`` target.

        The span is named ``<module tail>.<attribute>``; ``tag`` maps the call
        arguments to a label stored on the span, ``on_result`` sees the result.
        """
        for module, attr, tag, on_result in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, tag, on_result)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", None)
                if not isinstance(mod_name, str) or mod_name.split(".")[0] != "volentropy":
                    continue
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.tag, s.error]) + "\n")


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_ns(kids, s.start, s.end)
            for s, kids in zip(spans, children)]


def inside(spans: list[Span], ancestor_name: str) -> list[int | None]:
    """For each span, the index of its nearest ancestor called ``ancestor_name``."""
    out: list[int | None] = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != ancestor_name:
            p = spans[p].parent
        out.append(p if p >= 0 else None)
    return out


# Percentiles considered for a tail figure, in hundredths of a percent.
_TAIL_LADDER = (5000, 9000, 9900, 9990, 9999)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``n`` samples with at least ten samples beyond it.

    Uses the nearest-rank definition, under which the ``p``-th percentile is
    the sample of rank ``ceil(n * p / 100)`` and ``n`` minus that rank samples
    lie beyond it.  Returns ``None`` when even the median has fewer than ten.
    """
    best = None
    for k in _TAIL_LADDER:
        rank = -(-n * k // 10000)
        if n - rank >= 10:
            best = k / 100
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a nonempty sample, ``p`` in percent."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * round(p * 100) // 10000))
    return ordered[rank - 1]
