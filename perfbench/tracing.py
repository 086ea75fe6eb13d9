"""Span tracing from outside the program.

The benchmark never edits the program: it replaces module attributes that
the program calls through (``driver.compute_slopes``, ``parabolic.solve``,
...) with timing wrappers for the duration of a traced pass, and puts the
originals back afterwards.  Spans are aggregated in memory rather than
stored one by one, so a pass with tens of thousands of steps stays cheap:

* per span name: calls, busy time (wall time inside the span) and self
  time (busy time minus the time covered by child spans);
* per (parent, child) edge: calls and busy time, which is the call tree;
* per binding (``"module.attr"``): calls, so that a binding the program no
  longer calls shows up as missing instead of as a zero.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Hook:
    """One module attribute to wrap, the span it records into, and an
    optional ``on_result(tracer, args, result)`` that adds counters."""

    module: object
    attr: str
    span: str
    on_result: object = None

    @property
    def binding(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.binding_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        # Open spans, innermost last: [name, time covered by finished children].
        self._stack: list[list] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def wrap(self, hook: Hook, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        name, binding, on_result = hook.span, hook.binding, hook.on_result
        totals = self.spans[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[binding] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                else:
                    parent = ""
                totals.calls += 1
                totals.busy_s += elapsed
                totals.self_s += elapsed - frame[1]
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def call_tree(self) -> list[dict]:
        """Edges sorted by busy time, as plain data for the report."""
        return [
            {"parent": parent, "span": name, "calls": calls, "busy_s": busy}
            for (parent, name), (calls, busy) in sorted(
                self.edges.items(), key=lambda item: -item[1][1])
        ]


@contextmanager
def installed(tracer: Tracer, hooks):
    """Wrap every hook's attribute for the duration of the block.

    An attribute the program no longer has is skipped; its binding then
    records no calls and the coverage report lists it as missing.
    """
    originals = []
    try:
        for hook in hooks:
            fn = getattr(hook.module, hook.attr, None)
            if fn is None:
                continue
            originals.append((hook, fn))
            setattr(hook.module, hook.attr, tracer.wrap(hook, fn))
        yield tracer
    finally:
        for hook, fn in reversed(originals):
            setattr(hook.module, hook.attr, fn)
