"""Timing spans around pathcalc's layer functions, installed from outside the package.

A :class:`Tracer` replaces module and class attributes with timing wrappers
for the duration of a ``with tracer.installed(patches):`` block and puts the
originals back when the block exits, so a run made afterwards calls the
original functions.  Each span records wall time (``perf_counter``) and the
CPU time of its own thread (``thread_time``).  A span's self time is its
duration minus the durations of the spans it directly encloses in the same
thread; spans opened in pool threads are roots of their own thread.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    wall: float = 0.0
    cpu: float = 0.0
    child_wall: float = 0.0
    child_cpu: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Tracer:
    """Collects spans in memory; ``summary()`` sums them per span name."""

    def __init__(self, wall_clock=time.perf_counter, cpu_clock=time.thread_time):
        self._wall = wall_clock
        self._cpu = cpu_clock
        self._local = threading.local()
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = Span(name)
        stack.append(rec)
        w0, c0 = self._wall(), self._cpu()
        try:
            yield rec
        finally:
            rec.wall = self._wall() - w0
            rec.cpu = self._cpu() - c0
            stack.pop()
            if stack:
                stack[-1].child_wall += rec.wall
                stack[-1].child_cpu += rec.cpu
            self.spans.append(rec)  # list.append is atomic, so pool threads may share it

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` gives the span's work counts.

        The counts are taken after the span closes, so their cost lands in the
        caller's span, not in this one.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec.work = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Install ``(owner, attr, make_wrapper)`` patches for the block's duration.

        ``make_wrapper(original)`` returns the replacement.  An attribute the
        owner lacks is skipped, so a renamed layer reads as zero calls rather
        than stopping the benchmark.
        """
        saved = []
        try:
            for owner, attr, make_wrapper in patches:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, self_s, cpu_s (self CPU) and summed work counts."""
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "cpu_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.self_wall
            row["cpu_s"] += s.self_cpu
            for key, value in s.work.items():
                row[key] = row.get(key, 0) + value
        return out
