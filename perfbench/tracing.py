"""In-memory spans recorded around calls into bqrnet, from outside the package.

A ``Tracer`` replaces module attributes (``bqrnet.losses.total_loss`` and so
on) with wrappers that record one span per call and then call the original.
Callers inside bqrnet look these names up in their module namespace at call
time, so the wrappers see the calls without any change to the package.

A span is ``[name, start_ns, end_ns, parent_index, rows]``; ``parent_index``
is -1 for a root span, and ``rows`` is the batch size a call worked on when
the target names a way to read it, else 0. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

NAME, START, END, PARENT, ROWS = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name, rows):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, rows])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, rows=0):
        """Record a span around a block, e.g. one timed operation."""
        idx = self._open(name, rows)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, rows=None):
        """Return fn recording a span per call.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one; ``rows`` maps the positional arguments to
        the number of rows the call works on.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = self._open(label, rows(args) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self, targets):
        """Wrap each (module, attribute, name, rows) target in place."""
        for module, attr, name, rows in targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, rows))

    def uninstall(self):
        """Put back every attribute that install replaced."""
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def covered_ns(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered_ns(kids, s[START], s[END])
            for s, kids in zip(spans, children)]
