"""Spans around the benchmark's calls into kdl's layers.

A span records name, start, end, parent span and op id, plus any counts
the caller attaches.  In memory mode it also records the peak of memory
traced by ``tracemalloc`` while it was open.  ``tracemalloc`` slows code
that makes many small arrays (the refiner) by up to about 2x, so the
traced run times layers with memory mode off and takes peaks from
separate ops with it on.  Spans stay in memory and are written out when
the run ends.  ``NullTracer`` has the same interface and records nothing;
untraced ops use it.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager

from kdl import distortion_certified

MB = 1024.0 * 1024.0


class _NullSpan:
    def count(self, key, value):
        pass


class NullTracer:
    """Tracer used with tracing off: every hook is a no-op."""

    op = None
    _span = _NullSpan()

    @contextmanager
    def span(self, name):
        yield self._span

    def note(self, key, value):
        pass

    def probe_certified(self, curve, eps):
        pass

    def finish_op(self):
        pass


class Span:
    __slots__ = ("id", "name", "parent", "op", "memory", "start", "end", "peak_mb",
                 "counts", "base", "peak")

    def __init__(self, sid, name, parent, op, memory):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.memory = memory
        self.counts = {}
        self.start = self.end = 0.0
        self.peak_mb = None
        self.base = self.peak = 0

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def to_json(self):
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
            "start": self.start, "end": self.end, "peak_mb": self.peak_mb,
            "counts": self.counts,
        }


class Tracer:
    """Records spans and per-op notes, and runs the certified grid probe.

    Use as a context manager: entering wraps the public functions kdl calls
    between its own layers (``bounds`` -> ``geom.min_clearance``,
    ``plat``/``refine`` -> ``geom.build_polycurve``) so they get child
    spans; leaving restores them and stops ``tracemalloc`` if it runs.
    """

    _WRAPPED = (
        ("kdl.bounds", "min_clearance", "geom.min_clearance"),
        ("kdl.plat", "build_polycurve", "geom.build_polycurve"),
        ("kdl.refine", "build_polycurve", "geom.build_polycurve"),
    )

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[int, dict] = {}
        self.op = None
        self.memory = False
        self._stack: list[Span] = []
        self._pending = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr, name in self._WRAPPED:
            # kdl exports a function named refine, which shadows the
            # submodule as an attribute of the package
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        self.set_memory(False)
        return False

    def set_memory(self, on: bool):
        """Switch peak-memory tracing (``tracemalloc``) for later spans."""
        if on and not self.memory:
            tracemalloc.start()
        elif self.memory and not on:
            tracemalloc.stop()
        self.memory = on

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent.id if parent else None, self.op, self.memory)
        self.spans.append(sp)
        if self.memory:
            # tracemalloc keeps one peak; fold it into the parent before
            # resetting it for the child, and back into the parent after
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            sp.base = sp.peak = cur
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                top = max(sp.peak, tracemalloc.get_traced_memory()[1])
                sp.peak_mb = (top - sp.base) / MB
                if parent is not None:
                    parent.peak = max(parent.peak, top)

    def note(self, key, value):
        self.notes.setdefault(self.op, {})[key] = value

    def probe_certified(self, curve, eps):
        """Queue a grid-only certified call on the same curve.

        ``max_expansions=0`` stops the engine right after clearance, the
        vertex scan, the corner sup and the initial grid; the full call
        minus this one is the bisection phase.  It runs from
        :meth:`finish_op`, after the op's time is taken, and only on ops
        that are timed (memory mode off).
        """
        if not self.memory:
            self._pending.append((curve, eps))

    def finish_op(self):
        pending, self._pending = self._pending, []
        for curve, eps in pending:
            with self.span("distortion.certified.grid") as sp:
                grid = distortion_certified(curve, eps=eps, max_expansions=0)
                sp.count("cells", grid.cells)

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")

    # -- summaries ---------------------------------------------------------

    def per_op(self) -> dict[int, tuple[bool, dict]]:
        """Per op: (memory mode, {span name: summed seconds, summed
        counts and max peak})."""
        out: dict[int, tuple[bool, dict]] = {}
        for sp in self.spans:
            _, layers = out.setdefault(sp.op, (sp.memory, {}))
            rec = layers.setdefault(sp.name, {"s": 0.0, "peak_mb": 0.0, "counts": {}})
            rec["s"] += sp.end - sp.start
            if sp.peak_mb is not None:
                rec["peak_mb"] = max(rec["peak_mb"], sp.peak_mb)
            for k, v in sp.counts.items():
                rec["counts"][k] = rec["counts"].get(k, 0) + v
        return out

    def self_times(self, memory: bool = False) -> dict[str, tuple[int, float, float]]:
        """Per span name, over ops in the given mode: (calls, total
        seconds, self seconds).

        Self time is a span's duration minus its direct children's; spans
        never overlap their siblings because every call is sequential.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, list] = {}
        for sp in self.spans:
            if sp.memory != memory:
                continue
            rec = out.setdefault(sp.name, [0, 0.0, 0.0])
            dur = sp.end - sp.start
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[sp.id]
        return {k: tuple(v) for k, v in out.items()}
