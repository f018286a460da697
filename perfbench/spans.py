"""Spans around the package's public calls, installed from outside.

``instrument(tracer)`` replaces each traced callable with a wrapper in every
``cmaeig`` module that binds it (so ``cmaeig.dirichlet.spsolve`` and the
``complex_hessian`` bindings of hessian, dirichlet, eigenpath and
variational are all covered), and puts the originals back on exit.  The
package's source is never touched.  A span records (name, start, end,
parent); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a pause switch for untimed checks."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = True
        self._seen = {}  # id -> object, for cold/warm detection of cached builds

    def call(self, name, fn, args, kwargs, on_result=None):
        """fn(*args, **kwargs) inside a span; on_result(tracer, span, args,
        kwargs, result) runs when it ends, with result None if fn raised."""
        if not self._active:
            return fn(*args, **kwargs)
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if on_result is not None:
                on_result(self, span, args, kwargs, result)

    @contextmanager
    def paused(self):
        was, self._active = self._active, False
        try:
            yield
        finally:
            self._active = was

    def first_seen(self, obj):
        """True the first time obj is returned; cached stencils come back as
        the same object, fresh builds as a new one."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj  # the reference keeps the id from being reused
        return True

    def write_jsonl(self, path, job):
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"job": job, "id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")


def _mark_cold(tracer, span, args, kwargs, result):
    span.attrs["cold"] = result is not None and tracer.first_seen(result)


def _rk4_steps(tracer, span, args, kwargs, result):
    """RK4 step count of one shoot(n, R, lam, step=None), as shoot computes it
    (the full count also when the call stops early on a vanishing gradient)."""
    R = args[1] if len(args) > 1 else kwargs["R"]
    step = args[3] if len(args) > 3 else kwargs.get("step")
    T = R * R
    step = 1e-4 * T if step is None else step
    delta = 1e-6 * T
    span.attrs["rk4_steps"] = max(1, math.ceil((T - delta) / step))


# (module that defines or imports the callable, attribute, kind, hook); the
# span name is "<module>.<attribute>", and spans of one kind form one layer
# metric.
TARGETS = (
    ("cmaeig.domain", "build_grid", "build_grid", None),
    ("cmaeig.domain", "brentq", "crossing", None),
    ("cmaeig.hessian", "second_difference_matrix", "stencil", _mark_cold),
    ("cmaeig.hessian", "laplacian_matrix", "stencil", _mark_cold),
    ("cmaeig.hessian", "complex_hessian", "hessian_eval", None),
    ("cmaeig.dirichlet", "spsolve", "linear_solve", None),
    ("cmaeig.dirichlet", "splu", "linear_solve", None),
    ("cmaeig.dirichlet", "solve_frozen", "solve_frozen", None),
    ("cmaeig.eigenpath", "continuation", "continuation", None),
    ("cmaeig.variational", "inverse_power", "inverse_power", None),
    ("cmaeig.variational", "rayleigh", "functional", None),
    ("cmaeig.variational", "energy", "functional", None),
    ("cmaeig.variational", "mass", "functional", None),
    ("cmaeig.radial", "radial_lambda1", "radial", None),
    ("cmaeig.radial", "shoot", "shoot", _rk4_steps),
)
RHS_BRANCH = "dirichlet.RhsSpec.branch"  # one call per continuation step attempt


def _span_name(module_name, attr):
    return f"{module_name.rsplit('.', 1)[-1]}.{attr}"


KIND = {_span_name(m, a): kind for m, a, kind, _ in TARGETS}
KIND[RHS_BRANCH] = "rhs_branch"


def _wrap(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.__wrapped__ = fn
    return traced


def span_cost(calls=20000, repeats=3):
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    fastest of a few repeats."""
    def noop():
        return None

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    best = min(loop(_wrap(Tracer(), "noop", noop, None)) - loop(noop) for _ in range(repeats))
    return max(best, 0.0) / calls


@contextmanager
def instrument(tracer):
    """Wrap every TARGETS callable at each cmaeig module binding it, plus the
    RhsSpec.branch constructor."""
    undo = []
    try:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cmaeig" or n.startswith("cmaeig."))]
        for module_name, attr, _, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = _wrap(tracer, _span_name(module_name, attr), original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))
        rhs = importlib.import_module("cmaeig.dirichlet").RhsSpec
        branch = rhs.__dict__["branch"]
        rhs.branch = classmethod(_wrap(tracer, RHS_BRANCH, branch.__func__, None))
        undo.append((rhs, "branch", branch))
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# Reading the spans of one job
# ---------------------------------------------------------------------------

class SpanIndex:
    """Counts, inclusive times and self times over one job's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                self.child_time[s.parent] += s.duration

    def self_time(self, s):
        return s.duration - self.child_time[s.id]

    def _ancestors(self, s):
        while s.parent is not None:
            s = self.spans[s.parent]
            yield s

    def of_kind(self, kind):
        return [s for s in self.spans if KIND[s.name] == kind]

    def count(self, kind):
        return len(self.of_kind(kind))

    def time_in(self, kind):
        """Wall time inside spans of a kind, not counting nested ones twice."""
        return sum(s.duration for s in self.of_kind(kind)
                   if all(KIND[a.name] != kind for a in self._ancestors(s)))

    def within(self, s, kind):
        """Spans of a kind nested anywhere inside span s."""
        return [t for t in self.of_kind(kind) if any(a.id == s.id for a in self._ancestors(t))]

    def self_table(self):
        """{span name: (calls, total self seconds)} for printing."""
        table = {}
        for s in self.spans:
            calls, total = table.get(s.name, (0, 0.0))
            table[s.name] = (calls + 1, total + self.self_time(s))
        return table
