"""In-memory span recorder and call-counting wrappers for the traced run.

The program is not instrumented.  ``Tracer`` rebinds the module
attributes through which rsheat's layers call each other (for example
``rsheat.trace.t2_part`` or ``rsheat.oracle.bessel_j0``) to wrappers that
record a span or a count, and ``Tracer.restore`` puts every original back.
``assert_pristine`` is the check the untraced run makes that no wrapper
is left installed.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_MARK = "_bench_wrapped"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Spans and counts of one traced phase, kept in memory.

    A span's parent is the innermost open span of the same thread or, in a
    thread with no open span (a CLI worker), the current operation's span.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._op_span = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._op))

    @contextmanager
    def operation(self, op_id, name):
        """Span of one benchmark operation; spans opened inside carry its id."""
        self._op = op_id
        try:
            with self.span(name) as sid:
                self._op_span = sid
                yield sid
        finally:
            self._op = self._op_span = None

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - covered([k for k in kids if k[1] > k[0]])
    return out


def _is_wrapper(obj):
    if getattr(obj, _MARK, False):
        return True
    if isinstance(obj, tuple):
        return any(getattr(x, _MARK, False) for x in obj)
    return False


def assert_pristine(modules):
    """Raise if any module attribute is still a benchmark wrapper."""
    left = [f"{m.__name__}.{name}" for m in modules
            for name, obj in vars(m).items() if _is_wrapper(obj)]
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


class Tracer:
    """Installs span and count wrappers on rsheat's module attributes."""

    def __init__(self, modules):
        self.modules = modules
        self.rec = Recorder()
        self._saved = []  # (module, name, original value)

    def _rebind(self, original, wrapper, modules=None):
        """Point every attribute that refers to ``original`` at ``wrapper``.

        Covers plain references and tuples listing the function (the
        acceptance suite's criteria).
        """
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, _MARK, True)
        for mod in modules or self.modules:
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    new = wrapper
                elif isinstance(obj, tuple) and any(x is original for x in obj):
                    new = tuple(wrapper if x is original else x for x in obj)
                else:
                    continue
                self._saved.append((mod, name, obj))
                setattr(mod, name, new)

    def spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            r = self.rec  # read per call: phases swap the recorder
            r.count(name)
            with r.span(name):
                return fn(*args, **kwargs)

        self._rebind(fn, wrapper)

    def counted(self, fn, key, modules=None):
        """Count calls under ``key``, optionally only through ``modules``."""
        def wrapper(*args, **kwargs):
            self.rec.count(key)
            return fn(*args, **kwargs)

        self._rebind(fn, wrapper, modules)

    def integrate(self, fn):
        """Span the engine, span each integrand call, count node evaluations
        (from the result, or from the partial result a ConvergenceError
        carries)."""
        def wrapper(f, *args, **kwargs):
            rec = self.rec

            def integrand(xs):
                with rec.span("quadrature.integrand"):
                    return f(xs)

            rec.count("quadrature.integrate")
            with rec.span("quadrature.integrate"):
                try:
                    res = fn(integrand, *args, **kwargs)
                except Exception as exc:
                    partial = getattr(exc, "partial", None)
                    rec.count("quadrature.evals", getattr(partial, "evaluations", 0))
                    raise
            rec.count("quadrature.evals", res.evaluations)
            return res

        self._rebind(fn, wrapper)

    def restore(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()
