"""Span tracing of calls that cross into padicqm modules, from outside ``src/``.

A *crossing* is a module-level function of a padicqm module that some
other namespace also binds: another padicqm module, the package
``__init__``, a module-level dict such as ``verify.CHECKS``, or the
benchmark's own workload module.  The tracer rebinds every name that
holds such a function -- in the defining module too, so that calls made
inside a module (``finite_n_propagator`` -> ``compose_kernels``) and
function-local imports are seen -- and restores every binding on exit.

Methods and classes (``Amplitude.render``, ``PadicTruncation.__mul__``,
dataclass constructors) are not rebound; their time counts as the self
time of the traced function that called them.

Spans are kept in flat arrays while tracing and written out at the end.
A span's self time is its duration minus the durations of its direct
children; self times therefore partition the root spans exactly.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "padicqm"
ROOT_SPAN = "bench.request"


def _namespaces(extra_modules) -> list[dict]:
    """Module dicts of the package and of ``extra_modules``, plus the
    module-level dicts they hold that map names to functions."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    modules += list(extra_modules)
    spaces: list[dict] = []
    for module in modules:
        ns = vars(module)
        spaces.append(ns)
        for key, value in ns.items():
            if (not key.startswith("__") and isinstance(value, dict)
                    and any(inspect.isfunction(v) for v in value.values())):
                spaces.append(value)
    return spaces


def crossing_bindings(extra_modules=()) -> dict:
    """Map each crossing function to the (namespace, key) pairs that hold it."""
    holders: dict = {}
    for ns in _namespaces(extra_modules):
        for key, value in ns.items():
            if (inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE + ".")
                    and not hasattr(value, "__perfbench_traced__")):
                holders.setdefault(value, []).append((ns, key))
    crossing = {}
    for fn, places in holders.items():
        home = vars(sys.modules[fn.__module__])
        if any(ns is not home for ns, _ in places):
            crossing[fn] = places
    return crossing


def span_name(fn) -> str:
    """``<module>.<function>`` without the package prefix, e.g. ``places.valuation``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per call of each crossing function while installed.

    ``only`` restricts interception to the named spans.  ``hooks`` maps a
    span name to ``hook(counters, args, kwargs)``, called before the
    traced function runs, for counts read from its arguments.
    """

    def __init__(self, extra_modules=(), only=None, hooks=None):
        self._extra = tuple(extra_modules)
        self._only = None if only is None else frozenset(only)
        self._hooks = dict(hooks or {})
        self.names: list[str] = [ROOT_SPAN]
        self.name_of = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._request = -1
        self._saved: list[tuple[dict, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_request(self, index: int, fn, *args):
        """Run ``fn(*args)`` as request ``index`` under a root span."""
        self._request = index
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._request = -1

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        open_span, close_span, errors = self._open, self._close, self.errors
        hook = self._hooks.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counters, args, kwargs)
            idx = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                close_span(idx)
            return result

        traced.__perfbench_traced__ = True
        return traced

    # -- installation -------------------------------------------------

    def __enter__(self) -> Tracer:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for fn, places in crossing_bindings(self._extra).items():
            name = span_name(fn)
            if self._only is not None and name not in self._only:
                continue
            wrapper = self._wrap(fn, name)
            for ns, key in places:
                self._saved.append((ns, key, fn))
                ns[key] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for ns, key, fn in reversed(self._saved):
            ns[key] = fn
        self._saved.clear()

    # -- analysis -----------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, and inclusive seconds of
        outermost calls (nested calls of the same name are not re-added)."""
        selfs = self.self_times()
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        names, name_of, parent = self.names, self.name_of, self.parent
        for i, s in enumerate(selfs):
            entry = stats[names[name_of[i]]]
            entry["calls"] += 1
            entry["self_s"] += s
            p = parent[i]
            if p < 0 or name_of[p] != name_of[i]:
                entry["total_s"] += self.end[i] - self.start[i]
        return stats

    def calls_per_request(self, name: str) -> Counter:
        if name not in self.names:
            return Counter()
        name_id = self.names.index(name)
        return Counter(r for r, n in zip(self.request, self.name_of) if n == name_id)

    def escaped_errors(self, layer: str, error: str) -> int:
        """Spans of ``layer`` that raised ``error`` to a caller outside the layer."""
        count = 0
        for idx, kind in self.errors.items():
            if kind != error or not self.names[self.name_of[idx]].startswith(layer + "."):
                continue
            p = self.parent[idx]
            if p < 0 or not self.names[self.name_of[p]].startswith(layer + "."):
                count += 1
        return count

    def write(self, path) -> None:
        """Write every span as a tab-separated row, times in microseconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_us\tend_us\terror\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{self.names[self.name_of[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\t"
                    f"{self.errors.get(i, '')}\n"
                )
