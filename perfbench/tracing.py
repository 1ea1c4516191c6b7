"""Span tracer installed from outside the package.

Every public function of the measured modules is replaced by a wrapper,
both in the module that defines it and in every package module that
imported it by name, so that calls inside the package (for example
lattice_index -> inertia_bunch_kaufman -> min_abs_eigenvalue) are timed
without touching the source.

Spans nest per thread.  A span that opens with an empty stack on a
worker thread is attached to the innermost open span of the main thread
(the thread pool of `wilsonindex sweep` runs while its caller waits), so
the pool's work stays attributed to the CLI span that started it.  A
span's self time is its duration minus the length of the union of its
children's intervals, which stays correct when children overlap.

Spans are aggregated as they close (count, total and self seconds per
name) and kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

MEASURED = ("gauge", "wilson", "spectral", "ktheory", "formats", "cli")
# modules whose namespaces may hold imported references to measured functions
NAMESPACES = ("wilsonindex", "wilsonindex.clifford", "wilsonindex.gauge",
              "wilsonindex.wilson", "wilsonindex.spectral",
              "wilsonindex.ktheory", "wilsonindex.formats",
              "wilsonindex.cli", "wilsonindex.selftest")


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "tag")

    def __init__(self, name, parent, tag=None):
        self.name = name
        self.parent = parent
        self.children = []
        self.tag = tag
        self.start = time.perf_counter()
        self.end = None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _shape0(x):
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 0


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Collects spans and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patched = []  # (namespace, attribute, original)

    # -- spans ---------------------------------------------------------

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _open(self, name, tag):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        else:
            parent = None
        span = Span(name, parent, tag)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        dur = span.end - span.start
        own = dur - union_length(span.children, span.start, span.end)
        with self._lock:
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))
            self.calls[span.name] += 1
            self.total_s[span.name] += dur
            self.self_s[span.name] += own

    # -- counters taken at the layer boundaries -------------------------

    def _count(self, span, args, kwargs, result):
        name, c = span.name, self.counts
        module = name.split(".", 1)[0]
        if module == "spectral" and args:
            c["spectral.dim_max"] = max(c["spectral.dim_max"], _shape0(args[0]))
        if name == "spectral.min_abs_eigenvalue":
            parent = span.parent
            if span.tag == "iterative":
                c["spectral.gap_iterative_calls"] += 1
            elif parent is not None and parent.name == name and parent.tag == "iterative":
                c["spectral.gap_fallbacks"] += 1
        elif name == "wilson.assemble":
            c["wilson.dim"] = max(c["wilson.dim"], result.dim)
            c["wilson.nnz"] += result.matrix.nnz
        elif name == "ktheory.symbol_degree":
            d = args[0]
            res = kwargs.get("resolution", args[2] if len(args) > 2 else 8)
            c["ktheory.newton_seeds"] += res ** d + (2 * res) ** d
        elif module == "formats":
            # read_*(path) and write_*(obj, path): bytes read or written
            pos = 1 if name.startswith("formats.write_") else 0
            c["formats.bytes"] += _file_size(kwargs["path"] if "path" in kwargs else args[pos])
        elif name in ("cli.cmd_sweep", "cli.cmd_index"):
            path = getattr(args[0], "out", None) or getattr(args[0], "csv", None)
            size = _file_size(path)
            if size:
                with open(path) as fh:
                    c["cli.rows"] += max(0, sum(1 for _ in fh) - 1)
        if module == "gauge" and (span.parent is None or not span.parent.name.startswith("gauge.")):
            field = result if hasattr(result, "links") else next(
                (a for a in args if hasattr(a, "links")), None)
            if field is not None:
                c["gauge.links"] += field.links.size

    # -- installation ----------------------------------------------------

    def _wrap(self, qualname, fn):
        tracer = self
        tagged = qualname == "spectral.min_abs_eigenvalue"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            if tagged:
                tag = kwargs.get("method", args[1] if len(args) > 1 else "bisection")
            span = tracer._open(qualname, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._count(span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import importlib

        spaces = [importlib.import_module(n) for n in NAMESPACES]
        replace = {}
        for short in MEASURED:
            mod = importlib.import_module(f"wilsonindex.{short}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for ns in spaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        return self

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(module + "."))

    def function_self_s(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)
