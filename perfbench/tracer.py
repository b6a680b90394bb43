"""Outside-in span tracer.

The tracer replaces functions at the module attributes the program calls
them through (for example ordinalwalk.nullmodels.associated_walk) with
wrappers that record one span per call: layer name, start, end, parent
span and any work counts. The program itself is not edited, and the
originals are put back when tracing ends. A target whose module or
attribute no longer exists is skipped, and a layer none of whose targets
exist is reported as absent rather than failing, so the benchmark keeps
working across refactors of the program.

A span's self time is its duration minus the time its child spans cover.
Calls are sequential on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


class Tracer:
    """Collects spans for calls through a fixed set of wrap targets.

    targets is a sequence of (module, attribute, layer, count) where
    count is None or a function (args, kwargs, result) -> dict of work
    counts to add to the span.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []  # [op, layer, start, end, parent, child_s, counts]
        self._stack: list[int] = []
        self._op = None
        found = {layer for module, attr, layer, _ in self.targets
                 if self._lookup(module, attr)[1] is not None}
        self.absent = sorted({t[2] for t in self.targets} - found)

    @staticmethod
    def _lookup(module, attr):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return None, None
        return mod, getattr(mod, attr, None)

    def _wrap(self, fn, layer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [self._op, layer, time.perf_counter(), None, parent, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[3] - span[2]
            if count is not None:
                try:
                    span[6] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result loses only the count
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace calls made inside the block as operation `op`."""
        self._op = op
        saved = []
        try:
            for module, attr, layer, count in self.targets:
                mod, fn = self._lookup(module, attr)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, layer, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._stack.clear()
            self._op = None

    @property
    def layers(self) -> dict:
        """Per layer: calls, self_s, summed counts, and self_s by parent layer."""
        out: dict = {}
        for op, layer, start, end, parent, child_s, counts in self.spans:
            entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "counts": {},
                                           "self_by_parent": {}})
            self_s = end - start - child_s
            entry["calls"] += 1
            entry["self_s"] += self_s
            caller = self.spans[parent][1] if parent is not None else ""
            by_parent = entry["self_by_parent"]
            by_parent[caller] = by_parent.get(caller, 0.0) + self_s
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out
