"""Spans around every public function of the ``ecpc`` modules, from outside.

The library binds functions by name across modules (``from .glm import
fit_weighted_ridge``), so wrapping one module attribute would miss the calls
made through the others.  :class:`Tracer` wraps each function object once and
rebinds every ``ecpc.*`` module attribute that refers to that object, and
:meth:`Tracer.uninstall` puts every original back.  Spans stay in memory;
the runner writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "ecpc"
LAYERS = ("codata", "glm", "mom", "hypershrinkage", "estimator", "selection", "cli")


class Tracer:
    """Records ``[name, start, end, parent, run_id]`` spans in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _union_length(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_table(spans):
    """Per span name: inclusive busy seconds, self seconds and call count.

    Inclusive time is the union of the name's spans, so a function nested in
    itself is not counted twice.  Self time is a span's duration minus the
    part of it that its child spans cover.
    """
    children: dict[int, list] = {}
    for _name, start, end, parent, _run in spans:
        children.setdefault(parent, []).append((start, end))
    table: dict[str, dict] = {}
    by_name: dict[str, list] = {}
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _union_length(children.get(i, []))
        by_name.setdefault(name, []).append((start, end))
    for name, intervals in by_name.items():
        table[name]["s"] = _union_length(intervals)
    return table


def has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
