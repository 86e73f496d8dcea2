"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every public function a relusynth module defines,
and the JSON methods of the network, function and report types, in every
relusynth module that binds the same object (modules import each other's
names with ``from .x import y``), and ``uninstall`` puts the originals
back.  Spans (name, start, end, parent, op) are kept in memory; a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("core", "simplex", "arrangement", "ordering", "bundles", "shallow",
           "deep", "affine", "randmat", "cli", "report")
JSON_METHODS = {
    "core.Network": ("to_json", "to_json_dict", "from_json", "from_json_dict"),
    "core.DiscretePWL": ("to_json", "to_json_dict", "from_json", "from_json_dict"),
    "report.ConstructionReport": ("to_json", "to_json_dict", "from_json", "from_json_dict"),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []            # span name table
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")       # index of the op span each span belongs to
        self.stack = []
        self.counts = {}           # extra counters measured at span boundaries
        self._patches = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name):
        idx = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op[self.stack[0]] if self.stack else idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key, value=1.0):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    # -- installation --------------------------------------------------
    def install(self):
        mods = [getattr(self.package, m) for m in MODULES]
        namespaces = mods + [self.package]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound, val in list(vars(ns).items()):
                        if val is obj:
                            self._patches.append((ns, bound, obj))
                            setattr(ns, bound, wrapper)
        for qual, methods in JSON_METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(getattr(self.package, short), cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(f"{qual}.{meth}", fn)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------
    def totals(self):
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = dur - child
        out = {}
        for i, nm in enumerate(self.names):
            sel = name == i
            out[nm] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                       "self_s": float(self_t[sel].sum())}
        return out

    def dump(self, path):
        """Write every span, columnar, as JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.span_name),
                "start_s": [round(t - t0, 9) for t in self.start],
                "end_s": [round(t - t0, 9) for t in self.end],
                "parent": list(self.parent),
                "op": list(self.op),
                "counts": self.counts,
            }, fh)


def _count_separable(tracer, args, result):
    tracer.count("separate.separable", 1.0 if result.separable else 0.0)


def _count_flops(tracer, args, result):
    net, X = args[0], args[1]
    points = np.asarray(X).shape[0]
    tracer.count("forward_batch.flop",
                 sum(2.0 * layer.units * layer.fan_in * points for layer in net.layers))


_HOOKS = {
    "ordering.separate": _count_separable,
    "core.forward_batch": _count_flops,
}
