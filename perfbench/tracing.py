"""Spans around every call into the package, for the traced run only.

`Tracer.install` wraps each public module-level function of every
fpharmonics module (plus `FieldCtx.grid` and the private
`ramsey._lambda_direct`, the lambda_T oracle) and rebinds the wrapper in
every package namespace that holds the function: the modules import one
another's functions by name, so `counting` and `regularity` each hold
their own `norm_qm`. A wrapper records a span only while a job is open,
so input generation and bookkeeping outside jobs leave no trace.

A span is (name, layer, start, end, parent, job), layer being the
defining module. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "fpharmonics"
MODULES = ("field", "harmonic", "counting", "charsums", "qm", "regularity",
           "search", "ramsey", "calibration", "cli")
PRIVATE_TARGETS = {("ramsey", "_lambda_direct")}
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "job")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


class Tracer:
    """Collects spans in memory; `install`/`uninstall` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list = []
        self.job = None          # id of the open job, None between jobs
        self._stack: list = []
        self._undo: list = []
        self.originals: dict = {}  # (layer, name) -> unwrapped function

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, job)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or (layer, name) in PRIVATE_TARGETS
                if public and _is_function(obj) and obj.__module__ == mod.__name__:
                    self.originals[(layer, name)] = obj
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for ns in modules + [importlib.import_module(PACKAGE)]:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)][1])
        field_ctx = importlib.import_module(f"{PACKAGE}.field").FieldCtx
        self._undo.append((field_ctx, "grid", field_ctx.grid))
        field_ctx.grid = self._wrap(field_ctx.grid, "field", "grid")

    def uninstall(self) -> None:
        while self._undo:
            ns, name, obj = self._undo.pop()
            setattr(ns, name, obj)

    def stats(self) -> tuple:
        """({(layer, name): [calls, self_s, inclusive_s]}, seconds inside top-level spans)."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        top = 0.0
        for i, (name, layer, start, end, parent, job) in enumerate(self.spans):
            row = table.setdefault((layer, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += end - start
            if parent < 0:
                top += end - start
        return table, top

    def write(self, path, t0: float) -> None:
        """Spans as JSON lines, times in seconds from t0."""
        with open(path, "w") as fh:
            for name, layer, start, end, parent, job in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, (
                    name, layer, round(start - t0, 7), round(end - t0, 7), parent, job))))
                         + "\n")
