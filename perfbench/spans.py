"""Span tracing of the trigreg layers from outside the package.

The tracer wraps the public functions of each package module (every
function named in the module's ``__all__``, plus ``cli.main``) and, while a
command is being traced, rebinds each of those names in every ``trigreg.*``
namespace that holds it, so calls made through ``from .grid import
analyze``-style imports are caught too.  Outside ``recording`` the package
runs with its own functions and pays nothing.

A span is (id, op, name, start, end, parent).  Spans stay in memory and are
written out once the run ends.  Self time is a span's duration minus the
time its child spans cover; the package is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "trigreg"
LAYERS = ("grid", "penalty", "approximant", "selection", "experiment", "cli")


def _public_functions(module, layer: str) -> dict:
    names = ("main",) if layer == "cli" else getattr(module, "__all__", ())
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Wraps the layer functions of an imported ``trigreg`` package."""

    def __init__(self):
        functions = {}
        for layer in LAYERS:
            functions.update(_public_functions(importlib.import_module(f"{PACKAGE}.{layer}"), layer))
        self.names = sorted(functions)
        self.spans = []
        self.computed_bytes = defaultdict(int)  # op -> bytes of basis matrices built
        self._stack = []
        self._op = None
        wrappers = {id(func): self._wrap(name, func) for name, func in functions.items()}
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value, wrappers[id(value)]))

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        counts_bytes = name == "grid.basis_matrix"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, self._op, name, start, end, parent)
            if counts_bytes:
                rows, cols = result.shape
                self.computed_bytes[self._op] += rows * cols * 8
            return result

        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Route every call into the layers through the wrappers, tagged ``op``."""
        self._op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._op = None

    def self_times(self) -> dict:
        """Per function: (calls, total self seconds) over every recorded span."""
        child = defaultdict(float)
        for sid, _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, busy = defaultdict(int), defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            calls[name] += 1
            busy[name] += (end - start) - child[sid]
        return {name: (calls[name], busy[name]) for name in self.names}

    def write_spans(self, path: str, origin: float):
        with open(path, "w") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
