"""Per-layer tracing of the choqrisk package, applied from outside.

The tracer wraps every public function and every public method of the
public classes in each layer module (the layers are the package modules),
and rebinds every name under which another ``choqrisk`` module imported
them with ``from .x import y``.  Nothing under ``src/`` changes; calling
``uninstall`` puts the original objects back.

A call counts as entering a layer when the caller runs in another layer or
in the benchmark itself.  Calls that stay inside one layer are counted but
not timed separately: their time already belongs to the span that entered
the layer.  A layer's self time is the time of its entering spans minus the
time of the child spans they opened in other layers.

Aggregates are kept per (layer, function) in memory.  Spans are kept only
for benchmark-level operations (``span``), because one span per library
call would mean millions of them on the sweep.  ``dump`` writes everything
out at the end of a run.

Known blind spots: properties and dunder methods other than the two traced
constructors are not wrapped (so ``x * b`` on a RandomVariable runs under its
caller's layer), and the body of a generator function runs under whichever
layer iterates it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "choqrisk"
LAYERS = (
    "capacity",
    "integral",
    "utility",
    "weighting",
    "premium",
    "theorems",
    "sampling",
    "io",
    "cli",
)

# Constructors traced as layer entries (through their validating
# ``__post_init__``) and counted: the validated capacity tables and the random
# variables that every integral evaluation consumes.
BUILD_COUNTERS = {
    ("capacity", "Capacity"): "capacity.builds",
    ("integral", "RandomVariable"): "integral.rv_builds",
}


class LayerTracer:
    def __init__(self):
        self.stack: list[list] = []  # one [layer, child_seconds] frame per open layer span
        self.fn_stats: dict[tuple[str, str], list] = {}  # -> [entries, calls, self_s]
        self.spans: list[dict] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, layer: str, name: str, fn):
        stats = self.fn_stats.setdefault((layer, name), [0, 0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats[1] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer and rebind the names other choqrisk modules imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._timed(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    self._set(mod, name, wrapper)

    def _wrap_class(self, layer: str, cls):
        if (layer, cls.__name__) in BUILD_COUNTERS:
            self._set(cls, "__post_init__",
                      self._timed(layer, f"{cls.__name__}.__post_init__", cls.__dict__["__post_init__"]))
        for attr, val in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self._timed(layer, qual, val))
            elif isinstance(val, (staticmethod, classmethod)):
                self._set(cls, attr, type(val)(self._timed(layer, qual, val.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- benchmark-level spans -------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._open_spans[-1] if self._open_spans else None
        root = self.spans[parent]["root"] if parent is not None else len(self.spans)
        record = {"id": len(self.spans), "parent": parent, "root": root, "name": name,
                  "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._open_spans.pop()

    # -- results -------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        return {name: self.fn_stats.get((layer, f"{cls}.__post_init__"), [0, 0])[1]
                for (layer, cls), name in BUILD_COUNTERS.items()}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _), (entries, _, self_s) in self.fn_stats.items():
            totals[layer]["calls"] += entries
            totals[layer]["self_s"] += self_s
        return totals

    def dump(self, path, extra: dict | None = None):
        doc = {
            "layers": self.layer_totals(),
            "counters": self.counters,
            "functions": [
                {"layer": layer, "function": name, "entries": e, "calls": c, "self_s": s}
                for (layer, name), (e, c, s) in sorted(self.fn_stats.items(), key=lambda kv: -kv[1][2])
            ],
            "spans": self.spans,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
