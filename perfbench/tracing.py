"""Spans around every call into a layer of the package.

A layer is one module of the package.  Tracer.install() replaces, in
every loaded module of the package, each imported public function of
another layer with a wrapper that records a span; calls inside one
module stay unwrapped.  numerics, errors and rivals are helpers inside
the layers that call them, so their time counts as the caller's.  Spans
are kept in memory as lists and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "estimators", "permkit", "permtest", "calibrate", "power",
          "simharness")
PACKAGE = "clusterperm"

# span fields
OP, SPAN, PARENT, LAYER, NAME, START, END, ERROR = range(8)


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    pkg, _, layer = module.partition(".")
    return layer if pkg == PACKAGE and layer in LAYERS else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches = []
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in vars(module).items():
                layer = _layer_of(obj) if inspect.isfunction(obj) else None
                if (layer is None or name.startswith("_")
                        or obj.__module__ == mod_name):
                    continue
                self._patches.append((module, name, obj,
                                      self.wrap(layer, obj)))

    def wrap(self, layer: str, fn):
        """fn, recording a span named after it in the given layer."""
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)
        return traced

    def call(self, layer, name, fn, args, kwargs):
        span = [self.op_id, len(self.spans),
                self._stack[-1] if self._stack else None,
                layer, name, time.perf_counter(), None, False]
        self.spans.append(span)
        self._stack.append(span[SPAN])
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (one thread), so their
    durations add up without overlap.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
