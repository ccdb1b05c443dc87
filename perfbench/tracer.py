"""Spans around pglambda's public functions, installed from outside the program.

`install` replaces every public function of the traced modules (the names
in a module's ``__all__``, or its names without a leading underscore) with
a wrapper that records a span: (call id, name, start, end, parent span,
exception name).  The replacement is made in every loaded pglambda module
that imported the function by name, so calls across modules are seen too.
Spans stay in memory until `self_times` and `write` run at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("groups", "powergraph", "construct", "labelling", "suites", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.call_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.call_id, name, start, end, parent, error)

        return traced

    def install(self, package: str = "pglambda") -> int:
        """Wrap the public functions of TRACED_MODULES; returns how many were wrapped."""
        replaced = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for name in names:
                fn = getattr(module, name, None)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    replaced[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return len(replaced)

    def self_times(self) -> list[tuple[str, float, str | None]]:
        """(name, self seconds, exception name) per span: duration minus its children's.

        Read only after every traced call has returned, when no span is open.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[1], s[3] - s[2] - child[i], s[5]) for i, s in enumerate(self.spans)]

    def write(self, path: str) -> None:
        """One JSON array per line: call id, name, start, end, parent, exception."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
