"""Spans for the traced benchmark run: recording in the child, arithmetic in the driver.

A span is one call of a public bellfacets function: name ("<module>.<function>"),
start and end (CLOCK_MONOTONIC nanoseconds, shared by all processes), the id of
the span that caused it, and a few counts taken from the result.  Recording
wraps the functions from outside; no file of the library changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("fourier", "symmetry", "enumeration", "polytope", "quantum", "lifting", "catalog", "cli")

# Constant-time helpers called inside hot loops: a span there would time the wrapper.
SKIP = frozenset({"fourier.table_size"})

# Counts read off a call's result, kept on its span.
ANNOTATE = {
    "enumeration.classify": lambda r: {"classes": len(r.canonical_classes)},
    "polytope.certify_tightness": lambda c: {"saturating": c.saturating_count},
    "quantum.seesaw_maximize": lambda r: {"restarts_used": r.restarts_used, "converged": r.converged},
}


class Recorder:
    """In-memory span store; ``dump`` writes it once, when the command ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int | None] = [None]

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        if inspect.isgeneratorfunction(fn):
            # A generator's span lasts until it is exhausted; calls the consumer
            # makes meanwhile count as its children, so sibling spans never overlap.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent, slot, items = self._stack[-1], len(self.spans), 0
                self.spans.append(None)
                self._stack.append(slot + 1)
                start = time.monotonic_ns()
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    self._stack.remove(slot + 1)
                    self.spans[slot] = {"id": slot + 1, "parent": parent, "name": name, "start": start,
                                        "end": time.monotonic_ns(), "attrs": {"items": items}}
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            slot = len(self.spans)
            self.spans.append(None)  # reserve the id so children point at it
            self._stack.append(slot + 1)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.remove(slot + 1)
                span = {"id": slot + 1, "parent": parent, "name": name,
                        "start": start, "end": time.monotonic_ns()}
                self.spans[slot] = span
            if annotate is not None:
                span["attrs"] = annotate(result)
            return result
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s for s in self.spans if s is not None], fh)


def install() -> Recorder:
    """Wrap every public function of every bellfacets module, in every
    bellfacets namespace that binds it (``from .polytope import certify_tightness``
    in ``cli`` included)."""
    recorder = Recorder()
    package = importlib.import_module("bellfacets")
    modules = {name: importlib.import_module(f"bellfacets.{name}") for name in MODULES}
    wrapped: dict[int, object] = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__ or name in SKIP):
                continue
            wrapped[id(obj)] = recorder.wrap(name, obj)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in wrapped:
                setattr(namespace, attr, wrapped[id(obj)])
    return recorder


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span id: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
