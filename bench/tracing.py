"""Spans around calls into normcov's public functions, recorded from outside.

``Tracer.install`` wraps every callable in each normcov module's ``__all__``
and the public methods of its public classes, and rebinds the wrapper at
every place a normcov module or the package binds the original, because
``from .x import f`` copies the binding. Spans stay in memory until
``dump``. ``aggregate`` turns the spans of a pass into per-layer metrics.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from time import perf_counter

MODULES = ("numtheory", "cycle_types", "permgroup", "subgroups", "coverings", "bounds", "cli")

# Functions whose result size is a work count worth summing.
ITEM_COUNTS = {
    "cycle_types.partitions": len,
    "permgroup.closure": lambda g: g.order,
}

# class_coverage spans are split by the kind of descriptor they cover.
KIND_SPLIT = "subgroups.class_coverage"
KIND_NAMES = {
    "Intransitive": "intransitive",
    "Imprimitive": "imprimitive",
    "IntersectAlt": "intersect_alt",
    "NamedGroup": "named",
    "FullAlternating": "alternating",
}


class Tracer:
    """One per process. A span is (id, label, start, end, parent id, op id, items)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label: str, fn):
        count = ITEM_COUNTS.get(label)
        split = label == KIND_SPLIT
        spans, ids, tracer = self.spans, self._ids, self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread's first span belongs to the span that submitted the
            # work, which is the innermost open span of the main thread.
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            name = label
            if split and args:
                name = f"{label}.{KIND_NAMES.get(type(args[0]).__name__, 'other')}"
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append((sid, name, start, end, parent, tracer.op, count(result) if count else 0))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self) -> None:
        pkg = importlib.import_module("normcov")
        mods = {m: importlib.import_module(f"normcov.{m}") for m in MODULES}
        replace: dict[int, tuple] = {}
        for short, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(f"{short}.{name}", obj)
                elif callable(obj):
                    replace[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(f"{prefix}.{name}", raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(f"{prefix}.{name}", raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", raw))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Calls, self seconds and item counts per label, plus self seconds per module.

    A span's self time is its duration minus the part of it that its child
    spans cover, so children running on pool threads are not counted twice.
    """
    # Span ids are unique within one process, and each CLI operation has its own.
    by_id = {(s[5], s[0]): s for s in spans}
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for _, _, start, end, parent, op, _ in spans:
        p = by_id.get((op, parent))
        if p is not None:
            children.setdefault((op, parent), []).append((max(start, p[2]), min(end, p[3])))
    out: dict[str, float] = {}
    for sid, label, start, end, _, op, items in spans:
        self_s = (end - start) - _union_length(children.get((op, sid), []))
        module = label.split(".", 1)[0]
        for key, value in (
            (f"{label}.self_s", self_s),
            (f"{label}.calls", 1),
            (f"{label}.items", items),
            (f"{module}.self_s", self_s),
        ):
            out[key] = out.get(key, 0) + value
        if label.startswith(KIND_SPLIT + "."):
            out[f"{KIND_SPLIT}.calls"] = out.get(f"{KIND_SPLIT}.calls", 0) + 1
    return out
