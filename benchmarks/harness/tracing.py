"""In-memory spans around the package's layer functions.

A span is (name, start, end, parent).  The wrappers replace a function in
every module that binds it, because `from .products import orthocomplement`
gives the importing module its own reference: patching the defining module
alone would miss those callers.  Methods and callback attributes are patched
on their owner, which every caller reaches.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """fn inside a span; note(result) is kept with the span when given."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.notes[idx] = note(result)
            return result

        return traced

    def arrays(self):
        """(name, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end
        )


def self_times(parent, start, end):
    """Each span's duration minus the time its child spans cover.

    Spans come from one call stack, so a span's children are disjoint and lie
    inside it: the covered time is the sum of their durations.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end) - np.asarray(start)
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def _package_modules(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer: Tracer, targets, package: str = "qlocc"):
    """Wrap each target; returns (restore callable, names that were absent).

    targets: iterable of (span name, module name, attribute path, note).  A
    one-part path names a function, wrapped under every name any package
    module binds it to; a dotted path names an attribute of an owner object
    (a method on a class, a callback on a command), wrapped on that owner.
    """
    patches = []
    absent = []
    modules = _package_modules(package)
    for span, module_name, path, note in targets:
        try:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(span)
            continue
        wrapped = tracer.wrap(original, span, note)
        bindings = [(owner, attr)]
        if not owner_path:
            bindings = [
                (m, key) for m in modules for key, val in vars(m).items() if val is original
            ]
        for o, key in bindings:
            patches.append((o, key, original))
            setattr(o, key, wrapped)

    def restore():
        for o, attr, original in reversed(patches):
            setattr(o, attr, original)

    return restore, absent
