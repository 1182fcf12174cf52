"""Span recording around the package's public functions, from outside it.

A :class:`Recorder` patches each traced function under every name a module
of the package binds it to (``coverentropy._kernels.scan_assignments``,
``coverentropy.weighted.minimizing_assignment``, the package re-exports, and
so on), because callers look functions up in their own module's globals.
``restore`` puts the originals back.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, op, count]`` lists and only written out
when the run ends.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, COUNT = range(6)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name``; ``count(result)`` is kept."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if count is not None:
                rec.spans[idx][COUNT] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, fn, name: str, count=None, package: str = "coverentropy") -> int:
        """Replace ``fn`` under every module attribute of ``package`` bound to it."""
        wrapper = self.wrap(name, fn, count)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))
                    hits += 1
        if not hits:
            raise LookupError(f"{name}: no module of {package} binds {fn!r}")
        return hits

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._patched.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def duration(span) -> int:
    return span[END] - span[START]


def children_index(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            kids[s[PARENT]].append(i)
    return kids


def covered_ns(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(spans, kids, i: int) -> int:
    """Duration of span ``i`` minus the part its direct children cover."""
    s = spans[i]
    inner = [(spans[c][START], spans[c][END]) for c in kids.get(i, ())]
    return duration(s) - covered_ns(inner)


def has_ancestor(spans, i: int, names) -> bool:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def outermost(spans, names) -> list[int]:
    """Spans named in ``names`` that are not nested in another such span."""
    names = set(names)
    return [i for i, s in enumerate(spans)
            if s[NAME] in names and not has_ancestor(spans, i, names)]
