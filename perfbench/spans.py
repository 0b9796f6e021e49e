"""In-memory spans, and the wrappers that make chunkfuse emit them.

A span is ``[name, start, end, parent, doc, rows]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``doc`` the document key
the harness set, and ``rows`` the rows an encoder entry call returned.
The harness records its own steps (``doc.memory``, ``doc.decode``, ...)
in every run. The traced run also wraps each public function of the
traced modules at every attribute where a caller looks it up, so spans
nest from harness step to pipeline to encoder to numerics without any
change under ``src/``. Span names are ``<module>.<function>``; metrics
aggregate by the module part, so renaming a function keeps them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager

TRACED_MODULES = ("cli", "pipeline", "segmenter", "encoder", "cumulation",
                  "numerics", "decoder")
# entry calls into this module get a row count and, in the memory pass,
# a tracemalloc peak
ENCODER = "encoder"


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def count_rows(result) -> int | None:
    """Rows an encoder call returned (one encoding or a list); None if not sized."""
    items = result if isinstance(result, (list, tuple)) else [result]
    try:
        return sum(len(item) for item in items)
    except TypeError:
        return None


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.doc = "setup"
        self.peaks: list[int] = []   # encoder entry peaks, bytes, memory pass only
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.doc, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _parent_module(self) -> str:
        return module_of(self.spans[self._stack[-1]][0]) if self._stack else ""

    def _wrap(self, name: str, fn):
        module = module_of(name)
        counted = module == ENCODER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = counted and self._parent_module() != module
            measure_peak = entry and tracemalloc.is_tracing()
            if measure_peak:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure_peak:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - before)
            if entry:
                self.spans[idx][5] = count_rows(result)
            return result

        return wrapper

    def install(self, package: str = "chunkfuse") -> None:
        """Wrap public functions of the traced modules wherever they are bound."""
        if self._undo:
            return
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        holders = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _doc, _rows in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_n, start, end, *_), c in zip(spans, child)]


def step_of(spans: list[list]) -> list[str]:
    """Name of each span's nearest harness step (a ``doc.``/``check.`` span)."""
    out: list[str] = []
    for name, _s, _e, parent, _d, _r in spans:
        if module_of(name) in ("doc", "check", "setup"):
            out.append(name)
        else:
            out.append(out[parent] if parent >= 0 else "")
    return out
