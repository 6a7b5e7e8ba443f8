"""Outside-in span tracer for the qmwis layers.

install() rebinds, in every loaded qmwis module, each global that is one of
the traced function objects, and rebinds traced methods on their class, so
internal calls between modules are timed too. A span records its name,
start, end and the span open when it began (its parent). Spans are kept in
compact arrays while the run lasts and reduced to per-layer totals at the
end. A traced function that cannot be found is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable

from layers import HIT_SPANS, ORACLE_SPANS, SPANS


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ids = array("H")
        self.hits: list[int] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.hits.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, timed as a span called name."""
        ident = self._id(name)
        count_hits = name in HIT_SPANS
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.ids
        hits, stack, now = self.hits, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ends)
            parents.append(stack[-1])
            ids.append(ident)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if count_hits and result is not None:
                hits[ident] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function found in the loaded qmwis modules."""
        for name in ORACLE_SPANS:
            self._id(name)
        modules = [m for key, m in list(sys.modules.items()) if key == "qmwis" or key.startswith("qmwis.")]
        for name, targets in SPANS.items():
            found = False
            for module_name, attr in targets:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if not callable(original):
                    continue
                found = True
                traced = self.wrap(name, original)
                if path:
                    self._rebind(owner, leaf, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, traced)
            if not found:
                self.absent.append(name)

    def _rebind(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def mark(self) -> int:
        """The index the next span will get; spans of a call lie between two marks."""
        return len(self.ends)

    def self_times(self) -> array:
        """Per span: its duration minus the durations of its child spans, in ns."""
        result = array("q", (e - s for s, e in zip(self.starts, self.ends)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                result[p] -= self.ends[i] - self.starts[i]
        return result

    def top_level_ns(self, lo: int, hi: int) -> int:
        """Summed duration of the spans in [lo, hi) that have no parent."""
        s, e, p = self.starts, self.ends, self.parents
        return sum(e[i] - s[i] for i in range(lo, hi) if p[i] < 0)

    def totals(self, scale: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (times scale) and, for HIT_SPANS, hit_ratio."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for ident, own in zip(self.ids, self.self_times()):
            calls[ident] += 1
            self_ns[ident] += own
        out = {}
        for ident, name in enumerate(self.names):
            row: dict[str, float] = {"calls": calls[ident], "self_s": self_ns[ident] / 1e9 * scale}
            if name in HIT_SPANS:
                row["hit_ratio"] = self.hits[ident] / calls[ident] if calls[ident] else 0.0
            out[name] = row
        return out
