"""In-memory span recorder for the benchmark's traced runs.

A span is one call across a module boundary: its name (the binding that
was called, ``module.attribute``), the layer it belongs to (the callee's
defining module and name), start and end on ``time.perf_counter``, the
span that was open when it started, and the op it belongs to.  Spans are
kept in flat arrays while the run lasts and written out once, when it ends.

The program is not edited: :meth:`Tracer.patched` replaces the named
attributes of the calling modules with timing wrappers and puts the
originals back on exit, so ops run outside it execute unmodified code.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, boundaries):
        """``boundaries`` lists ``(module, attribute)`` pairs to wrap.

        An optional third item is a predicate on the call's result; spans
        whose call it holds for are marked in :attr:`hit`.
        """
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._span_ids: dict[str, tuple] = {}
        self._patches = []
        for module, attr, *outcome in boundaries:
            original = getattr(module, attr)
            name = f"{module.__name__}.{attr}"
            wrapped = self._wrap(original, name, outcome[0] if outcome else None)
            self._patches.append((module, attr, original, wrapped))

    def _new_name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _recorder(self, nid: int):
        """``(open, close)`` for spans named ``nid``, with every attribute
        looked up once: a traced op makes 1e5 or more spans."""
        stack = self._stack
        name_id, parent, op = self.name_id.append, self.parent.append, self.op.append
        start, end, hit = self.start.append, self.end, self.hit
        clock = time.perf_counter

        def open_() -> int:
            i = len(end)
            name_id(nid)
            parent(stack[-1] if stack else -1)
            op(self.op_id)
            end.append(0.0)
            hit.append(0)
            stack.append(i)
            start(clock())
            return i

        def close(i: int) -> None:
            end[i] = clock()
            stack.pop()

        return open_, close

    def _wrap(self, fn, name, outcome):
        open_, close = self._recorder(
            self._new_name(name, f"{fn.__module__}.{fn.__qualname__}")
        )
        hit = self.hit

        def traced(*args, **kwargs):
            i = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if outcome is not None and outcome(result):
                hit[i] = 1
            return result

        return traced

    @contextmanager
    def patched(self, op_id: int):
        """Trace every boundary while the block runs, as part of op ``op_id``
        (-1 for set-up)."""
        self.op_id = op_id
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self.op_id = -1

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the benchmark's own code."""
        recorder = self._span_ids.get(name)
        if recorder is None:
            recorder = self._span_ids[name] = self._recorder(self._new_name(name, layer))
        open_, close = recorder
        i = open_()
        try:
            yield
        finally:
            close(i)

    def table(self) -> dict[str, np.ndarray]:
        """The spans as arrays, with ``self`` = duration minus the time of
        direct children (calls are sequential, so children never overlap)."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "hit": np.array(self.hit, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def _sums(self, keep=None) -> dict[str, np.ndarray]:
        """Per name id: calls, total and self seconds, and outcome hits of
        the spans selected by the boolean mask ``keep`` (all by default)."""
        t = self.table()
        if keep is not None:
            t = {k: v[keep(t)] for k, v in t.items()}
        n, ids = len(self.names), t["name_id"]
        return {
            "calls": np.bincount(ids, minlength=n),
            "total_s": np.bincount(ids, weights=t["dur"], minlength=n),
            "self_s": np.bincount(ids, weights=t["self"], minlength=n),
            "hits": np.bincount(ids, weights=t["hit"], minlength=n),
        }

    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per layer: calls, total and self seconds, and outcome hits, summed
        over the spans of the given op ids."""
        ops = np.asarray(list(ops), dtype=np.int64)
        return self._group(self.layers, self._sums(lambda t: np.isin(t["op"], ops)))

    def span_summary(self) -> list[dict]:
        """Per span name, over all ops and set-up: calls, total and self time."""
        rows = self._group(self.names, self._sums())
        return sorted(
            ({"name": name, **row} for name, row in rows.items()),
            key=lambda r: -r["self_s"],
        )

    @staticmethod
    def _group(keys: list[str], sums: dict[str, np.ndarray]) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for nid, key in enumerate(keys):
            row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
            for field, values in sums.items():
                row[field] += type(row[field])(values[nid])
        return out

    def save(self, path) -> None:
        t = self.table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **{k: t[k] for k in ("name_id", "op", "parent", "start", "end")},
        )
