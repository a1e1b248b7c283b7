"""Tracing from outside the program: in-memory spans and a timing store proxy.

Spans are kept in flat arrays while the run measures and are written out
once, after it ends. Every span carries the run's trace id, its name, its
start and end (``time.perf_counter`` seconds) and the index of its parent.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

perf_counter = time.perf_counter

# Span names used by the benchmark; store-call spans come from StoreProbe.
QUERY = "store.coverage_count"
MARK = "store.mark_covered"


class Tracer:
    """Spans of one benchmark run, one trace id, held in memory."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    @property
    def current(self) -> int:
        return self._open[-1]

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        self.name_of.append(self._name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    @contextmanager
    def span(self, name: str):
        sid = self.record(name, perf_counter(), 0.0, self._open[-1])
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.end[sid] = perf_counter()

    def spans(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name_of) if n == nid]

    def name(self, sid: int) -> str:
        return self._names[self.name_of[sid]]

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for sid, parent in enumerate(self.parent):
            out.setdefault(parent, []).append(sid)
        return out

    def self_time(self, sid: int, children: dict[int, list[int]]) -> float:
        """Duration minus the part covered by child spans (children never overlap here)."""
        return self.duration(sid) - sum(self.duration(c) for c in children.get(sid, ()))

    def write_jsonl_gz(self, path: str) -> None:
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            trace = self.trace_id
            for sid in range(len(self.start)):
                fh.write(
                    f'{{"trace":"{trace}","id":{sid},"parent":{self.parent[sid]},'
                    f'"name":"{names[self.name_of[sid]]}",'
                    f'"start":{self.start[sid]!r},"end":{self.end[sid]!r}}}\n'
                )


class StoreProbe:
    """Store proxy timing each coverage_count and mark_covered call.

    Calls are recorded with their row and result so the benchmark can check
    answers and counters after the timed region. Any other attribute is
    forwarded untimed to the store, so a store API the probe does not know
    still runs; its time then shows as the caller's self time.
    """

    def __init__(self, store, tracer: Tracer | None = None):
        self._store = store
        self._tracer = tracer
        self.initial_remaining = store.remaining()
        self.query_rows: list[tuple[int, ...]] = []
        self.query_results: list[int] = []
        self.query_s = array("d")
        self.mark_rows: list[tuple[int, ...]] = []
        self.mark_results: list[int] = []
        # Order of calls: True for a query, False for a mark.
        self.sequence: list[bool] = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def coverage_count(self, row):
        start = perf_counter()
        n = self._store.coverage_count(row)
        end = perf_counter()
        self.query_s.append(end - start)
        self.query_rows.append(tuple(row))
        self.query_results.append(n)
        self.sequence.append(True)
        if self._tracer is not None:
            self._tracer.record(QUERY, start, end, self._tracer.current)
        return n

    def mark_covered(self, row):
        start = perf_counter()
        n = self._store.mark_covered(row)
        end = perf_counter()
        self.mark_rows.append(tuple(row))
        self.mark_results.append(n)
        self.sequence.append(False)
        if self._tracer is not None:
            self._tracer.record(MARK, start, end, self._tracer.current)
        return n
