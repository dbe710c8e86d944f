"""In-memory span recorder with self-time arithmetic.

A span is one call across a layer boundary: its name, start, end, the
index of the span that was open when it began (its parent, -1 for a
root), and the id of the benchmark op it belongs to. Spans stay in
memory and are written out once, at the end of a run.

Hot leaf calls (the RHS closure runs ~10^5 times per scenario) are not
kept one by one: ``leaf`` adds their count and time to a per-name total
and to the open span's ``leaf_s``. Their time is still subtracted from
the parent, so self times remain exact: for every op, the self times of
its spans plus its leaf time sum to the root span's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, LEAF_S = range(6)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self.op_id is not None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        self.spans[index][END] = self.clock()

    def leaf(self, name: str, seconds: float) -> None:
        total = self.leaves[name]
        total[0] += 1
        total[1] += seconds
        self.spans[self._stack[-1]][LEAF_S] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def run_op(self, op_id, fn):
        """Call ``fn()`` as op ``op_id`` under a root span named "op"."""
        self.op_id = op_id
        index = self.open("op")
        try:
            return fn()
        finally:
            self.close(index)
            self.op_id = None

    def self_times(self) -> list[float]:
        selfs = [s[END] - s[START] - s[LEAF_S] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                selfs[s[PARENT]] -= s[END] - s[START]
        return selfs

    def summary(self) -> dict[str, dict]:
        """name -> {"calls", "self_s"}, leaves included."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for s, self_s in zip(self.spans, self.self_times()):
            out[s[NAME]]["calls"] += 1
            out[s[NAME]]["self_s"] += self_s
        for name, (calls, total) in self.leaves.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += total
        return dict(out)

    def op_residuals(self) -> dict:
        """op id -> (sum of self and leaf times in the op) - (root span duration)."""
        totals: dict = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            totals[s[OP]] += self_s + s[LEAF_S]
        return {
            s[OP]: totals[s[OP]] - (s[END] - s[START]) for s in self.spans if s[PARENT] < 0
        }

    def dump(self, path, extra: dict) -> None:
        selfs = self.self_times()
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op", "leaf_s", "self_s"]
        doc["spans"] = [s + [self_s] for s, self_s in zip(self.spans, selfs)]
        doc["leaves"] = {name: {"calls": c, "total_s": t} for name, (c, t) in self.leaves.items()}
        doc["counters"] = dict(self.counters)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
