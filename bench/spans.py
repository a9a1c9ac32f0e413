"""In-memory spans for the benchmark's traced runs.

A span is one interval on the `time.perf_counter` clock with a name, the
span that caused it and the pass it belongs to.  Spans stay in memory
while the workload runs and are written as JSON lines when it ends, so
writing never lands inside a timed region.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Spans:
    def __init__(self):
        self.rows: list[dict] = []

    def open(self, name: str, start: float, parent: int | None = None,
             pass_id: int | None = None, **attrs) -> int:
        """Record a span whose end is set later by `close`; returns its id."""
        self.rows.append({"id": len(self.rows), "name": name, "start": start,
                          "end": None, "parent": parent, "pass": pass_id,
                          "attrs": attrs})
        return len(self.rows) - 1

    def close(self, span_id: int, end: float) -> None:
        self.rows[span_id]["end"] = end

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            pass_id: int | None = None, **attrs) -> int:
        span_id = self.open(name, start, parent, pass_id, **attrs)
        self.close(span_id, end)
        return span_id

    def self_times(self) -> dict[int, float]:
        """Duration of each span minus the time its children cover.

        Children of one span run one after another, so their durations add
        up without overlap.
        """
        covered: dict[int, float] = defaultdict(float)
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end"] - row["start"]
        return {row["id"]: row["end"] - row["start"] - covered[row["id"]]
                for row in self.rows}

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def per_pass(self, select) -> list[float]:
        """Per pass, the summed duration of the spans `select(row)` accepts."""
        totals: dict[int, float] = defaultdict(float)
        for row in self.rows:
            if row["pass"] is not None:
                totals[row["pass"]] += 0.0
                if select(row):
                    totals[row["pass"]] += row["end"] - row["start"]
        return [totals[p] for p in sorted(totals)]

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps({**row, "self": own[row["id"]]}) + "\n")
