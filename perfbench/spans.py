"""In-memory span recorder.

A span is (name, start, end, parent), with times from
``time.perf_counter_ns``.  Spans live in flat arrays while the run goes on
and are written out once, when it ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns as now

ROOT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: calls or iterations per layer, counted where the work happens
        self.counts: dict[str, int] = {}

    def layer(self, name: str) -> int:
        """Intern a layer name; the id is what open/record take."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, start: int, parent: int = ROOT) -> int:
        """Start a span whose children are recorded before it closes."""
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        return len(self.name) - 1

    def close(self, span: int, end: int) -> None:
        self.end[span] = end

    def record(self, name_id: int, start: int, end: int, parent: int) -> None:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per layer name: (self time in ns, number of spans)."""
        covered = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p != ROOT:
                covered[p] += self.end[i] - self.start[i]
        totals = [0] * len(self.names)
        spans = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            totals[nid] += self.end[i] - self.start[i] - covered[i]
            spans[nid] += 1
        return {name: (totals[k], spans[k]) for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Tab-separated: the layer names first, then one line per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# names\t" + "\t".join(self.names) + "\n")
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.name[i]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\n"
                )
