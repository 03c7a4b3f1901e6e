"""In-memory spans for the traced benchmark run.

A span records one public ``kdsm`` call the benchmark makes: its name
(``<module>.<function>``), a tag naming the input stratum, start and end
times from ``time.perf_counter``, the index of the enclosing span, and the
item id it belongs to. Spans stay in memory while the benchmark runs and
are written out once, after the last measurement.

The benchmark is single-threaded and spans nest strictly, so the children
of a span never overlap each other: a span's self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

NAME, TAG, START, END, PARENT, ITEM = range(6)


class NullTracer:
    """Stand-in used for untraced runs: records nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, tag: str = "", item=None):
        return self._null


class Tracer:
    """Records spans as ``[name, tag, start, end, parent, item]`` lists."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = "", item=None):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][ITEM]
        rec = [name, tag, time.perf_counter(), 0.0, parent, item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, tag: str = "") -> list[float]:
        """Durations in seconds of the spans called ``name`` whose tag starts with ``tag``."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name and s[TAG].startswith(tag)
        ]

    def per_item(self, names: tuple[str, ...]) -> list[float]:
        """Per item id, the summed duration of its spans named in ``names``."""
        totals: dict = {}
        for s in self.spans:
            if s[NAME] in names and s[ITEM] is not None:
                totals[s[ITEM]] = totals.get(s[ITEM], 0.0) + s[END] - s[START]
        return list(totals.values())

    def module_self_seconds(self) -> dict[str, float]:
        """Total self time per module of the spans that sit inside an item."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            if s[ITEM] is None or s[NAME] == "item":
                continue
            module = s[NAME].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + s[END] - s[START] - c
        return out


def write_spans(path, header: dict, phases: dict[str, Tracer]) -> None:
    """Write every recorded span, grouped by phase, as one JSON document."""
    payload = {
        "header": header,
        "fields": ["name", "tag", "start", "end", "parent", "item"],
        "phases": {name: tr.spans for name, tr in phases.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
