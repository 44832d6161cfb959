"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  The layer of a span is the part of
its name before the first dot (``engines.run`` belongs to ``engines``).
Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        index = len(self.spans)
        record: Dict[str, object] = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str, **attrs: object) -> List[float]:
        """Durations of every span called ``name`` whose attrs include ``attrs``."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            have = s.get("attrs", {})
            if all(have.get(k) == v for k, v in attrs.items()):
                out.append(s["end"] - s["start"])
        return out

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent run one after another (the recorder is
        single-threaded), so their durations add without overlap.
        """
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = str(s["name"]).split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def dump(self, path: str, meta: Optional[Dict[str, object]] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta or {}, "spans": self.spans}, handle)
