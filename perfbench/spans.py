"""In-memory spans for the traced benchmark run.

The benchmark wraps each call it makes into a layer of the program in a
span named ``<layer>.<call>``.  A span records its name, start, end, the
span that was open when it began (its parent) and the op it belongs to.
Spans stay in memory until the run ends; :func:`summarise` then derives
inclusive and self times (a span's duration minus its children's), and
:meth:`Tracer.write` stores the raw spans beside the summary.

The untraced run passes :data:`NULL_TRACER`, whose spans do nothing, so
both runs execute the same op code.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing (the untraced run)."""

    active = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        tracer = self._tracer
        parent = tracer._open[-1] if tracer._open else -1
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, perf_counter(), 0.0, parent, tracer.op_id])
        tracer._open.append(self._index)

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._open.pop()


class Tracer:
    """Records spans as ``[name, start, end, parent index, op id]`` lists."""

    active = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        #: the id stamped on spans; the runner sets it before each op.
        self.op_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path: Path, summary: dict[str, Any]) -> None:
        """Store the raw spans and *summary* as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"name": name, "start": start, "end": end,
                  "parent": parent, "op": op}
                 for name, start, end, parent, op in self.spans]
        path.write_text(json.dumps({"summary": summary, "spans": spans}) + "\n",
                        encoding="utf-8")


def layer_of(name: str) -> str:
    """The layer a span belongs to: its first dotted component.

    The runner's per-op root span ``op`` stands for the benchmark's own
    code between layer calls.
    """
    return "bench" if name == "op" else name.split(".", 1)[0]


def summarise(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, inclusive ``total_s`` and ``self_s``.

    Spans of one thread nest without overlap, so a span's self time is
    its duration minus the summed durations of its direct children.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        entry = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children[index]
    return table
