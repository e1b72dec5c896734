"""Critical-path analysis over a finished span tree.

Answers the question the raw span list cannot: *which chain of work
bounded the sweep's wall clock, and who was the straggler?*  Works on
the encoded-dict span form stored by :class:`repro.obs.spans.SpanCollector`,
so the same analysis runs on a live collector, a ``spans/latest.json``
snapshot, or an ``/spans.json`` reply.

Definitions used throughout (all wall-clock seconds):

* **critical path** — starting from the root span that finishes last,
  repeatedly descend into the child that finishes last; the resulting
  root→leaf chain is the longest dependency chain the run waited on.
* **self time** — a span's duration minus the union of its children's
  intervals (clipped to the span); rolled up per span *name*, this is
  where time was actually spent rather than delegated.
* **straggler** — the longest job-level span (one carrying a
  ``benchmark`` attribute; falls back to the longest leaf), with its
  share of the analyzed trace's wall clock.
* **idle** — the part of the root span during which *no other span of
  the trace* was running: scheduling gaps, drained queues, lease
  waits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

ANALYSIS_VERSION = 1


def _end(doc: Mapping[str, Any]) -> float:
    return doc["start_unix"] + doc["duration_s"]


def primary_trace(spans: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """The spans of the largest trace (ties: smallest trace id)."""
    by_trace: Dict[str, List[Mapping[str, Any]]] = {}
    for doc in spans:
        by_trace.setdefault(doc["trace"], []).append(doc)
    if not by_trace:
        return []
    winner = min(by_trace, key=lambda trace: (-len(by_trace[trace]), trace))
    return by_trace[winner]


def _children_index(
    spans: Sequence[Mapping[str, Any]],
) -> Tuple[Dict[str, Mapping[str, Any]], Dict[str, List[Mapping[str, Any]]]]:
    by_id = {doc["span"]: doc for doc in spans}
    children: Dict[str, List[Mapping[str, Any]]] = {}
    for doc in spans:
        parent = doc.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(doc)
    return by_id, children


def _roots(spans, by_id) -> List[Mapping[str, Any]]:
    return [doc for doc in spans
            if doc.get("parent") is None or doc["parent"] not in by_id]


def critical_path(spans: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Root→leaf chain bounding the primary trace's wall clock."""
    trace = primary_trace(spans)
    by_id, children = _children_index(trace)
    roots = _roots(trace, by_id)
    if not roots:
        return []
    node = max(roots, key=_end)
    chain = [node]
    while children.get(node["span"]):
        node = max(children[node["span"]], key=_end)
        chain.append(node)
    return chain


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def _clipped(children, lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(doc["start_unix"], lo), min(_end(doc), hi))
            for doc in children]


def self_times(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Per-name rollup of time spent in a span but not its children."""
    _by_id, children = _children_index(spans)
    rollup: Dict[str, float] = {}
    for doc in spans:
        covered = _union_length(
            _clipped(children.get(doc["span"], ()), doc["start_unix"], _end(doc))
        )
        rollup[doc["name"]] = rollup.get(doc["name"], 0.0) + max(
            0.0, doc["duration_s"] - covered
        )
    return rollup


def analyze(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Full analysis document over the primary trace of ``spans``."""
    traces = len({doc["trace"] for doc in spans})
    trace = primary_trace(spans)
    if not trace:
        return {"version": ANALYSIS_VERSION, "spans": 0, "traces": 0,
                "trace": None, "wall_s": 0.0, "critical_path": [],
                "critical_path_s": 0.0, "self_time": {}, "straggler": None,
                "idle_s": 0.0}
    by_id, children = _children_index(trace)
    roots = _roots(trace, by_id)
    start = min(doc["start_unix"] for doc in trace)
    wall = max(map(_end, trace)) - start

    chain = critical_path(spans)
    path = [{"name": doc["name"], "span": doc["span"],
             "duration_s": doc["duration_s"]} for doc in chain]
    path_s = (_end(chain[-1]) - chain[0]["start_unix"]) if chain else 0.0

    root = max(roots, key=_end) if roots else None
    idle = 0.0
    if root is not None:
        # Measure against every other span of the trace, not just
        # direct children: job spans are grandchildren (suite ->
        # run_jobs -> job) and still count as the sweep doing work.
        covered = _union_length(_clipped(
            [doc for doc in trace if doc["span"] != root["span"]],
            root["start_unix"], _end(root),
        ))
        idle = max(0.0, root["duration_s"] - covered)

    straggler = _straggler(trace, children, wall)
    return {
        "version": ANALYSIS_VERSION,
        "spans": len(spans),
        "traces": traces,
        "trace": trace[0]["trace"],
        "wall_s": wall,
        "critical_path": path,
        "critical_path_s": path_s,
        "self_time": self_times(trace),
        "straggler": straggler,
        "idle_s": idle,
    }


def _straggler(trace, children, wall: float) -> Optional[Dict[str, Any]]:
    candidates = [doc for doc in trace
                  if "benchmark" in doc.get("attrs", {})]
    if not candidates:
        candidates = [doc for doc in trace if doc["span"] not in children]
    if not candidates:
        return None
    worst = max(candidates, key=lambda doc: doc["duration_s"])
    attrs = worst.get("attrs", {})
    label = str(attrs.get("benchmark", worst["name"]))
    config = attrs.get("config")
    if config:
        label = f"{label}/{config}"
    return {
        "name": worst["name"],
        "span": worst["span"],
        "label": label,
        "duration_s": worst["duration_s"],
        "share": (worst["duration_s"] / wall) if wall > 0 else 0.0,
    }


def _fmt(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    return f"{seconds:.2f}s"


def render_summary(analysis: Mapping[str, Any], top: int = 3) -> str:
    """Human-readable summary lines for CLI output."""
    if not analysis.get("spans"):
        return "trace: no spans recorded"
    lines = []
    chain = " > ".join(step["name"] for step in analysis["critical_path"])
    lines.append(
        f"trace: {analysis['spans']} spans in {analysis['traces']} trace(s), "
        f"wall {_fmt(analysis['wall_s'])}, "
        f"critical path {_fmt(analysis['critical_path_s'])}"
        + (f" ({chain})" if chain else "")
    )
    straggler = analysis.get("straggler")
    if straggler is not None:
        lines.append(
            f"straggler: {straggler['label']} "
            f"{_fmt(straggler['duration_s'])} "
            f"({straggler['share']:.0%} of wall), "
            f"idle {_fmt(analysis['idle_s'])}"
        )
    rollup = sorted(analysis["self_time"].items(),
                    key=lambda item: -item[1])[:top]
    if rollup:
        lines.append("self-time: " + ", ".join(
            f"{name} {_fmt(seconds)}" for name, seconds in rollup
        ))
    return "\n".join(lines)
