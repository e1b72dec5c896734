"""Dynamic benchmarks: workloads and trace files encoded as names.

The whole execution stack — runner cache, sweep engine, result store —
identifies a job by its *benchmark name* string (plus
config/accesses/seed/...).  That is what makes results portable across
processes: any pool worker can re-derive the trace from the name
alone.  This module extends the name space beyond the static
profile registry with two schemes:

* ``wl:<canonical-json>`` — a full :class:`~repro.workloads.synthetic.
  StreamWorkload` parameter set, canonically JSON-encoded into the
  name itself.  The adversarial fuzzer (:mod:`repro.scenarios.fuzzer`)
  uses this to push arbitrary candidate workloads through the ordinary
  sweep path: every candidate dedupes into the store under its exact
  parameters, and a worker process rebuilds the trace from nothing but
  the job spec.

* ``trace:<sha256-prefix>:<path>`` — a converted external trace file
  (:mod:`repro.scenarios.loaders`, internal text format, optionally
  gzipped).  The content digest is part of the name, so editing or
  regenerating the file changes every derived store key — a stale
  result can never be served for new bytes.

Both schemes are resolved by :func:`repro.experiments.runner.get_trace`
(and therefore by the exact simulator, the fast model, and sweep
workers alike).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, Optional

from repro.workloads.synthetic import StreamWorkload, WorkloadPhase
from repro.workloads.trace import Trace

#: Name prefix of inline-encoded workloads.
WORKLOAD_PREFIX = "wl:"
#: Name prefix of content-addressed trace files.
TRACE_PREFIX = "trace:"
#: Hex digits of the file digest embedded in ``trace:`` names.
TRACE_DIGEST_LEN = 12


def is_dynamic(benchmark: str) -> bool:
    """True when ``benchmark`` is a ``wl:`` or ``trace:`` name."""
    return benchmark.startswith((WORKLOAD_PREFIX, TRACE_PREFIX))


# ----------------------------------------------------------------------
# wl: — inline workload parameter sets
# ----------------------------------------------------------------------
def _dist_to_json(dist: Optional[Dict[int, float]]) -> Optional[Dict[str, float]]:
    """JSON object form of a length distribution (sorted int keys)."""
    if dist is None:
        return None
    return {str(length): float(dist[length]) for length in sorted(dist)}


def _dist_from_json(obj: Optional[Dict[str, float]]) -> Optional[Dict[int, float]]:
    """Inverse of :func:`_dist_to_json`."""
    if obj is None:
        return None
    return {int(length): float(weight) for length, weight in obj.items()}


def encode_workload(workload: StreamWorkload) -> str:
    """Canonical JSON text of one workload (sorted keys, no whitespace).

    The encoding is a pure function of the parameter values, so two
    processes that build the same workload arrive at the same name —
    and the same store keys.
    """
    payload = asdict(workload)
    payload["length_dist"] = _dist_to_json(workload.length_dist)
    payload["phases"] = [
        {
            "weight": float(phase.weight),
            "length_dist": _dist_to_json(phase.length_dist),
            "gap_mean": phase.gap_mean,
            "hot_fraction": phase.hot_fraction,
        }
        for phase in workload.phases
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def decode_workload(text: str) -> StreamWorkload:
    """Rebuild (and validate) a workload from :func:`encode_workload` text."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"malformed workload encoding: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("malformed workload encoding: expected an object")
    phases = tuple(
        WorkloadPhase(
            weight=float(phase["weight"]),
            length_dist=_dist_from_json(phase.get("length_dist")),
            gap_mean=phase.get("gap_mean"),
            hot_fraction=phase.get("hot_fraction"),
        )
        for phase in payload.get("phases", [])
    )
    try:
        workload = StreamWorkload(
            name=str(payload["name"]),
            length_dist=_dist_from_json(payload["length_dist"]),
            gap_mean=float(payload["gap_mean"]),
            hot_fraction=float(payload["hot_fraction"]),
            hot_lines=int(payload["hot_lines"]),
            write_fraction=float(payload["write_fraction"]),
            descending_fraction=float(payload["descending_fraction"]),
            interleave=int(payload["interleave"]),
            burstiness=float(payload["burstiness"]),
            phases=phases,
            phase_round=int(payload["phase_round"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed workload encoding: {exc}") from None
    workload.validate()
    return workload


def workload_benchmark(workload: StreamWorkload) -> str:
    """The ``wl:`` benchmark name for one workload (validated first)."""
    workload.validate()
    return WORKLOAD_PREFIX + encode_workload(workload)


def resolve_workload(benchmark: str) -> StreamWorkload:
    """The workload a ``wl:`` benchmark name encodes."""
    if not benchmark.startswith(WORKLOAD_PREFIX):
        raise ValueError(f"not a wl: benchmark name: {benchmark!r}")
    return decode_workload(benchmark[len(WORKLOAD_PREFIX):])


# ----------------------------------------------------------------------
# trace: — content-addressed trace files
# ----------------------------------------------------------------------
def file_digest(path: str) -> str:
    """Streaming SHA-256 of a file's bytes (compressed bytes for .gz)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trace_benchmark(path: str) -> str:
    """The ``trace:`` benchmark name for one internal-format trace file.

    Embeds a digest prefix of the file's current content, so the name
    (and every store key derived from it) changes whenever the file
    does.
    """
    return f"{TRACE_PREFIX}{file_digest(path)[:TRACE_DIGEST_LEN]}:{path}"


def parse_trace_benchmark(benchmark: str) -> tuple:
    """Split a ``trace:`` name into ``(digest_prefix, path)``."""
    if not benchmark.startswith(TRACE_PREFIX):
        raise ValueError(f"not a trace: benchmark name: {benchmark!r}")
    rest = benchmark[len(TRACE_PREFIX):]
    digest, sep, path = rest.partition(":")
    if not sep or not digest or not path:
        raise ValueError(
            f"malformed trace benchmark {benchmark!r} "
            "(expected 'trace:<digest>:<path>')"
        )
    return digest, path


def load_trace_benchmark(benchmark: str, accesses: Optional[int] = None) -> Trace:
    """Load (a prefix of) the trace file a ``trace:`` name points at.

    The file's digest is re-verified against the name, so a result can
    never silently be computed from different bytes than the job spec
    names.  ``accesses`` caps the number of records replayed.
    """
    digest, path = parse_trace_benchmark(benchmark)
    actual = file_digest(path)[:len(digest)]
    if actual != digest:
        raise ValueError(
            f"trace file {path} changed since its name was derived "
            f"(digest {actual} != {digest}); re-derive the benchmark "
            "name with trace_benchmark()"
        )
    trace = Trace.load(path, name=benchmark, limit=accesses)
    if not trace.records:
        raise ValueError(f"trace file {path} holds no records")
    return trace
