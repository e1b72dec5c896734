"""Correctness checks on the simulator's results.

Every failed check fails its job, and failed jobs are counted in the
report, never dropped.  The checks are:

* the result digest of each job at the default seed equals the digest
  recorded in ``digests.json`` (a speed-only change must leave every
  simulated statistic identical);
* the warm result answered by the store equals the cold result;
* one job per workload, re-run on the reference loop, equals its
  event-loop result;
* four conservation identities hold on every result.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping

from repro.experiments.store import encode_result
from repro.system.results import RunResult

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def canonical(result: RunResult) -> str:
    """Every field a stored result keeps, as deterministic JSON text."""
    return json.dumps(encode_result(result), sort_keys=True, separators=(",", ":"))


def digest(result: RunResult) -> str:
    return hashlib.sha256(canonical(result).encode("utf-8")).hexdigest()[:20]


def identity_failures(result: RunResult, accesses: int, threads: int) -> List[str]:
    """The conservation identities ``result`` breaks (empty if none)."""
    s = result.stats

    def get(key: str) -> float:
        return s.get(key, 0)

    checks = (
        ("mc.reads_arrived == mc.reads_demand + mc.reads_ps",
         get("mc.reads_arrived"), get("mc.reads_demand") + get("mc.reads_ps")),
        ("dram.issued == dram.issued_reads + dram.issued_writes",
         get("dram.issued"), get("dram.issued_reads") + get("dram.issued_writes")),
        ("l1.hits + l1.misses == accesses x threads",
         get("l1.hits") + get("l1.misses"), accesses * threads),
        ("ms.generated == lpq.pushed",
         get("ms.generated"), get("lpq.pushed")),
    )
    return [f"{name}: {lhs} != {rhs}" for name, lhs, rhs in checks if lhs != rhs]


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Recorded digests, ``{workload: {job ident: digest}}``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest_failure(expected: Mapping[str, str], ident: str, result: RunResult) -> str:
    """Why ``result`` does not match its recorded digest ('' if it does)."""
    want = expected.get(ident)
    if want is None:
        return f"{ident}: no recorded digest"
    got = digest(result)
    return "" if got == want else f"{ident}: digest {got} != recorded {want}"


def equality_failure(label: str, first: RunResult, second: RunResult) -> str:
    """Field-for-field comparison of two results ('' if equal)."""
    a, b = encode_result(first), encode_result(second)
    if a == b:
        return ""
    fields = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if "stats" in fields:
        sa, sb = a.get("stats", {}), b.get("stats", {})
        keys = sorted(k for k in set(sa) | set(sb) if sa.get(k) != sb.get(k))
        fields.remove("stats")
        fields.extend(f"stats.{k}" for k in keys[:5])
    return f"{label}: fields differ: {', '.join(fields)}"
