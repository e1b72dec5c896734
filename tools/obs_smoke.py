"""CI smoke test for the observability stack (docs/observability.md).

Runs one tiny sweep through ``repro.cli`` with ``--metrics-port 0``, then
— in the same process, while the CLI's registry is still reachable from
the written snapshot — starts a snapshot-serving endpoint and asserts
the full acceptance path:

1. ``repro sweep --metrics-port`` completes and writes
   ``<store>/metrics/latest.json`` and ``<store>/spans/latest.json``;
2. ``GET /metrics`` returns Prometheus text exposition that
   :func:`repro.obs.exporters.parse_exposition` accepts, containing the
   sweep job counters and the store read/write counters;
3. ``GET /healthz`` answers ``status: ok`` and states the ``obs``
   span-plane block;
4. ``GET /progress.json`` reflects the finished sweep;
5. ``repro obs trace export`` renders the sweep's span snapshot into
   Chrome trace-event JSON that passes a minimal Perfetto schema check
   (written under the store root, uploaded as a CI artifact).

Everything runs in-process (the endpoint on its daemon thread, probed
with urllib), so there are no background processes to orchestrate or
race against.  Exits non-zero with a message on the first failed
assertion.

Usage::

    PYTHONPATH=src python tools/obs_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import urllib.request


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        if response.status != 200:
            raise SystemExit(f"obs_smoke: GET {url} -> {response.status}")
        return response.read().decode("utf-8")


def check_trace_export(root: str, repro_main) -> str:
    """Export the sweep's span snapshot; validate the Perfetto schema."""
    from repro.obs.paths import spans_dir

    snapshot = os.path.join(spans_dir(), "latest.json")
    if not os.path.isfile(snapshot):
        raise SystemExit(f"obs_smoke: no span snapshot at {snapshot}")
    trace_path = os.path.join(root, "trace", "trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    rc = repro_main(["obs", "trace", "export",
                     "--input", snapshot, "-o", trace_path])
    if rc != 0:
        raise SystemExit(f"obs_smoke: obs trace export exited {rc}")
    with open(trace_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SystemExit(f"obs_smoke: {trace_path} has no traceEvents")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        raise SystemExit("obs_smoke: exported trace has no complete events")
    for event in events:
        if event.get("ph") not in ("X", "M"):
            raise SystemExit(f"obs_smoke: unexpected trace phase: {event}")
        if not isinstance(event.get("name"), str) or "pid" not in event:
            raise SystemExit(f"obs_smoke: malformed trace event: {event}")
        if event["ph"] == "X" and not (
            isinstance(event.get("ts"), int) and event["ts"] >= 0
            and isinstance(event.get("dur"), int) and event["dur"] >= 0
            and isinstance(event.get("tid"), int)
        ):
            raise SystemExit(f"obs_smoke: malformed span event: {event}")
    names = {event["name"] for event in spans}
    if "sweep.run_jobs" not in names or "sweep.job" not in names:
        raise SystemExit(f"obs_smoke: span names missing from trace: {names}")
    return trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="store root to use (kept afterwards); "
                             "default: a fresh temp dir")
    args = parser.parse_args(argv)

    root = args.keep or tempfile.mkdtemp(prefix="repro-obs-smoke-")
    os.environ["REPRO_STORE_DIR"] = root

    from repro.cli import main as repro_main
    from repro.obs import exporters
    from repro.obs.paths import metrics_dir
    from repro.obs.server import ObsServer

    rc = repro_main([
        "sweep", "-b", "milc", "tonto", "-c", "NP", "PS",
        "-n", "2500", "--jobs", "2", "--metrics-port", "0", "--no-progress",
    ])
    if rc != 0:
        raise SystemExit(f"obs_smoke: repro sweep exited {rc}")

    snapshot_path = os.path.join(metrics_dir(), "latest.json")
    if not os.path.isfile(snapshot_path):
        raise SystemExit(f"obs_smoke: no snapshot at {snapshot_path}")

    server = ObsServer(snapshot_dir=metrics_dir()).start()
    try:
        text = fetch(server.url + "/metrics")
        parsed = exporters.parse_exposition(text)  # raises if malformed
        names = {name for name, _ in parsed}
        for required in ("repro_sweep_jobs_total", "repro_store_reads_total",
                         "repro_store_writes_total",
                         "repro_sweep_job_seconds_count"):
            if required not in names:
                raise SystemExit(
                    f"obs_smoke: {required} missing from /metrics "
                    f"(got {sorted(names)})"
                )
        jobs = sum(value for (name, _), value in parsed.items()
                   if name == "repro_sweep_jobs_total")
        if jobs != 4:
            raise SystemExit(f"obs_smoke: expected 4 sweep jobs, saw {jobs}")

        health = json.loads(fetch(server.url + "/healthz"))
        if health.get("status") != "ok":
            raise SystemExit(f"obs_smoke: /healthz said {health}")
        if health.get("obs", {}).get("spans") not in ("enabled", "disabled"):
            raise SystemExit(f"obs_smoke: /healthz lacks obs block: {health}")

        progress = json.loads(fetch(server.url + "/progress.json"))
        if not (progress.get("finished") and progress.get("done") == 4):
            raise SystemExit(f"obs_smoke: bad /progress.json: {progress}")
    finally:
        server.close()

    trace_path = check_trace_export(root, repro_main)

    print(f"obs_smoke: OK ({len(parsed)} samples, snapshot {snapshot_path}, "
          f"trace {trace_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
