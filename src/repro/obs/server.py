"""Stdlib-only HTTP endpoint: ``/metrics``, ``/healthz``, ``/progress``.

:class:`ObsServer` wraps an ``http.server.ThreadingHTTPServer`` on a
daemon thread, so a sweep (or the ``repro obs serve`` subcommand) can
expose its state without any dependency beyond the standard library:

* ``GET /metrics``       — Prometheus text exposition (0.0.4) of the
  live registry, or of the newest JSON snapshot when serving a
  directory;
* ``GET /metrics.json``  — the JSON snapshot document;
* ``GET /healthz``       — liveness JSON: status, pid, uptime, source;
  in snapshot-dir mode it also reports the newest snapshot's age and
  flips ``status`` to ``stale`` once that age exceeds ``stale_after``
  seconds (a dead sweep stops refreshing its snapshot — external
  monitors key off this);
* ``GET /progress``      — a self-refreshing HTML dashboard of the
  attached :class:`~repro.obs.progress.SweepProgress`;
* ``GET /progress.json`` — the raw progress snapshot;
* ``GET /spans.json``    — the attached span collector's stored spans
  (:mod:`repro.obs.spans`), 404 when no collector is attached.

Two sources, checked in order: a **live** :class:`MetricsRegistry` (and
optional ``SweepProgress``) passed at construction — what ``repro sweep
--metrics-port N`` uses — or a **snapshot directory** re-read per
request, which is how ``repro obs serve`` serves the counters of
sweeps that already finished.

Bind to port 0 to let the OS pick (the bound port is available as
``server.port`` — the endpoint tests do this).  Request logging goes to
the ``repro.obs.server`` logger at DEBUG, never to stderr.
"""

from __future__ import annotations

import html
import json
import logging
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress, render_line
from repro.obs.spans import SPANS_VERSION, SpanCollector

_log = logging.getLogger("repro.obs.server")

_DASHBOARD_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>repro sweep progress</title>
<style>
  body {{ font-family: ui-monospace, monospace; margin: 2rem; }}
  table {{ border-collapse: collapse; margin-top: 1rem; }}
  td, th {{ border: 1px solid #999; padding: 0.3rem 0.8rem; text-align: left; }}
  progress {{ width: 24rem; height: 1.2rem; }}
</style>
</head>
<body>
<h1>repro sweep</h1>
<p><progress max="{total}" value="{done}"></progress> {percent:.0f}%</p>
<p>{line}</p>
<table>
<tr><th>counter</th><th>value</th></tr>
{rows}
</table>
<p><a href="/metrics">/metrics</a> · <a href="/metrics.json">/metrics.json</a>
 · <a href="/healthz">/healthz</a> · <a href="/progress.json">/progress.json</a>
 · <a href="/spans.json">/spans.json</a></p>
</body>
</html>
"""


class ObsServer:
    """Serve metrics/health/progress for one process on a daemon thread."""

    #: Snapshot age (seconds) past which ``/healthz`` reports ``stale``
    #: in snapshot-dir mode; None disables the check.
    DEFAULT_STALE_AFTER = 600.0

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[SweepProgress] = None,
        snapshot_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        stale_after: Optional[float] = DEFAULT_STALE_AFTER,
        spans: Optional[SpanCollector] = None,
    ) -> None:
        if registry is None and snapshot_dir is None:
            raise ValueError("ObsServer needs a registry or a snapshot_dir")
        self.registry = registry
        self.progress = progress
        self.snapshot_dir = snapshot_dir
        self.stale_after = stale_after
        self.spans = spans
        self._started_monotonic = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        owner = self

        class _Handler(BaseHTTPRequestHandler):
            """Routes one request; all state lives on the owning server."""

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                owner._route(self)

            def log_message(self, format: str, *args: object) -> None:
                _log.debug("%s - %s", self.address_string(), format % args)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL the endpoints are reachable under."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        """Begin serving on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        _log.info("obs endpoint serving on %s", self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the socket.

        ``server_close`` runs in a ``finally`` so the bound socket is
        released even when ``shutdown()`` raises (e.g. a subclass hook
        or a half-torn-down serve loop) — leaking the port would make
        every later bind on it fail with EADDRINUSE.
        """
        try:
            self._httpd.shutdown()
        finally:
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5)
                self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI use)."""
        self._httpd.serve_forever()

    # -- content -------------------------------------------------------
    def _metrics_source(self) -> Tuple[str, Optional[Dict[str, object]]]:
        """``(description, snapshot-or-None)``; live registries use None."""
        if self.registry is not None:
            return "live", None
        found = exporters.latest_snapshot(self.snapshot_dir)
        if found is None:
            return f"snapshot-dir:{self.snapshot_dir} (empty)", None
        path, document = found
        return f"snapshot:{path}", document

    def _metrics_text(self) -> str:
        if self.registry is not None:
            return exporters.render_exposition(self.registry)
        _, document = self._metrics_source()
        if document is None:
            return ""
        return exporters.exposition_from_snapshot(document)

    def _metrics_json(self) -> Dict[str, object]:
        if self.registry is not None:
            progress = (
                self.progress.snapshot() if self.progress is not None else None
            )
            return exporters.registry_snapshot(self.registry, progress=progress)
        _, document = self._metrics_source()
        return document if document is not None else {"metrics": []}

    def _health(self) -> Dict[str, object]:
        source, _ = self._metrics_source()
        health: Dict[str, object] = {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "metrics_source": source,
        }
        if self.registry is None:
            # Snapshot-dir mode: a sweep that died stops refreshing its
            # snapshot, so report the age and flip to "stale" past the
            # threshold instead of answering "ok" forever.
            age = self._snapshot_age()
            health["snapshot_age_seconds"] = age
            if (
                age is not None
                and self.stale_after is not None
                and age > self.stale_after
            ):
                health["status"] = "stale"
                health["stale_after_seconds"] = self.stale_after
        spans = self.spans
        health["obs"] = {
            "spans": "enabled" if spans is not None and spans.enabled
            else "disabled",
        }
        if spans is not None and spans.enabled:
            health["obs"]["span_count"] = len(spans)
        return health

    def _snapshot_age(self) -> Optional[float]:
        """Seconds since the newest snapshot was generated (None if none).

        Prefers the snapshot's own ``generated_unix`` stamp; falls back
        to file mtime for hand-made or older snapshot documents.
        """
        found = exporters.latest_snapshot(self.snapshot_dir)
        if found is None:
            return None
        path, document = found
        generated = document.get("generated_unix")
        if isinstance(generated, (int, float)):
            return max(0.0, time.time() - float(generated))
        try:
            return max(0.0, time.time() - os.path.getmtime(path))
        except OSError:
            return None

    def _progress_snapshot(self) -> Optional[Dict[str, object]]:
        if self.progress is not None:
            return self.progress.snapshot()
        _, document = self._metrics_source()
        if document is not None and isinstance(document.get("progress"), dict):
            return document["progress"]
        return None

    def _dashboard(self) -> str:
        snapshot = self._progress_snapshot()
        if snapshot is None:
            return (
                "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
                "<meta http-equiv=\"refresh\" content=\"2\">"
                "<title>repro sweep progress</title></head>"
                "<body><p>no sweep progress available</p></body></html>"
            )
        rows = []
        for section in ("outcomes", "events"):
            for name, count in sorted(snapshot.get(section, {}).items()):
                rows.append(
                    f"<tr><td>{html.escape(str(name))}</td>"
                    f"<td>{html.escape(str(count))}</td></tr>"
                )
        return _DASHBOARD_TEMPLATE.format(
            total=max(1, snapshot["total"]),
            done=snapshot["done"],
            percent=snapshot["percent"],
            line=html.escape(render_line(snapshot)),
            rows="\n".join(rows),
        )

    # -- routing -------------------------------------------------------
    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._respond(
                    handler, 200, exporters.EXPOSITION_CONTENT_TYPE,
                    self._metrics_text(),
                )
            elif path == "/metrics.json":
                self._respond_json(handler, 200, self._metrics_json())
            elif path == "/healthz":
                self._respond_json(handler, 200, self._health())
            elif path == "/progress.json":
                snapshot = self._progress_snapshot()
                if snapshot is None:
                    self._respond_json(
                        handler, 404, {"error": "no progress attached"}
                    )
                else:
                    self._respond_json(handler, 200, snapshot)
            elif path == "/spans.json":
                if self.spans is None:
                    self._respond_json(
                        handler, 404, {"error": "no span collector attached"}
                    )
                else:
                    self._respond_json(handler, 200, {
                        "version": SPANS_VERSION,
                        "enabled": self.spans.enabled,
                        "dropped": self.spans.dropped,
                        "spans": self.spans.spans(),
                    })
            elif path in ("/", "/progress"):
                self._respond(
                    handler, 200, "text/html; charset=utf-8", self._dashboard()
                )
            else:
                self._respond_json(handler, 404, {"error": f"no route {path}"})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception:  # never kill the serving thread on one request
            _log.exception("obs endpoint failed serving %s", path)
            try:
                self._respond_json(handler, 500, {"error": "internal error"})
            except Exception:
                pass

    @staticmethod
    def _respond(
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        payload = body.encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        handler.end_headers()
        handler.wfile.write(payload)

    @staticmethod
    def _respond_json(
        handler: BaseHTTPRequestHandler, status: int, document: Dict[str, object]
    ) -> None:
        ObsServer._respond(
            handler, status, "application/json; charset=utf-8",
            json.dumps(document, sort_keys=True, indent=1),
        )
