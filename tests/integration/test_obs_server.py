"""Endpoint tests for repro.obs.server against a real HTTP socket.

The server binds port 0 (OS-assigned) on 127.0.0.1 and is exercised
with urllib from the test process — no external tooling.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.obs.server import ObsServer
from repro.obs.spans import SpanCollector


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture()
def live_server():
    registry = MetricsRegistry(enabled=True)
    registry.counter("repro_sweep_jobs_total", "jobs", ("outcome",)).inc(
        2, outcome="serial"
    )
    registry.histogram("repro_sweep_job_seconds", "seconds").observe(0.2)
    progress = SweepProgress(total=4)
    progress.job_done("serial", seconds=0.2)
    server = ObsServer(registry=registry, progress=progress).start()
    yield server
    server.close()


class TestLiveEndpoints:
    def test_metrics_is_valid_exposition(self, live_server):
        status, headers, body = get(live_server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == exporters.EXPOSITION_CONTENT_TYPE
        parsed = exporters.parse_exposition(body)
        assert parsed[
            ("repro_sweep_jobs_total", (("outcome", "serial"),))
        ] == 2.0
        assert ("repro_sweep_job_seconds_count", ()) in parsed

    def test_metrics_json(self, live_server):
        status, _, body = get(live_server.url + "/metrics.json")
        document = json.loads(body)
        assert status == 200
        assert document["version"] == exporters.SNAPSHOT_VERSION
        assert document["progress"]["done"] == 1

    def test_healthz(self, live_server):
        status, _, body = get(live_server.url + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["metrics_source"] == "live"
        assert health["uptime_seconds"] >= 0
        assert isinstance(health["pid"], int)

    def test_healthz_reports_span_plane(self, live_server):
        _, _, body = get(live_server.url + "/healthz")
        health = json.loads(body)
        assert health["obs"] == {"spans": "disabled"}

    def test_progress_json(self, live_server):
        status, _, body = get(live_server.url + "/progress.json")
        snap = json.loads(body)
        assert status == 200
        assert snap["done"] == 1
        assert snap["total"] == 4

    def test_progress_dashboard_html(self, live_server):
        for path in ("/progress", "/"):
            status, headers, body = get(live_server.url + path)
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            assert "<progress" in body
            assert "sweep 1/4" in body
            assert 'http-equiv="refresh"' in body

    def test_unknown_route_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(live_server.url + "/nope")
        assert err.value.code == 404


class TestSpansEndpoint:
    def test_spans_json_serves_collector_contents(self):
        collector = SpanCollector(enabled=True)
        collector.add("sweep.job", 10.0, 1.5, benchmark="milc")
        server = ObsServer(
            registry=MetricsRegistry(enabled=True), spans=collector
        ).start()
        try:
            status, _, body = get(server.url + "/spans.json")
            document = json.loads(body)
            assert status == 200
            assert document["enabled"] is True
            assert document["dropped"] == 0
            assert [s["name"] for s in document["spans"]] == ["sweep.job"]
            _, _, health = get(server.url + "/healthz")
            obs = json.loads(health)["obs"]
            assert obs == {"spans": "enabled", "span_count": 1}
        finally:
            server.close()

    def test_no_collector_is_404(self):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/spans.json")
            assert err.value.code == 404
        finally:
            server.close()


class TestCloseReleasesSocket:
    def test_socket_closed_even_when_shutdown_raises(self):
        """Regression: ``close()`` used to call ``server_close`` only
        after ``shutdown()`` returned, so a raising shutdown leaked the
        bound socket and every later bind hit EADDRINUSE."""
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()

        def exploding_shutdown():
            # still stop the serve loop (via the flag the real shutdown()
            # sets) so the test does not leave a spinning thread behind
            server._httpd._BaseServer__shutdown_request = True
            raise RuntimeError("half-torn-down serve loop")

        server._httpd.shutdown = exploding_shutdown
        with pytest.raises(RuntimeError, match="half-torn-down"):
            server.close()
        # the finally block must still have released the socket
        assert server._httpd.socket.fileno() == -1

    def test_clean_close_releases_the_socket_too(self):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        server.close()
        assert server._httpd.socket.fileno() == -1


class TestSnapshotDirServing:
    def test_serves_latest_snapshot(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_store_reads_total", "reads", ("result",)).inc(
            5, result="hit"
        )
        directory = str(tmp_path)
        exporters.write_snapshot(
            registry, directory=directory, progress={"done": 9, "total": 9,
                                                     "percent": 100.0,
                                                     "outcomes": {},
                                                     "events": {},
                                                     "eta_seconds": 0.0,
                                                     "elapsed_seconds": 1.0,
                                                     "hit_rate": 1.0,
                                                     "finished": True},
        )
        server = ObsServer(snapshot_dir=directory).start()
        try:
            _, _, body = get(server.url + "/metrics")
            parsed = exporters.parse_exposition(body)
            assert parsed[
                ("repro_store_reads_total", (("result", "hit"),))
            ] == 5.0
            _, _, health = get(server.url + "/healthz")
            assert "snapshot:" in json.loads(health)["metrics_source"]
            _, _, progress = get(server.url + "/progress.json")
            assert json.loads(progress)["done"] == 9
        finally:
            server.close()

    def test_empty_dir_serves_empty_exposition(self, tmp_path):
        server = ObsServer(snapshot_dir=str(tmp_path)).start()
        try:
            status, _, body = get(server.url + "/metrics")
            assert status == 200
            assert body == ""
            _, _, health = get(server.url + "/healthz")
            assert "(empty)" in json.loads(health)["metrics_source"]
        finally:
            server.close()

    def test_needs_registry_or_dir(self):
        with pytest.raises(ValueError, match="registry or a snapshot_dir"):
            ObsServer()


class TestHealthStaleness:
    @staticmethod
    def write_aged_snapshot(directory, age_seconds):
        import time

        registry = MetricsRegistry(enabled=True)
        path = exporters.write_snapshot(registry, directory=directory)
        with open(path) as handle:
            document = json.load(handle)
        document["generated_unix"] = time.time() - age_seconds
        with open(path, "w") as handle:
            json.dump(document, handle)

    def test_fresh_snapshot_reports_age_and_ok(self, tmp_path):
        self.write_aged_snapshot(str(tmp_path), age_seconds=5)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=600).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert 0 <= health["snapshot_age_seconds"] < 600
        finally:
            server.close()

    def test_old_snapshot_flips_to_stale(self, tmp_path):
        # a sweep that died stops refreshing its snapshot; /healthz must
        # say so instead of answering "ok" forever
        self.write_aged_snapshot(str(tmp_path), age_seconds=3600)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=600).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "stale"
            assert health["snapshot_age_seconds"] > 600
            assert health["stale_after_seconds"] == 600
        finally:
            server.close()

    def test_staleness_check_can_be_disabled(self, tmp_path):
        self.write_aged_snapshot(str(tmp_path), age_seconds=3600)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=None).start()
        try:
            _, _, body = get(server.url + "/healthz")
            assert json.loads(body)["status"] == "ok"
        finally:
            server.close()

    def test_empty_dir_has_no_age(self, tmp_path):
        server = ObsServer(snapshot_dir=str(tmp_path)).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["snapshot_age_seconds"] is None
        finally:
            server.close()

    def test_live_registry_mode_has_no_snapshot_age(self, tmp_path):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        try:
            _, _, body = get(server.url + "/healthz")
            assert "snapshot_age_seconds" not in json.loads(body)
        finally:
            server.close()
