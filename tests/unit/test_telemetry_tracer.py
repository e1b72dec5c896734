"""Unit tests for repro.telemetry.tracer — the event bus contract."""

import pytest

from repro.telemetry.events import EpochBoundary, PrefetchIssued
from repro.telemetry.tracer import NULL_TRACER, Tracer


class TestDisabled:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_disabled_emit_reaches_no_sink(self):
        tracer = Tracer(enabled=False)
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(PrefetchIssued(t=1, line=2))
        assert seen == []

    def test_disabled_emit_counts_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(PrefetchIssued(t=1, line=2))
        assert tracer.total_events == 0

    def test_enabled_is_read_only(self):
        # hot paths cache the flag at construction
        for tracer in (Tracer(enabled=True), NULL_TRACER):
            with pytest.raises(AttributeError, match="read-only"):
                tracer.enabled = not tracer.enabled

    def test_disabled_emit_accrues_no_overhead(self):
        tracer = Tracer(enabled=False)
        for _ in range(100):
            tracer.emit(PrefetchIssued(t=1, line=2))
        assert tracer.overhead_seconds() == 0.0


class TestDispatch:
    def test_global_sink_sees_everything(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(PrefetchIssued(t=1, line=2))
        tracer.emit(EpochBoundary(t=5, epoch=1))
        assert [e.kind for e in seen] == ["prefetch_issued", "epoch_boundary"]

    def test_kind_filtered_sink_sees_only_its_kinds(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, kinds=("epoch_boundary",))
        tracer.emit(PrefetchIssued(t=1, line=2))
        tracer.emit(EpochBoundary(t=5, epoch=1))
        assert [e.kind for e in seen] == ["epoch_boundary"]

    def test_unsubscribe_stops_delivery(self):
        tracer = Tracer()
        seen = []
        sink = tracer.subscribe(seen.append)
        tracer.unsubscribe(sink)
        tracer.emit(PrefetchIssued(t=1, line=2))
        assert seen == []

    def test_unsubscribe_kind_filtered(self):
        tracer = Tracer()
        seen = []
        sink = tracer.subscribe(seen.append, kinds=("epoch_boundary",))
        tracer.unsubscribe(sink)
        tracer.emit(EpochBoundary(t=5, epoch=1))
        assert seen == []

    def test_counts_per_kind(self):
        tracer = Tracer()
        tracer.emit(PrefetchIssued(t=1, line=2))
        tracer.emit(PrefetchIssued(t=2, line=3))
        tracer.emit(EpochBoundary(t=5, epoch=1))
        assert tracer.counts["prefetch_issued"] == 2
        assert tracer.counts["epoch_boundary"] == 1
        assert tracer.total_events == 3

    def test_enabled_emit_measures_overhead(self):
        tracer = Tracer()
        tracer.subscribe(lambda e: None)
        for _ in range(50):
            tracer.emit(PrefetchIssued(t=1, line=2))
        assert tracer.overhead_seconds() > 0.0


class TestSummary:
    def test_summary_shape(self):
        tracer = Tracer()
        tracer.emit(EpochBoundary(t=5, epoch=1))
        s = tracer.summary()
        assert s["enabled"] is True
        assert s["events"] == {"epoch_boundary": 1}
        assert s["total_events"] == 1
        assert s["overhead_seconds"] >= 0.0
