"""The event bus at the centre of the telemetry subsystem.

A :class:`Tracer` is handed to every instrumented block at construction
time.  Blocks emit typed events through it; subscribers (exporters,
probes, tests) receive them synchronously.  Two properties make it safe
to thread through the whole simulator unconditionally:

* **Disabled is (near) free.**  The module-level :data:`NULL_TRACER` is
  permanently disabled; ``emit`` on a disabled tracer returns
  immediately, and hot paths additionally guard event *construction*
  with ``if tracer.enabled:`` so a non-telemetry run builds no event
  objects at all.
* **Overhead is self-measured.**  An enabled tracer wraps every dispatch
  in ``time.perf_counter`` and accumulates the time spent inside the
  telemetry machinery, so a run can report exactly how much wall clock
  its own instrumentation cost (see ``overhead_seconds`` /
  ``summary``).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.telemetry.events import TraceEvent

#: A subscriber: called synchronously with each matching event.
EventSink = Callable[[TraceEvent], None]


class Tracer:
    """Synchronous publish/subscribe bus for :class:`TraceEvent`\\ s.

    Subscribers may listen to every event or only to specific kinds
    (kind-filtered dispatch keeps per-event fan-out proportional to the
    interested parties, not to the subscriber count).
    """

    __slots__ = ("enabled", "_global_sinks", "_kind_sinks", "counts",
                 "_overhead_s", "_published_counts", "_published_overhead_s")

    def __init__(self, enabled: bool = True) -> None:
        #: fixed at construction: hot paths cache it (see __setattr__)
        self.enabled = enabled
        self._global_sinks: List[EventSink] = []
        self._kind_sinks: Dict[str, List[EventSink]] = defaultdict(list)
        #: events dispatched so far, per kind
        self.counts: Dict[str, int] = defaultdict(int)
        self._overhead_s = 0.0
        self._published_counts: Dict[str, int] = {}
        self._published_overhead_s = 0.0

    def __setattr__(self, name: str, value: object) -> None:
        # blocks decide at construction whether they have per-cycle
        # telemetry work, so flipping `enabled` later would be ignored
        if name == "enabled" and hasattr(self, "enabled"):
            raise AttributeError("Tracer.enabled is read-only after construction")
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def subscribe(
        self, sink: EventSink, kinds: Optional[Iterable[str]] = None
    ) -> EventSink:
        """Register ``sink``; with ``kinds`` it only sees those events.

        Returns the sink so it can be used for later :meth:`unsubscribe`.
        """
        if kinds is None:
            self._global_sinks.append(sink)
        else:
            for kind in kinds:
                self._kind_sinks[kind].append(sink)
        return sink

    def unsubscribe(self, sink: EventSink) -> None:
        """Remove ``sink`` from every dispatch list it appears in."""
        if sink in self._global_sinks:
            self._global_sinks.remove(sink)
        for sinks in self._kind_sinks.values():
            if sink in sinks:
                sinks.remove(sink)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        """Dispatch one event to all matching subscribers.

        A disabled tracer drops the event without touching subscribers,
        counters, or the clock.
        """
        if not self.enabled:
            return
        t0 = perf_counter()
        self.counts[event.kind] += 1
        for sink in self._global_sinks:
            sink(event)
        for sink in self._kind_sinks.get(event.kind, ()):
            sink(event)
        self._overhead_s += perf_counter() - t0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Events dispatched since construction."""
        return sum(self.counts.values())

    def overhead_seconds(self) -> float:
        """Wall-clock seconds spent inside ``emit`` (self-measured)."""
        return self._overhead_s

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest: enablement, per-kind counts, overhead."""
        return {
            "enabled": self.enabled,
            "events": dict(sorted(self.counts.items())),
            "total_events": self.total_events,
            "overhead_seconds": self._overhead_s,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Per-kind counts and overhead *since the previous snapshot*.

        This is the bridge API :func:`repro.obs.bridge.publish_tracer`
        folds into the fleet-level metrics registry after each traced
        run.  Delta semantics (not cumulative) make the fold idempotent
        when one tracer outlives several runs: each event and each
        second of overhead is published exactly once.
        """
        events = {
            kind: count - self._published_counts.get(kind, 0)
            for kind, count in sorted(self.counts.items())
            if count - self._published_counts.get(kind, 0)
        }
        overhead = self._overhead_s - self._published_overhead_s
        self._published_counts = dict(self.counts)
        self._published_overhead_s = self._overhead_s
        return {"events": events, "overhead_seconds": overhead}


#: The shared, permanently disabled tracer every block defaults to.
#: Instrumented constructors use ``tracer or NULL_TRACER`` so existing
#: call sites and tests keep working unchanged.
NULL_TRACER = Tracer(enabled=False)
