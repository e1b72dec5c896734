"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces public methods of the simulator's
components with timing wrappers, keeps one stack of open calls so that
each call's *self* time is its duration minus the time of the wrapped
calls it made, and aggregates per method in memory (a traced run makes
millions of calls, far too many to keep one span each).  Job-level
spans (workload, job, simulate, store get/put) are few, so they are
also kept one by one.

Wrap targets are resolved on the class of each live component the
first time a :class:`~repro.system.simulator.System` is built, so
whichever processor-side prefetcher or scheduler class a config picks
is covered.  A method that does not exist (renamed or inlined by a
later change) is recorded as absent instead of failing the run, and
:meth:`LayerTracer.restore` puts every original back.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: (layer, attribute path from the System instance, public methods).
COMPONENT_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cpu", "core",
     ("tick", "linear_horizon", "consume_wait", "skippable_ticks", "consume_bulk")),
    ("cache", "hierarchy",
     ("access", "fill_from_memory", "present_level", "cached_anywhere")),
    ("prefetch.ps", "ps", ("observe", "notify_fill")),
    ("controller", "controller",
     ("enqueue", "tick", "bulk_tick", "next_scheduler_event",
      "note_wait_refusal", "idle")),
    ("controller.schedulers", "controller.scheduler",
     ("select", "notify_issue", "has_issuable")),
    ("prefetch.ms", "ms",
     ("observe_read", "observe_write", "read_lookup", "would_serve",
      "try_merge", "notify_issue", "notify_complete", "tick")),
    ("dram", "dram",
     ("try_issue", "ready_now", "earliest_issue_cycle", "bank_holder",
      "catch_up_refreshes", "is_row_hit")),
)

#: Calls recorded one span each (parent links kept), by method key.
RECORDED = ("experiments:runner.simulate_job", "experiments.store:ResultStore.get",
            "experiments.store:ResultStore.put")


class LayerTracer:
    """Stack-based self-time accounting over wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # child-time accumulators of open calls; [0] absorbs calls made
        # outside any span so a stray call never underflows the stack
        self._stack: List[float] = [0.0]
        self._open_spans: List[int] = []
        #: "layer:Owner.method" -> [calls, total_s, self_s]
        self.methods: Dict[str, List[float]] = {}
        self.spans: List[Dict[str, object]] = []
        self.absent: List[str] = []
        #: one entry per traced System.run: loop stats and machine facts
        self.systems: List[Dict[str, float]] = []
        self._installed: List[Tuple[object, str, bool, object]] = []
        self._wrapped: Set[Tuple[object, str]] = set()
        self._wrapped_classes: Set[type] = set()
        self._t0 = clock()

    # -- accounting ----------------------------------------------------
    def _acc(self, key: str) -> List[float]:
        acc = self.methods.get(key)
        if acc is None:
            acc = self.methods[key] = [0, 0.0, 0.0]
        return acc

    def timed(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to add its calls, total and self time to ``key``."""
        if key in RECORDED:
            return self._recorded(key, fn)
        acc = self._acc(key)
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def _recorded(self, key: str, fn: Callable) -> Callable:
        layer, name = key.split(":", 1)

        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """One recorded span, nested under the innermost open one."""
        acc = self._acc(f"{layer}:{name}")
        record: Dict[str, object] = {
            "id": len(self.spans),
            "parent": self._open_spans[-1] if self._open_spans else None,
            "name": name,
            "layer": layer,
            **attrs,
        }
        self.spans.append(record)
        self._open_spans.append(record["id"])
        stack = self._stack
        stack.append(0.0)
        start = self.clock()
        try:
            yield record
        finally:
            elapsed = self.clock() - start
            child = stack.pop()
            stack[-1] += elapsed
            self._open_spans.pop()
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += elapsed - child
            record["start_s"] = start - self._t0
            record["dur_s"] = elapsed
            record["self_s"] = elapsed - child

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self_s)}`` over every method of the layer."""
        out: Dict[str, Tuple[int, float]] = {}
        for key, (calls, _total, self_s) in self.methods.items():
            layer = key.split(":", 1)[0]
            prev_calls, prev_self = out.get(layer, (0, 0.0))
            out[layer] = (prev_calls + int(calls), prev_self + self_s)
        return out

    # -- installation --------------------------------------------------
    def wrap_method(self, layer: str, cls: type, name: str) -> bool:
        """Wrap ``name`` where ``cls``'s MRO defines it, if it exists.

        Wrapping the defining class also catches calls made through a
        base class, such as ``Scheduler.has_issuable(...)``.
        """
        owner = next((c for c in cls.__mro__ if name in vars(c)), None)
        if owner is not None and (owner, name) in self._wrapped:
            return True
        original = vars(owner)[name] if owner is not None else None
        static = isinstance(original, staticmethod)
        if static:
            original = original.__func__
        if not isinstance(original, types.FunctionType):
            key = f"{layer}:{cls.__name__}.{name}"
            if key not in self.absent:
                self.absent.append(key)
            return False
        wrapper = self.timed(f"{layer}:{owner.__name__}.{name}", original)
        self._install(owner, name, staticmethod(wrapper) if static else wrapper)
        return True

    def wrap_function(self, layer: str, module: types.ModuleType, name: str) -> bool:
        """Wrap a module-level function, looked up at call time by callers."""
        key = f"{layer}:{module.__name__.rsplit('.', 1)[-1]}.{name}"
        original = getattr(module, name, None)
        if not isinstance(original, types.FunctionType):
            self.absent.append(key)
            return False
        self._install(module, name, self.timed(key, original))
        return True

    def _install(self, owner: object, name: str, replacement: object) -> None:
        had_own = name in vars(owner)
        self._installed.append((owner, name, had_own, vars(owner).get(name)))
        self._wrapped.add((owner, name))
        setattr(owner, name, replacement)

    def wrap_components(self, system: object) -> None:
        """Wrap the classes of ``system``'s live components, once each."""
        for layer, path, methods in COMPONENT_TARGETS:
            component: Optional[object] = system
            for part in path.split("."):
                component = getattr(component, part, None)
            if component is None:
                key = f"{layer}:{path}"
                if key not in self.absent:
                    self.absent.append(key)
                continue
            cls = type(component)
            if cls in self._wrapped_classes:
                continue
            self._wrapped_classes.add(cls)
            for name in methods:
                self.wrap_method(layer, cls, name)

    def install_system(self, system_cls: type) -> None:
        """Wrap ``System`` so every instance built gets traced components.

        ``System.run`` also records each run's loop statistics and DRAM
        data-bus busy cycles in :attr:`systems`.
        """
        tracer = self

        def traced_init(init):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                tracer.wrap_components(self)
            return __init__

        def traced_run(run):
            def run_and_record(self, *args, **kwargs):
                result = run(self, *args, **kwargs)
                cycles = getattr(self, "now", 0)
                utilization = getattr(getattr(self, "dram", None), "utilization", None)
                tracer.systems.append({
                    **{k: v for k, v in getattr(self, "loop_stats", {}).items()
                       if isinstance(v, (int, float))},
                    "cycles": cycles,
                    # clamped to the elapsed cycles, as the device reports it
                    "dram_busy": utilization(cycles) * cycles if utilization else 0.0,
                })
                return result
            return run_and_record

        for name, hook in (("__init__", traced_init), ("run", traced_run)):
            original = vars(system_cls).get(name)
            if isinstance(original, types.FunctionType):
                self._install(system_cls, name,
                              self.timed(f"system:{system_cls.__name__}.{name}", hook(original)))
            else:
                self.absent.append(f"system:{system_cls.__name__}.{name}")
        self._wrapped_classes.add(system_cls)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, name, had_own, original = self._installed.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._wrapped.clear()
        self._wrapped_classes.clear()

    def to_json(self) -> Dict[str, object]:
        return {
            "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in self.layer_totals().items()},
            "methods": {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                        for k, v in sorted(self.methods.items())},
            "absent": list(self.absent),
            "spans": self.spans,
        }
