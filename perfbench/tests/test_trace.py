"""Self-time arithmetic and wrapper installation of bench_trace."""

import pytest
from bench_trace import LayerTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    leaf = tracer.timed("dram:D.try_issue", lambda: clock.advance(2.0))

    def mid():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.5)

    middle = tracer.timed("controller:C.tick", mid)
    with tracer.span("workload", "experiments"):
        clock.advance(0.25)
        middle()
        with tracer.span("job", "experiments"):
            clock.advance(3.0)

    totals = tracer.layer_totals()
    assert totals["dram"] == (2, 4.0)
    assert totals["controller"] == (1, 1.5)
    assert totals["experiments"] == (2, 3.25)
    assert sum(s for _, s in totals.values()) == pytest.approx(8.75)
    root = tracer.spans[0]
    assert root["dur_s"] == pytest.approx(8.75) and root["parent"] is None
    assert tracer.spans[1]["parent"] == root["id"]
    assert tracer.methods["controller:C.tick"] == [1, 5.5, 1.5]


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("inner")

    inner = tracer.timed("cpu:Core.tick", boom)
    with pytest.raises(ValueError):
        with tracer.span("workload", "experiments"):
            inner()
    with tracer.span("workload", "experiments"):
        clock.advance(2.0)
    assert tracer.layer_totals() == {"cpu": (1, 1.0), "experiments": (2, 2.0)}


class Base:
    def shared(self):
        return "base"

    @staticmethod
    def check(x):
        return x * 2


class Live(Base):
    def own(self):
        return Base.check(3)


class Other(Base):
    pass


def test_wrap_resolves_defining_class_and_restores():
    originals = dict(vars(Base)), dict(vars(Live))
    tracer = LayerTracer()
    assert tracer.wrap_method("cpu", Live, "own")
    assert tracer.wrap_method("cpu", Live, "shared")
    assert tracer.wrap_method("cpu", Live, "check")
    assert tracer.wrap_method("cpu", Other, "shared")  # same definition: once
    assert not tracer.wrap_method("cpu", Live, "renamed_later")
    assert Live().own() == 6 and Other().shared() == "base"
    assert tracer.methods["cpu:Live.own"][0] == 1
    assert tracer.methods["cpu:Base.check"][0] == 1  # called through the base
    assert tracer.methods["cpu:Base.shared"][0] == 1
    assert tracer.absent == ["cpu:Live.renamed_later"]
    tracer.restore()
    assert (dict(vars(Base)), dict(vars(Live))) == originals
    assert "shared" not in vars(Live)


def test_missing_component_is_absent_not_fatal():
    class Machine:
        def __init__(self):
            self.core = Live()  # every other component is missing

    tracer = LayerTracer()
    tracer.wrap_components(Machine())
    tracer.restore()
    assert "cache:hierarchy" in tracer.absent
    assert "cpu:Live.tick" in tracer.absent
