"""Unit tests for repro.obs.critpath.

Builds small synthetic span trees with known geometry so every number
the analyzer reports — critical path, self time, straggler share,
idle — can be asserted exactly.  Includes the seeded skewed-grid
scenario from the issue: one benchmark dominates the sweep and the
summary must name it.
"""

from repro.obs.critpath import (
    analyze,
    critical_path,
    primary_trace,
    render_summary,
    self_times,
)
from repro.obs.spans import make_span

TRACE = "t" * 32


def span(name, start, duration, span_id=None, parent=None, **attrs):
    return make_span(name, start, duration, TRACE, span_id=span_id,
                     parent_id=parent, attributes=attrs)


def skewed_sweep():
    """A 4-job sweep where milc/PS is 6x slower than everything else."""
    root = span("sweep.run_jobs", 0.0, 10.0, span_id="root")
    jobs = [
        span("sweep.job", 0.0, 1.0, span_id="j1", parent="root",
             benchmark="tonto", config="NP"),
        span("sweep.job", 0.0, 1.2, span_id="j2", parent="root",
             benchmark="tonto", config="PS"),
        span("sweep.job", 1.0, 1.1, span_id="j3", parent="root",
             benchmark="milc", config="NP"),
        span("sweep.job", 1.2, 8.0, span_id="j4", parent="root",
             benchmark="milc", config="PS"),
    ]
    return [root] + jobs


class TestPrimaryTrace:
    def test_largest_trace_wins(self):
        other = make_span("x", 0.0, 1.0, "a" * 32)
        spans = skewed_sweep() + [other]
        trace = primary_trace(spans)
        assert len(trace) == 5
        assert all(doc["trace"] == TRACE for doc in trace)

    def test_empty(self):
        assert primary_trace([]) == []


class TestCriticalPath:
    def test_descends_into_latest_finishing_child(self):
        chain = critical_path(skewed_sweep())
        assert [doc["span"] for doc in chain] == ["root", "j4"]

    def test_orphan_parents_treated_as_roots(self):
        # a job span whose sweep parent never reached this snapshot
        orphan = span("sweep.exec", 5.0, 2.0, span_id="o1",
                      parent="never-seen")
        chain = critical_path([orphan])
        assert chain == [orphan]


class TestSelfTimes:
    def test_parent_minus_children_union(self):
        docs = [
            span("root", 0.0, 10.0, span_id="r"),
            # children overlap 2..4: union covers 0..6, not 8 seconds
            span("child", 0.0, 4.0, span_id="c1", parent="r"),
            span("child", 2.0, 4.0, span_id="c2", parent="r"),
        ]
        rollup = self_times(docs)
        assert rollup["root"] == 4.0
        assert rollup["child"] == 8.0

    def test_children_clipped_to_parent(self):
        docs = [
            span("root", 0.0, 2.0, span_id="r"),
            span("child", 1.0, 5.0, span_id="c", parent="r"),  # overruns
        ]
        assert self_times(docs)["root"] == 1.0


class TestAnalyze:
    def test_empty_input(self):
        analysis = analyze([])
        assert analysis["spans"] == 0
        assert analysis["critical_path"] == []
        assert analysis["straggler"] is None

    def test_skewed_grid_straggler_is_named(self):
        analysis = analyze(skewed_sweep())
        assert analysis["spans"] == 5
        assert analysis["wall_s"] == 10.0
        straggler = analysis["straggler"]
        assert straggler["label"] == "milc/PS"
        assert straggler["duration_s"] == 8.0
        assert straggler["share"] == 0.8

    def test_idle_counts_gaps_nobody_worked(self):
        # jobs cover 0..2.3 and 1.2..9.2 of the 10s root: the union is
        # 0..9.2, so 0.8s of the root had no span running at all
        analysis = analyze(skewed_sweep())
        assert abs(analysis["idle_s"] - 0.8) < 1e-9

    def test_idle_sees_grandchildren(self):
        # run_jobs spans hang off the suite root and job spans off
        # run_jobs; work done two levels down still is not idle time
        docs = [
            span("sweep.suite", 0.0, 4.0, span_id="r"),
            span("sweep.run_jobs", 0.0, 0.0, span_id="l", parent="r"),
            span("sweep.job", 0.0, 4.0, span_id="e", parent="l"),
        ]
        assert analyze(docs)["idle_s"] == 0.0

    def test_straggler_falls_back_to_longest_leaf(self):
        docs = [
            span("root", 0.0, 3.0, span_id="r"),
            span("leafy", 0.0, 2.0, span_id="a", parent="r"),
        ]
        assert analyze(docs)["straggler"]["name"] == "leafy"


class TestRenderSummary:
    def test_no_spans(self):
        assert render_summary(analyze([])) == "trace: no spans recorded"

    def test_summary_names_the_straggler(self):
        text = render_summary(analyze(skewed_sweep()))
        lines = text.splitlines()
        assert lines[0].startswith("trace: 5 spans in 1 trace(s)")
        assert "critical path" in lines[0]
        assert "straggler: milc/PS 8.00s (80% of wall)" in lines[1]
        assert lines[2].startswith("self-time:")

    def test_millisecond_formatting(self):
        docs = [span("quick", 0.0, 0.05, span_id="q")]
        assert "50ms" in render_summary(analyze(docs))
