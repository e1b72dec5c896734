"""Golden equality: the event-driven loop against the per-cycle oracle.

The ``reference`` main-loop mode is the literal per-cycle tick — the
executable specification.  The ``event`` mode fast-forwards
deterministic waits and must land on a field-for-field identical
:class:`~repro.system.results.RunResult` (cycles, instructions, every
stat, power) for every benchmark character, config, and thread count.
"""

import pytest

from repro import generate_trace, get_profile, make_config
from repro.system.simulator import (
    LOOP_MODES,
    System,
    default_loop_mode,
    resolve_loop_mode,
    simulate,
)
from repro.telemetry.tracer import Tracer
from repro.workloads.profiles import SUITES

#: First benchmark of each suite: streaming FP, NAS kernel, commercial.
BENCHMARKS = tuple(names[0] for names in SUITES.values())

CONFIGS = ("NP", "PS", "MS", "PMS")

ACCESSES = 700


def _traces(benchmark, threads, seed=11):
    profile = get_profile(benchmark)
    return [
        generate_trace(profile.workload, ACCESSES, seed=seed + t)
        for t in range(threads)
    ]


def _run(config_name, traces, loop, tracer=None):
    config = make_config(config_name, threads=len(traces))
    system = System(config, traces, tracer=tracer)
    result = system.run(loop=loop)
    return system, result


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_event_loop_matches_reference(bench, config_name, threads):
    traces = _traces(bench, threads)
    _, ref = _run(config_name, traces, "reference")
    system, evt = _run(config_name, traces, "event")
    assert evt == ref  # RunResult equality is field-for-field
    # not vacuous: the event loop actually fast-forwarded
    assert system.loop_stats["jumps"] > 0
    assert system.loop_stats["cycles_skipped"] > 0
    assert (
        system.loop_stats["ticks_executed"]
        + system.loop_stats["cycles_skipped"]
        == evt.cycles
    )


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_per_command_marks_retire_with_their_commands(bench, config_name, threads):
    # the Adaptive Scheduling conflict marks and the Figure-13 delayed
    # marks are per-command: a drained machine must hold none, whichever
    # exit (issue, Prefetch Buffer hit, merge, RAW forward) a read took
    system, _ = _run(config_name, _traces(bench, threads), "event")
    assert not system.controller._conflict_counted
    assert not system.controller._delayed_counted


@pytest.mark.parametrize("loop", LOOP_MODES)
def test_ticks_integral_covers_all_cycles(loop):
    # occupancy averages divide by mc.ticks: it must count every
    # simulated cycle, fast-forwarded ones included
    traces = _traces(BENCHMARKS[0], 1)
    _, result = _run("PMS", traces, loop)
    assert result.stats["mc.ticks"] == result.cycles


@pytest.mark.parametrize("loop", LOOP_MODES)
def test_max_cycles_raises_in_both_modes(loop):
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("PMS", threads=1)
    with pytest.raises(RuntimeError, match="exceeded"):
        System(config, traces).run(max_cycles=500, loop=loop)


def test_event_mode_never_overshoots_cap():
    # the cap must fire even when it lands inside a fast-forward window
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("PMS", threads=1)
    system = System(config, traces)
    with pytest.raises(RuntimeError, match="exceeded"):
        system.run(max_cycles=500, loop="event")
    assert system.now <= 501


def test_queue_depth_samples_identical_across_modes():
    # fast-forward jumps must not drop the 256-cycle telemetry samples
    traces = _traces(BENCHMARKS[0], 1)
    samples = {}
    for loop in LOOP_MODES:
        tracer = Tracer(enabled=True)
        collected = samples[loop] = []
        tracer.subscribe(
            lambda e, out=collected: out.append(
                (e.t, e.read_queue, e.write_queue, e.caq, e.lpq)
            ),
            kinds=("queue_depth",),
        )
        _run("PMS", traces, loop, tracer=tracer)
    assert samples["event"] == samples["reference"]
    assert len(samples["event"]) > 2


def test_resolve_loop_mode_validates():
    assert resolve_loop_mode(None) == default_loop_mode()
    assert resolve_loop_mode("reference") == "reference"
    with pytest.raises(ValueError, match="unknown loop mode"):
        resolve_loop_mode("turbo")


def test_env_default_loop_mode(monkeypatch):
    monkeypatch.setenv("REPRO_LOOP", "reference")
    assert default_loop_mode() == "reference"
    assert resolve_loop_mode(None) == "reference"


def test_simulate_passes_loop_through():
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("MS", threads=1)
    ref = simulate(config, traces, loop="reference")
    evt = simulate(config, traces, loop="event")
    assert ref == evt
