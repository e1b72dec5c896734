"""Property-based tests for DRAM timing-protocol safety."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DRAMConfig, DRAMTimingConfig
from repro.common.types import CommandKind, MemoryCommand
from repro.dram.device import DRAMDevice

commands = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # line
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=3),  # cycle gap to next issue
    ),
    max_size=80,
)


def replay(spec):
    """Issue commands as soon as the device accepts them; collect the
    (cas-equivalent) completion schedule per bank and the bus slots."""
    dev = DRAMDevice(DRAMConfig(ranks=1, banks_per_rank=4, row_lines=8))
    now = 0
    completions = []
    for line, is_write, gap in spec:
        now += gap
        cmd = MemoryCommand(
            CommandKind.WRITE if is_write else CommandKind.READ, line
        )
        completion = dev.try_issue(cmd, now)
        while completion is None:
            now += 1
            completion = dev.try_issue(cmd, now)
        completions.append((cmd, now, completion))
    return dev, completions


@given(commands)
@settings(max_examples=40, deadline=None)
def test_completions_after_issue(spec):
    _, completions = replay(spec)
    t = DRAMTimingConfig()
    for _, issued_at, completed_at in completions:
        assert completed_at >= issued_at + min(t.t_wl, t.t_cl) + t.burst_cycles


@given(commands)
@settings(max_examples=40, deadline=None)
def test_data_bus_never_overlaps(spec):
    """Burst windows on the shared data bus must not overlap."""
    _, completions = replay(spec)
    t = DRAMTimingConfig()
    windows = sorted(
        (done - t.burst_cycles, done) for _, _, done in completions
    )
    for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
        assert s2 >= e1


@given(commands)
@settings(max_examples=40, deadline=None)
def test_same_bank_accesses_serialise(spec):
    """Two accesses to one bank never run their bursts concurrently."""
    dev, completions = replay(spec)
    t = DRAMTimingConfig()
    by_bank = {}
    for cmd, _, done in completions:
        bank, _ = dev.locate(cmd.line)
        by_bank.setdefault(bank, []).append((done - t.burst_cycles, done))
    for windows in by_bank.values():
        windows.sort()
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1


@given(commands)
@settings(max_examples=40, deadline=None)
def test_activation_accounting(spec):
    dev, completions = replay(spec)
    assert (
        dev.stats["activations"] + dev.stats["row_hits"]
        == dev.stats["issued"]
        == len(completions)
    )


@given(commands)
@settings(max_examples=40, deadline=None)
def test_row_hits_require_prior_access_to_row(spec):
    """The first access to each (bank, row) can never be a row hit, so
    activations >= number of distinct rows touched."""
    dev, completions = replay(spec)
    distinct_rows = {dev.locate(cmd.line) for cmd, _, _ in completions}
    assert dev.stats["activations"] >= len(distinct_rows)
