"""Property-based tests for the Stream Filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import StreamFilterConfig
from repro.prefetch.stream_filter import StreamFilter

# random mixtures of interleaved streams and noise
stream_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # region id
        st.integers(min_value=1, max_value=12),  # length
        st.booleans(),  # descending
    ),
    min_size=0,
    max_size=20,
)


def interleaved_reads(specs, interleave_seed):
    """Build a read sequence by round-robin interleaving the streams."""
    streams = []
    for i, (region, length, descending) in enumerate(specs):
        base = region * 1000 + i * 64
        if descending:
            lines = list(range(base + length - 1, base - 1, -1))
        else:
            lines = list(range(base, base + length))
        streams.append(lines)
    out = []
    idx = interleave_seed
    while any(streams):
        live = [s for s in streams if s]
        pick = live[idx % len(live)]
        out.append(pick.pop(0))
        idx += 3
    return out


@given(stream_specs, st.integers(min_value=0, max_value=7))
@settings(max_examples=50)
def test_evicted_read_mass_conserved(specs, seed):
    """Every observed read is eventually credited to exactly one stream:
    the evicted lengths (plus untracked length-1 records) sum to the
    number of reads."""
    total = []
    sf = StreamFilter(
        StreamFilterConfig(slots=4, lifetime_init=6, lifetime_increment=6,
                           lifetime_cap=48),
        on_evict=lambda length, d: total.append(length),
    )
    reads = interleaved_reads(specs, seed)
    for i, line in enumerate(reads):
        sf.observe(line, i)
    sf.flush()
    assert sum(total) == len(reads)


@given(stream_specs, st.integers(min_value=0, max_value=7))
@settings(max_examples=50)
def test_occupancy_never_exceeds_slots(specs, seed):
    sf = StreamFilter(StreamFilterConfig(slots=3))
    for i, line in enumerate(interleaved_reads(specs, seed)):
        sf.observe(line, i)
        assert sf.occupancy <= 3


@given(stream_specs)
@settings(max_examples=50)
def test_positions_grow_by_one_within_stream(specs):
    """Feeding one stream alone, the reported position counts 1,2,3,..."""
    sf = StreamFilter(StreamFilterConfig())
    for region, length, descending in specs[:1]:
        step = -1 if descending else 1
        base = region * 1000 + (length if descending else 0)
        expected = 1
        for k in range(length):
            position, _ = sf.observe(base + k * step, k)
            assert position == expected
            expected += 1


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=150))
@settings(max_examples=50)
def test_never_crashes_on_arbitrary_addresses(random_lines):
    sf = StreamFilter(StreamFilterConfig(slots=2, lifetime_init=3,
                                         lifetime_increment=3,
                                         lifetime_cap=24))
    collected = []
    sf.on_evict = lambda l, d: collected.append((l, d))
    for i, line in enumerate(random_lines):
        obs = sf.observe(line, i)
        if obs is None:  # only a full filter refuses to follow a read
            assert sf.occupancy == 2
        else:
            position, step = obs
            assert position >= 1
            assert step in (1, -1)
    sf.flush()
    assert all(length >= 1 for length, _ in collected)


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30)
def test_isolated_stream_full_length_recorded(length):
    """With no competition, a single stream is credited at full length."""
    seen = []
    sf = StreamFilter(
        StreamFilterConfig(),
        on_evict=lambda l, d: seen.append(l),
    )
    for k in range(length):
        sf.observe(1000 + k, k)
    sf.flush()
    assert seen == [length]
