"""The conservation identities ``System`` checks at the end of every run."""

import pytest

from repro import generate_trace, get_profile, make_config
from repro.system.simulator import System


def milc_system():
    trace = generate_trace(get_profile("milc").workload, 1500, seed=5)
    return System(make_config("PMS"), trace)


# (block whose counter is corrupted, counter, identity the error names)
CORRUPTIONS = [
    (lambda s: s.ms.lpq.stats, "squashed",
     "lpq.pushed == mc.issued_prefetch + lpq.squashed + lpq resident"),
    (lambda s: s.ms.buffer.stats, "read_hits",
     "pb.inserts == pb.read_hits + pb.evicted_unused"),
    (lambda s: s.controller.stats, "reads_ps",
     "mc.reads_arrived == mc.reads_demand + mc.reads_ps"),
    (lambda s: s.ms.stats, "generated", "ms.generated == lpq.pushed"),
    (lambda s: s.dram.stats, "issued_writes",
     "dram.issued == dram.issued_reads + dram.issued_writes"),
]


def test_identities_hold_on_a_clean_run():
    system = milc_system()
    result = system.run()
    assert result.stats["lpq.pushed"] > 0
    # lines still in the Prefetch Buffer close the pb identity
    assert system.ms.buffer.occupancy > 0


@pytest.mark.parametrize(
    "block, key, identity", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS]
)
def test_a_corrupted_counter_fails_the_run(block, key, identity):
    system = milc_system()
    block(system).bump(key)
    with pytest.raises(RuntimeError) as err:
        system.run()
    message = str(err.value)
    assert identity in message
    lhs, rhs = message.rsplit("(", 1)[1].rstrip(")").split(" != ")
    assert float(lhs) != float(rhs)
