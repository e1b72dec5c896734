"""Pinned results for the five fixed LPQ policies (Figure 11).

The event and reference loops share the Final Scheduler, so their
golden equality cannot catch a wrong LPQ-vs-CAQ choice.  These records
were taken before the scheduler's hot path was rewritten; every
``PMS_POLICY<k>`` run on the same short trace must still match them
field for field.

Regenerate (only for a change meant to alter simulated results)::

    PYTHONPATH=src python -m tests.integration.test_fixed_policy_results
"""

import json
from pathlib import Path

import pytest

from repro import generate_trace, get_profile, make_config
from repro.experiments.store import decode_result, encode_result
from repro.system.simulator import System

RECORDS = Path(__file__).with_name("data") / "fixed_policy_results.json"

BENCHMARK = "milc"
ACCESSES = 1500
SEED = 11
CONFIGS = tuple(f"PMS_POLICY{k}" for k in range(1, 6))


def _run(config_name):
    trace = generate_trace(get_profile(BENCHMARK).workload, ACCESSES, seed=SEED)
    return System(make_config(config_name), [trace]).run(loop="event")


def _records():
    return json.loads(RECORDS.read_text())


@pytest.mark.parametrize("config_name", CONFIGS)
def test_fixed_policy_result_unchanged(config_name):
    assert _run(config_name) == decode_result(_records()[config_name])


def test_records_tell_the_policies_apart():
    # the trace must make every policy choose differently somewhere,
    # or a swapped predicate could slip through unnoticed
    cycles = [_records()[name]["cycles"] for name in CONFIGS]
    assert len(set(cycles)) == len(CONFIGS)


if __name__ == "__main__":
    RECORDS.write_text(
        json.dumps(
            {name: encode_result(_run(name)) for name in CONFIGS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {RECORDS}")
