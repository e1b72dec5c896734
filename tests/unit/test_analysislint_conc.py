"""CONC rules: seeded fleet-concurrency violations flagged, real tree clean."""

import pytest

from repro.analysislint.concurrency import (
    LockBlockingRule,
    ResourceReleaseRule,
    ThreadLifecycleRule,
)
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("conc_violations.py", "src/repro/obs/conc_violations.py")


@pytest.fixture(scope="module")
def tree():
    return mount(FIXTURE)


class TestThreadLifecycle:
    def test_leaked_and_half_joined_threads_flagged(self, tree):
        findings = ThreadLifecycleRule().check(tree)
        symbols = sorted(f.symbol for f in findings)
        assert symbols == ["Agent.start", "Agent.start_flaky"]
        for f in findings:
            assert "neither daemonized nor joined" in f.message

    def test_daemon_handoff_and_join_variants_clean(self, tree):
        flagged = {f.symbol for f in ThreadLifecycleRule().check(tree)}
        for clean in (
            "Agent.start_daemon",
            "Agent.start_daemon_attr",
            "Agent.start_handoff",
            "Agent.start_joined",
        ):
            assert clean not in flagged

    def test_unbound_thread_is_flagged(self):
        tree = mount_text(
            "import threading\n\n\n"
            "def fire(job):\n"
            "    threading.Thread(target=job).start()\n",
            "src/repro/obs/unbound.py",
        )
        findings = ThreadLifecycleRule().check(tree)
        assert len(findings) == 1
        assert "never bound to a name" in findings[0].message

    def test_waiver_suppresses(self):
        tree = mount_text(
            "import threading\n\n\n"
            "def fire(job):\n"
            "    threading.Thread(target=job).start()  # lint: thread-ok\n",
            "src/repro/obs/waived.py",
        )
        assert ThreadLifecycleRule().check(tree) == []

    def test_out_of_scope_package_ignored(self):
        tree = mount(("conc_violations.py", "src/repro/telemetry/conc.py"))
        assert ThreadLifecycleRule().check(tree) == []


class TestResourceRelease:
    def test_early_return_leak_flagged(self, tree):
        findings = ResourceReleaseRule().check(tree)
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "Poller.fetch"
        assert "not released" in f.message

    def test_finally_with_and_handoff_variants_clean(self, tree):
        flagged = {f.symbol for f in ResourceReleaseRule().check(tree)}
        for clean in ("Poller.fetch_finally", "Poller.read_with", "Poller.open_handoff"):
            assert clean not in flagged

    def test_attribute_store_is_a_handoff(self):
        # the ObsServer shape: the instance owns the release (close())
        tree = mount_text(
            "from http.server import ThreadingHTTPServer\n\n\n"
            "class Server:\n"
            "    def __init__(self, handler):\n"
            "        self._httpd = ThreadingHTTPServer(('', 0), handler)\n",
            "src/repro/obs/attr_store.py",
        )
        assert ResourceReleaseRule().check(tree) == []

    def test_sim_package_is_in_scope(self):
        tree = mount_text(
            "def peek(path, ready):\n"
            "    handle = open(path, 'r')\n"
            "    if not ready:\n"
            "        return None\n"
            "    data = handle.read()\n"
            "    handle.close()\n"
            "    return data\n",
            "src/repro/scenarios/leaky.py",
        )
        findings = ResourceReleaseRule().check(tree)
        assert len(findings) == 1
        assert findings[0].symbol == "peek"


class TestLockBlocking:
    def test_direct_sleep_under_lock_flagged(self, tree):
        findings = LockBlockingRule().check(tree)
        by_symbol = {f.symbol: f for f in findings}
        assert "Coordinator.wait_done" in by_symbol
        assert "time.sleep" in by_symbol["Coordinator.wait_done"].message
        assert "self._lock" in by_symbol["Coordinator.wait_done"].message

    def test_helper_expansion_one_level(self, tree):
        findings = LockBlockingRule().check(tree)
        by_symbol = {f.symbol: f for f in findings}
        assert "Coordinator.drain" in by_symbol
        assert "self._poll_remote() -> time.sleep" in by_symbol["Coordinator.drain"].message

    def test_pure_computation_under_lock_clean(self, tree):
        flagged = {f.symbol for f in LockBlockingRule().check(tree)}
        assert "Coordinator.snapshot" not in flagged

    def test_non_lock_context_managers_ignored(self):
        tree = mount_text(
            "import time\n\n\n"
            "def slow(path):\n"
            "    with open(path) as handle:\n"
            "        time.sleep(1)\n"
            "        return handle.read()\n",
            "src/repro/obs/nolock.py",
        )
        assert LockBlockingRule().check(tree) == []


class TestRealTreeClean:
    @pytest.mark.parametrize(
        "rule_cls", [ThreadLifecycleRule, ResourceReleaseRule, LockBlockingRule]
    )
    def test_real_tree_has_no_findings(self, rule_cls):
        findings = rule_cls().check(real_tree())
        assert findings == [], [f.render() for f in findings]
