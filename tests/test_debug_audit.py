"""One-shot sanitizer checks, and the simulator audited under load.

A lifecycle mark forces every checker of the network sanitizer to sweep
the whole network at once, so marking a detached
:class:`~repro.analysis.sanitizer.NetworkSanitizer` audits the current
state on demand. Running that at random points of randomized simulations
turns the whole simulator into a property under test: credit
conservation, occupancy consistency, the outstanding-event counters, VC
ownership and channel state must hold at every cycle of every workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import NetworkSanitizer
from repro.network.simulator import Simulator

from .conftest import small_config


def audit(simulator):
    """Every invariant violation in *simulator*'s current state."""
    sanitizer = NetworkSanitizer(simulator, raise_on_violation=False)
    sanitizer.on_mark("audit", simulator.now)
    return sanitizer.violations


def rules(violations):
    return {violation.rule for violation in violations}


class TestAuditCatchesCorruption:
    def test_clean_simulator_passes(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(500)
        assert audit(simulator) == []

    def test_detects_occupancy_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        tracker = simulator.routers[4].occupancy[0]
        tracker.occupied += 1  # corrupt
        violations = audit(simulator)
        assert rules(violations) == {"occupancy"}
        assert (violations[0].node, violations[0].port) == (4, 0)
        assert "occupancy tracker" in str(violations[0])

    def test_detects_credit_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        channel = simulator.channels[0]
        state = simulator.routers[channel.spec.src_node].credit_states[
            channel.spec.src_port
        ]
        state.credits[0] -= 1  # corrupt
        assert "credit-conservation" in rules(audit(simulator))

    def test_detects_buffer_count_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        simulator.routers[0].total_buffered += 2
        violations = audit(simulator)
        assert rules(violations) == {"occupancy", "flit-conservation"}
        assert any("total_buffered" in str(v) for v in violations)

    def test_detects_broken_lock_mirror(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.channels[0].dvs.locked = True  # without entering the phase
        violations = audit(simulator)
        assert rules(violations) == {"dvs-transition"}
        assert "locked mirror" in str(violations[0])

    @pytest.mark.parametrize("counter", [0, 1], ids=["transport", "arrivals"])
    def test_detects_event_counter_drift(self, mesh3_config, counter):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        simulator._counters[counter] += 1  # corrupt
        assert rules(audit(simulator)) == {"event-counters"}


class TestInvariantsHoldUnderLoad:
    @pytest.mark.parametrize(
        "policy,rate,routing,checkpoints",
        [
            pytest.param("none", 0.6, "dor", 8, id="none-0.6-dor"),
            pytest.param("history", 0.6, "dor", 8, id="history-0.6-dor"),
            pytest.param("history", 1.2, "dor", 8, id="history-1.2-dor"),
            pytest.param("history", 0.6, "adaptive", 8, id="history-0.6-adaptive"),
            # Links only nap after descending to level 0 and idling for
            # several windows: the first sleeps land near cycle 4,000.
            pytest.param(
                "link_shutdown", 0.02, "dor", 24, id="link_shutdown-0.02-dor"
            ),
        ],
    )
    def test_audit_clean_throughout(self, policy, rate, routing, checkpoints):
        config = small_config(
            policy=policy, rate=rate, routing=routing, warmup=0, measure=100
        )
        simulator = Simulator(config)
        for _ in range(checkpoints):
            simulator.run_cycles(250)
            assert audit(simulator) == []
        if policy == "link_shutdown":
            assert sum(c.dvs.sleep_count for c in simulator.channels) > 0

    def test_audit_clean_on_torus(self):
        config = small_config(
            radix=4, wraparound=True, rate=0.8, warmup=0, measure=100
        )
        simulator = Simulator(config)
        for _ in range(6):
            simulator.run_cycles(250)
            assert audit(simulator) == []

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.05, max_value=2.0),
        checkpoint=st.integers(min_value=50, max_value=1_500),
    )
    def test_audit_clean_randomized(self, seed, rate, checkpoint):
        config = small_config(
            policy="history",
            rate=rate,
            seed=seed,
            workload_kind="two_level",
            warmup=0,
            measure=100,
            average_tasks=6,
            average_task_duration_s=4.0e-6,
            onoff_sources_per_task=4,
        )
        simulator = Simulator(config)
        simulator.run_cycles(checkpoint)
        assert audit(simulator) == []
        simulator.run_cycles(checkpoint)
        assert audit(simulator) == []
