"""Tests for Chandra–Toueg consensus and the heartbeat failure detector."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.net import AsynchronousModel
from repro.protocols.chandra_toueg import (
    AlwaysSuspecting,
    CTProcess,
    HeartbeatFailureDetector,
    run_chandra_toueg,
)


class TestFailureDetector:
    class _Owner:
        name = "me"

    def test_suspects_after_timeout(self):
        detector = HeartbeatFailureDetector(self._Owner(), ["me", "p1"],
                                            initial_timeout=5.0)
        assert not detector.suspects("p1", 4.0)
        assert detector.suspects("p1", 6.0)

    def test_heartbeat_unsuspects_and_backs_off(self):
        detector = HeartbeatFailureDetector(self._Owner(), ["me", "p1"],
                                            initial_timeout=5.0)
        assert detector.suspects("p1", 10.0)
        detector.observe("p1", 10.0)  # it was alive after all
        assert detector.timeouts["p1"] == 10.0  # doubled
        assert detector.false_suspicions == 1
        assert not detector.suspects("p1", 15.0)

    def test_never_suspects_self_or_strangers(self):
        detector = HeartbeatFailureDetector(self._Owner(), ["me", "p1"])
        assert not detector.suspects("me", 100.0)
        assert not detector.suspects("ghost", 100.0)


class TestConsensus:
    def test_agreement_and_termination(self, make_cluster):
        for seed in range(6):
            result = run_chandra_toueg(make_cluster(seed=seed), n=5, f=2)
            assert result.agreement(), seed
            assert result.all_decided(), seed

    def test_decided_value_was_proposed(self, make_cluster):
        values = ["a", "b", "c", "d", "e"]
        result = run_chandra_toueg(make_cluster(seed=1), n=5, f=2,
                                   initial_values=values)
        assert result.decided_values()[0] in values

    def test_tolerates_f_crashes_including_coordinators(self, make_cluster):
        # Crash the coordinators of rounds 1 and 2 (indices 1, 2).
        cluster = make_cluster(seed=2)
        FaultPlan(cluster).apply(((0.0, "crash", "ct1"),
                                  (0.0, "crash", "ct2")))
        result = run_chandra_toueg(cluster, n=5, f=2)
        assert result.agreement()
        assert result.all_decided()

    def test_terminates_under_asynchrony(self, make_cluster):
        # FLP's setting; the oracle provides the escape hatch.
        for seed in range(4):
            cluster = make_cluster(
                seed=seed,
                delivery=AsynchronousModel(mean=1.5, tail_prob=0.1,
                                           tail_factor=20.0),
            )
            result = run_chandra_toueg(cluster, n=5, f=2)
            assert result.all_decided(), seed
            assert result.agreement(), seed

    def test_wrong_oracle_costs_liveness_never_safety(self, make_cluster):
        result = run_chandra_toueg(
            make_cluster(seed=4), n=5, f=2,
            detector_factory=lambda owner: AlwaysSuspecting(),
            horizon=300.0, max_rounds=40,
        )
        # Agreement holds vacuously or not — but never two values.
        assert result.agreement()

    def test_configuration_bound(self, cluster):
        with pytest.raises(ConfigurationError):
            CTProcess(cluster.sim, cluster.network, "p0",
                      ["p0", "p1", "p2", "p3"], "v", f=2)  # n <= 2f

    def test_majority_crash_blocks_but_stays_safe(self, make_cluster):
        cluster = make_cluster(seed=5)
        plan = FaultPlan(cluster)
        for name in ("ct0", "ct1", "ct2"):
            plan.crash_at(0.0, name)
        result = run_chandra_toueg(cluster, n=5, f=2, horizon=200.0,
                                   max_rounds=30)
        assert not result.all_decided()
        assert result.agreement()
