"""Tests for Ben-Or randomized consensus — the FLP circumvention."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.net import AsynchronousModel
from repro.protocols.benor import BenOrNode, run_benor


class TestSafety:
    def test_agreement_across_many_seeds(self, make_cluster):
        for seed in range(12):
            result = run_benor(make_cluster(seed=seed), n=5, f=1)
            assert result.agreement(), seed
            assert result.all_decided(), seed

    def test_validity_unanimous_input_decided_in_round_one(self, cluster):
        result = run_benor(cluster, n=5, f=1, initial_values=[1] * 5)
        assert result.decided_values() == [1] * 5
        assert result.max_round() == 1

    def test_validity_unanimous_zero(self, cluster):
        result = run_benor(cluster, n=5, f=1, initial_values=[0] * 5)
        assert result.decided_values() == [0] * 5

    def test_decided_value_was_an_input(self, make_cluster):
        for seed in range(6):
            result = run_benor(make_cluster(seed=seed), n=5, f=1,
                               initial_values=[0, 0, 1, 1, 1])
            values = set(result.decided_values())
            assert values <= {0, 1}

    def test_configuration_bound(self, cluster):
        with pytest.raises(ConfigurationError):
            BenOrNode(cluster.sim, cluster.network, "p0", ["p0", "p1"],
                      0, f=1)


class TestLiveness:
    def test_terminates_despite_crash(self, make_cluster):
        for seed in range(8):
            cluster = make_cluster(seed=seed)
            FaultPlan(cluster).crash_at(0.0, "p4")
            result = run_benor(cluster, n=5, f=1)
            assert result.all_decided(), seed
            assert result.agreement(), seed

    def test_terminates_under_adversarial_asynchrony(self, make_cluster):
        # FLP's setting: unbounded delays with heavy tails — the coin
        # still gets us out.
        rounds = []
        for seed in range(10):
            cluster = make_cluster(
                seed=seed,
                delivery=AsynchronousModel(mean=1.0, tail_prob=0.15,
                                           tail_factor=30.0),
            )
            FaultPlan(cluster).crash_at(0.0, "p0")
            result = run_benor(cluster, n=5, f=1)
            assert result.all_decided(), seed
            rounds.append(result.max_round())
        assert max(rounds) <= 50  # probabilistic but fast in practice

    def test_split_inputs_need_more_rounds_than_unanimous(self, make_cluster):
        split_rounds, unanimous_rounds = [], []
        for seed in range(8):
            split = run_benor(make_cluster(seed=seed), n=5, f=1,
                              initial_values=[0, 1, 0, 1, 0])
            unanimous = run_benor(make_cluster(seed=seed + 100), n=5, f=1,
                                  initial_values=[1] * 5)
            split_rounds.append(split.max_round())
            unanimous_rounds.append(unanimous.max_round())
        assert max(unanimous_rounds) == 1
        assert max(split_rounds) >= 2
