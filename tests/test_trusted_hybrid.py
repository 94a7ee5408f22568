"""Tests for the trusted-component and hybrid-fault protocols:
MinBFT, CheapBFT, UpRight, SeeMoRe, XFT."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.faults import FaultPlan, Silence
from repro.protocols.cheapbft import run_cheapbft
from repro.protocols.minbft import MinBftReplica, run_minbft
from repro.protocols.seemore import run_seemore
from repro.protocols.upright import run_upright
from repro.protocols.xft import (
    in_anarchy,
    run_xft,
    run_xft_anarchy,
    run_xft_no_anarchy_control,
)


class TestMinBft:
    def test_2f_plus_1_suffices_with_usig(self, make_cluster):
        for seed in range(1, 4):
            result = run_minbft(make_cluster(seed=seed), f=1, operations=4)
            assert result.clients[0].done, seed
            assert result.logs_consistent(), seed
            assert len(result.replicas) == 3  # not 3f+1 = 4

    def test_f2_cluster(self, make_cluster):
        result = run_minbft(make_cluster(seed=9), f=2, operations=3)
        assert result.clients[0].done and result.logs_consistent()

    def test_configuration_bound(self, cluster):
        with pytest.raises(ConfigurationError):
            MinBftReplica(cluster.sim, cluster.network, "r0", ["r0", "r1"],
                          1, cluster.usig_authority)

    def test_two_phases_only(self, cluster):
        run_minbft(cluster, f=1, operations=2)
        by_type = cluster.metrics.by_type
        assert by_type["minprepare"] > 0
        assert by_type["mincommit"] > 0
        # no third phase message type exists in the module
        assert "pre-prepare" not in by_type

    def test_fewer_messages_than_pbft(self, make_cluster):
        from repro.protocols.pbft import run_pbft
        mc = make_cluster(seed=1)
        run_minbft(mc, f=1, operations=3)
        pc = make_cluster(seed=1)
        run_pbft(pc, f=1, n_clients=1, operations_per_client=3)
        assert mc.metrics.messages_total < pc.metrics.messages_total

    def test_execution_in_counter_order(self, make_cluster):
        result = run_minbft(make_cluster(seed=2), f=1, operations=5)
        for replica in result.replicas:
            counters = [counter for counter, _op in replica.executed]
            assert counters == sorted(counters)


class TestCheapBft:
    def test_fault_free_stays_in_cheaptiny(self, cluster):
        result = run_cheapbft(cluster, f=1, operations=4)
        assert result.clients[0].done
        assert result.modes() == ["tiny", "tiny", "tiny"]
        assert result.clients[0].panics_sent == 0

    def test_only_active_replicas_in_tiny_agreement(self, cluster):
        run_cheapbft(cluster, f=1, operations=3)
        by_sender = cluster.metrics.by_sender
        # The passive replica (r2) sends nothing during CheapTiny.
        assert by_sender.get("r2", 0) == 0

    def test_cheaper_than_minbft(self, make_cluster):
        cc = make_cluster(seed=1)
        run_cheapbft(cc, f=1, operations=4)
        mc = make_cluster(seed=1)
        run_minbft(mc, f=1, operations=4)
        assert cc.metrics.messages_total < mc.metrics.messages_total

    def test_active_crash_switches_to_minbft(self, make_cluster):
        for seed in (2, 5):
            cluster = make_cluster(seed=seed)
            FaultPlan(cluster).crash_at(3.0, "r1")  # active, not primary
            result = run_cheapbft(cluster, f=1, operations=4)
            assert result.clients[0].done, seed
            assert result.clients[0].panics_sent >= 1
            live_modes = [r.mode for r in result.replicas if not r.crashed]
            assert all(m == "minbft" for m in live_modes)
            assert result.logs_consistent(), seed

    def test_passive_replicas_track_state(self, cluster):
        result = run_cheapbft(cluster, f=1, operations=4)
        cluster.sim.run_for(30.0)
        passive = result.replicas[2]
        assert len(passive.executed) == 4

    def test_f2_switch(self, make_cluster):
        cluster = make_cluster(seed=3)
        FaultPlan(cluster).crash_at(3.0, "r2")  # active, not primary
        result = run_cheapbft(cluster, f=2, operations=3)
        assert result.clients[0].done and result.logs_consistent()


class TestUpRight:
    def test_nodes_formula_3m_2c_1(self, cluster):
        result = run_upright(cluster, m=1, c=1, operations=2)
        assert len(result.replicas) == 6
        assert result.replicas[0].quorums.q2 == 4  # 2m+c+1
        assert result.clients[0].done

    def test_tolerates_exactly_m_and_c(self, make_cluster):
        cluster = make_cluster(seed=2)
        FaultPlan(cluster).crash_at(0.0, "r5")
        Silence(cluster, "r4").install()
        result = run_upright(cluster, m=1, c=1, operations=3)
        assert result.clients[0].done
        assert result.logs_consistent()

    def test_stalls_beyond_budget(self, make_cluster):
        cluster = make_cluster(seed=3)
        FaultPlan(cluster).apply(((0.0, "crash", "r4"),
                                  (0.0, "crash", "r5")))
        Silence(cluster, "r3").install()
        result = run_upright(cluster, m=1, c=1, operations=2, horizon=300.0)
        assert not result.clients[0].done  # liveness gone
        assert result.logs_consistent()    # safety intact

    def test_degenerate_paxos_mode(self, make_cluster):
        # m=0: n=2c+1, quorum c+1 — Paxos arithmetic.
        result = run_upright(make_cluster(seed=4), m=0, c=1, operations=2)
        assert len(result.replicas) == 3
        assert result.replicas[0].quorums.q2 == 2
        assert result.clients[0].done


class TestSeeMoRe:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_all_modes_complete(self, make_cluster, mode):
        result = run_seemore(make_cluster(seed=mode), mode=mode, m=1, c=1,
                             operations=3)
        assert result.clients[0].done
        assert result.logs_consistent()

    def test_mode1_centralized_quorum(self, cluster):
        result = run_seemore(cluster, mode=1, m=1, c=1, operations=1)
        replica = result.replicas[0]
        assert replica._quorum() == 4  # 2m+c+1

    def test_modes23_proxy_quorum(self, make_cluster):
        for mode in (2, 3):
            result = run_seemore(make_cluster(seed=mode), mode=mode, m=1,
                                 c=1, operations=1)
            replica = result.replicas[0]
            assert replica._quorum() == 3  # 2m+1

    def test_mode3_has_validation_phase(self, make_cluster):
        cluster = make_cluster(seed=3)
        run_seemore(cluster, mode=3, m=1, c=1, operations=2)
        assert cluster.metrics.by_type["smvalidate"] > 0

    def test_mode2_skips_validation(self, make_cluster):
        cluster = make_cluster(seed=2)
        run_seemore(cluster, mode=2, m=1, c=1, operations=2)
        assert cluster.metrics.by_type.get("smvalidate", 0) == 0

    def test_message_cost_ordering(self, make_cluster):
        costs = {}
        for mode in (1, 2, 3):
            cluster = make_cluster(seed=7)
            run_seemore(cluster, mode=mode, m=1, c=1, operations=3)
            costs[mode] = cluster.metrics.messages_total
        assert costs[1] < costs[2] < costs[3]

    def test_untrusted_primary_sits_in_public_cloud(self, make_cluster):
        result = run_seemore(make_cluster(seed=5), mode=3, m=1, c=1,
                             operations=1)
        replica = result.replicas[0]
        assert replica.primary_name.startswith("pub")


class TestXft:
    def test_anarchy_predicate(self):
        assert in_anarchy(3, crashed=0, byzantine=1, partitioned=1)
        assert not in_anarchy(3, crashed=1, byzantine=0, partitioned=1)
        assert not in_anarchy(3, crashed=0, byzantine=1, partitioned=0)
        assert not in_anarchy(5, crashed=1, byzantine=1, partitioned=0)
        assert in_anarchy(5, crashed=2, byzantine=1, partitioned=0)

    def test_common_case_2f_plus_1_two_phases(self, cluster):
        result = run_xft(cluster, f=1, operations=3)
        assert result.clients[0].done
        assert len(result.replicas) == 3
        assert result.logs_consistent()

    def test_group_crash_triggers_view_change(self, make_cluster):
        cluster = make_cluster(seed=2)
        FaultPlan(cluster).crash_at(3.0, "r1")  # in view 0's group
        result = run_xft(cluster, f=1, operations=3)
        assert result.clients[0].done
        assert result.logs_consistent()
        live_views = [r.view for r in result.replicas if not r.crashed]
        assert max(live_views) >= 1

    def test_cheaper_than_pbft(self, make_cluster):
        from repro.protocols.pbft import run_pbft
        xc = make_cluster(seed=1)
        run_xft(xc, f=1, operations=3)
        pc = make_cluster(seed=1)
        run_pbft(pc, f=1, n_clients=1, operations_per_client=3)
        assert xc.metrics.messages_total < pc.metrics.messages_total

    def test_anarchy_divergence(self, make_cluster):
        result = run_xft_anarchy(make_cluster(seed=3))
        assert not result.logs_consistent()
        honest = {r.name: dict(r.executed) for r in result.replicas
                  if r.name in ("r1", "r2")}
        assert honest["r1"][0] != honest["r2"][0]

    def test_no_anarchy_control_safe(self, make_cluster):
        result = run_xft_no_anarchy_control(make_cluster(seed=3))
        assert result.logs_consistent()
