"""Detail tests for protocol mechanisms not covered by scenario runs."""




class TestZyzzyvaHistoryChain:
    def test_replica_rejects_inconsistent_history(self, cluster):
        from repro.protocols.zyzzyva import (OrderReq, ZyzRequest,
                                             ZyzzyvaReplica)
        names = ["r%d" % i for i in range(4)]
        replicas = cluster.add_nodes(ZyzzyvaReplica, names, names, 1)
        cluster.add_node(__import__("repro.core", fromlist=["Node"]).Node,
                         "cli")
        backup = replicas[1]
        request = ZyzRequest("op", 0.0, "cli")
        # A primary claiming a history hash that doesn't chain from the
        # backup's current history must be refused (no execution).
        bogus = OrderReq(0, 0, "f" * 64, request)
        backup.handle_orderreq(bogus, "r0")
        assert backup.speculative_log == []

    def test_history_hash_chains_across_requests(self, cluster):
        from repro.protocols.zyzzyva import run_zyzzyva
        result = run_zyzzyva(cluster, f=1, operations=3)
        histories = {r.history for r in result.replicas}
        assert len(histories) == 1  # all replicas end on the same chain


class TestXftLazyUpdates:
    def test_passive_replicas_learn_lazily(self, cluster):
        from repro.protocols.xft import run_xft
        result = run_xft(cluster, f=2, operations=3)  # n=5, group of 3
        cluster.sim.run_for(40.0)
        group = set(result.replicas[0].sync_group)
        passive = [r for r in result.replicas if r.name not in group]
        assert passive  # f passive replicas exist
        for replica in passive:
            assert len(replica.executed) == 3  # lazy updates arrived

    def test_lazy_update_count_matches_operations(self, cluster):
        from repro.protocols.xft import run_xft
        run_xft(cluster, f=1, operations=4)
        cluster.sim.run_for(40.0)
        assert cluster.metrics.by_type["xlazyupdate"] == 4  # 1 passive x 4


class TestHotStuffClientRotation:
    def test_queue_follows_the_rotating_leader(self, cluster):
        from repro.protocols.hotstuff import run_basic_hotstuff
        result = run_basic_hotstuff(cluster, f=1, operations=4)
        assert result.clients[0].done
        # Each commit rotates the leader; four ops pass through at least
        # two distinct leaders' queues.
        assert max(r.view for r in result.replicas) >= 4


class TestTendermintPayloads:
    def test_custom_payload_source(self, cluster):
        from repro.protocols.tendermint import TendermintNode
        names = ["v%d" % i for i in range(4)]
        validators = [
            cluster.add_node(TendermintNode, name, names, 1,
                             payload_source=lambda h: {"height": h},
                             target_height=2)
            for name in names
        ]
        cluster.start_all()
        cluster.run_until(
            lambda: all(len(v.chain) >= 2 for v in validators), until=500.0
        )
        payloads = [block.payload for block in validators[0].chain]
        assert payloads == [{"height": 1}, {"height": 2}]


class TestBenOrCoinUsage:
    def test_coin_flips_only_on_total_ambiguity(self, make_cluster):
        # With 4-of-5 agreeing initially, the majority report short-circuits
        # any coin flip: decided in round 1.
        from repro.protocols.benor import run_benor
        result = run_benor(make_cluster(seed=3), n=5, f=1,
                           initial_values=[1, 1, 1, 1, 0])
        assert result.max_round() == 1
        assert set(result.decided_values()) == {1}


class TestChandraTouegRotation:
    def test_coordinator_rotates_past_crash(self, make_cluster):
        from repro.faults import FaultPlan
        from repro.protocols.chandra_toueg import run_chandra_toueg
        cluster = make_cluster(seed=6)
        FaultPlan(cluster).crash_at(0.0, "ct1")
        result = run_chandra_toueg(cluster, n=5, f=2)
        # Round 1's coordinator (index 1) is dead: deciders needed >= 2
        # rounds.
        rounds = [p.decided_round for p in result.processes
                  if p.decided_round is not None]
        assert min(rounds) >= 2
        assert result.agreement()


class TestMinerMempool:
    def test_confirmed_transactions_leave_mempool(self, cluster):
        from repro.blockchain.miner import Miner
        from repro.blockchain import make_transaction
        from repro.crypto import HASH_SPACE, KeyRegistry
        keys = KeyRegistry()
        names = ["m0", "m1"]
        params = {"initial_target": int(HASH_SPACE / (200.0 * 10.0)),
                  "target_block_time": 10.0, "pow_check": False,
                  "keys": keys}
        miners = [cluster.add_node(Miner, n, names, 100.0,
                                   chain_params=params) for n in names]
        cluster.start_all()
        tx = make_transaction(keys, "satoshi", "alice", 1.0, 0)
        miners[0].submit_transaction(tx)
        cluster.run(until=600.0)
        for miner in miners:
            miner.hashrate = 0.0
        cluster.run(until=1000.0)
        confirmed = any(
            miner.chain.ledger().balance("alice") == 1.0 for miner in miners
        )
        assert confirmed
        assert all(tx.txid not in miner.mempool for miner in miners)
