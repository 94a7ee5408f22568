"""Tests for Raft: elections, log replication/repair, commit rules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Cluster
from repro.protocols.raft import LogEntry, RaftNode, Role, run_raft
from repro.trace import assert_unique_leader_per_view


class TestElections:
    def test_exactly_one_leader_per_term(self, make_cluster):
        for seed in range(5):
            cluster = make_cluster(seed=seed, trace=True)
            result = run_raft(cluster, n_nodes=5, n_clients=1,
                              commands_per_client=2)
            leaders_by_term = {}
            for node in result.nodes:
                if node.role is Role.LEADER:
                    leaders_by_term.setdefault(node.current_term, set()).add(
                        node.name
                    )
            for term, leaders in leaders_by_term.items():
                assert len(leaders) == 1, (seed, term)
            # Stronger than the end-state scan above: no two nodes ever
            # *declared* leadership for one term, anywhere in the run.
            assert_unique_leader_per_view(cluster.trace, "term")

    def test_election_restriction_rejects_stale_logs(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        # n0 has a longer, newer log: it must not vote for n1.
        nodes[0].log = [LogEntry(1, "a"), LogEntry(2, "b")]
        nodes[0].current_term = 2
        nodes[1].current_term = 2
        from repro.protocols.raft import RequestVote
        nodes[0].handle_requestvote(RequestVote(3, 0, 1), "n1")
        assert nodes[0].voted_for != "n1"

    def test_higher_term_dethrones_leader(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        nodes[0].role = Role.LEADER
        nodes[0].current_term = 1
        from repro.protocols.raft import AppendEntries
        nodes[0].handle_appendentries(AppendEntries(5, -1, 0, (), -1), "n1")
        assert nodes[0].role is Role.FOLLOWER
        assert nodes[0].current_term == 5


class TestReplication:
    def test_commands_replicate_and_apply(self, cluster):
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        leader = result.leader()
        assert leader is not None
        assert len(leader.committed_log()) == 5

    def test_multiple_clients_interleave_consistently(self, make_cluster):
        result = run_raft(make_cluster(seed=8), n_nodes=5, n_clients=3,
                          commands_per_client=3)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_followers_catch_up_via_heartbeat_commit(self, cluster):
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=3)
        cluster.sim.run_for(30.0)
        lengths = [len(n.committed_log()) for n in result.nodes]
        assert all(length == 3 for length in lengths)


class TestLeaderCrash:
    def test_progress_after_leader_crash(self, make_cluster):
        for seed in (11, 23):
            result = run_raft(make_cluster(seed=seed), n_nodes=5, n_clients=1,
                              commands_per_client=8, crash_leader_at=25.0)
            assert all(c.done for c in result.clients), seed
            assert result.logs_consistent(), seed

    def test_terms_increase_after_crash(self, make_cluster):
        result = run_raft(make_cluster(seed=11), n_nodes=5, n_clients=1,
                          commands_per_client=6, crash_leader_at=25.0)
        alive_terms = [n.current_term for n in result.nodes if not n.crashed]
        assert max(alive_terms) >= 2

    def test_restarted_node_rejoins_consistently(self, make_cluster):
        cluster = make_cluster(seed=13)
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=5, crash_leader_at=20.0)
        crashed = [n for n in result.nodes if n.crashed]
        for node in crashed:
            node.restart()
        cluster.sim.run_for(80.0)
        assert result.logs_consistent()


class TestLogRepair:
    def test_divergent_follower_log_truncated(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        follower = nodes[1]
        # Follower holds uncommitted garbage from a dead leader's term.
        follower.log = [LogEntry(1, "good"), LogEntry(1, "stale-a"),
                        LogEntry(1, "stale-b")]
        from repro.protocols.raft import AppendEntries
        follower.current_term = 2
        follower.handle_appendentries(
            AppendEntries(2, 0, 1, (LogEntry(2, "new"),), 1), "n0"
        )
        commands = [entry.command for entry in follower.log]
        assert commands == ["good", "new"]

    def test_append_rejected_on_prev_mismatch(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        follower = nodes[1]
        from repro.protocols.raft import AppendEntries
        follower.handle_appendentries(
            AppendEntries(1, 5, 1, (LogEntry(1, "x"),), -1), "n0"
        )
        assert follower.log == []  # gap: refused


class TestLogCompaction:
    """Raft snapshots: applied prefixes are discarded; laggards get
    InstallSnapshot instead of unavailable entries."""

    def test_log_stays_bounded(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=20, snapshot_threshold=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        for node in result.nodes:
            assert len(node.log) <= 6
        assert any(node.snapshots_taken > 0 for node in result.nodes)

    def test_state_survives_compaction(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=15, snapshot_threshold=4)
        cluster_histories = [n.state_machine.history for n in result.nodes]
        longest = max(cluster_histories, key=len)
        assert len(longest) == 15
        for history in cluster_histories:
            assert history == longest[: len(history)]

    def test_lagging_follower_installed_snapshot(self, make_cluster):
        from repro.protocols.raft import RaftClient, RaftNode
        cluster = make_cluster(seed=7)
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names,
                                  snapshot_threshold=4)
        client = cluster.add_node(
            RaftClient, "c0", names, ["x%d" % i for i in range(12)]
        )

        def block_n2(src, dst, msg):
            if "n2" in (src, dst) and 5.0 < cluster.sim.now < 120.0:
                return False
            return None

        cluster.network.add_interceptor(block_n2)
        cluster.start_all()
        cluster.run_until(lambda: client.done, until=2000.0)
        cluster.sim.run_for(200.0)
        laggard = nodes[2]
        assert laggard.snapshots_installed >= 1
        leader_history = max((n.state_machine.history for n in nodes),
                             key=len)
        assert laggard.state_machine.history == \
            leader_history[: len(laggard.state_machine.history)]
        assert len(laggard.state_machine.history) >= 10

    def test_no_compaction_without_threshold(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=10)
        assert all(node.snapshots_taken == 0 for node in result.nodes)
        assert all(node.log_base == 0 for node in result.nodes)


class TestAdvanceCommit:
    """The leader's commit rule against its definition, entry by entry."""

    @staticmethod
    def _by_definition(node):
        for index in range(node.last_log_index(), node.commit_index, -1):
            if node._term_at(index) != node.current_term:
                break
            if sum(m >= index for m in node.match_index.values()) \
                    >= node.quorums.q2:
                return index
        return node.commit_index

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from([3, 4, 5]),
           terms=st.lists(st.integers(1, 3), min_size=1, max_size=8))
    def test_matches_the_per_index_count(self, data, n, terms):
        names = ["n%d" % i for i in range(n)]
        node = Cluster(seed=0).add_nodes(RaftNode, names, names)[0]
        terms = sorted(terms)
        node.log = [LogEntry(term, "cmd-%d" % i) for i, term in enumerate(terms)]
        node.current_term = data.draw(st.sampled_from([terms[-1], terms[-1] + 1]))
        last = node.last_log_index()
        node.commit_index = node.last_applied = data.draw(st.integers(-1, last))
        node.state_machine.history = [None] * (node.last_applied + 1)
        node.match_index = {name: data.draw(st.integers(-1, last + 1))
                            for name in names}
        node.match_index[node.name] = last
        expected = self._by_definition(node)
        node._advance_commit()
        assert node.commit_index == node.last_applied == expected
