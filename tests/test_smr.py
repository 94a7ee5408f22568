"""Tests for the SMR layer: state machines, consistency checking, and
the ReplicatedKV public API."""

import pytest

from repro.core.exceptions import SafetyViolation
from repro.smr import (
    BankStateMachine,
    KVStateMachine,
    ReplicatedKV,
    check_log_consistency,
    check_state_machines,
    common_prefix_length,
)


class TestKVStateMachine:
    def setup_method(self):
        self.sm = KVStateMachine()

    def test_put_get_delete(self):
        assert self.sm.apply(("put", "k", 1)) is None
        assert self.sm.apply(("get", "k")) == 1
        assert self.sm.apply(("put", "k", 2)) == 1
        assert self.sm.apply(("delete", "k")) == 2
        assert self.sm.apply(("get", "k")) is None

    def test_incr_from_missing(self):
        assert self.sm.apply(("incr", "c")) == 1
        assert self.sm.apply(("incr", "c", 5)) == 6

    def test_cas(self):
        self.sm.apply(("put", "k", "a"))
        assert self.sm.apply(("cas", "k", "a", "b")) is True
        assert self.sm.apply(("cas", "k", "a", "c")) is False
        assert self.sm.apply(("get", "k")) == "b"

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            self.sm.apply(("frobnicate", "k"))

    def test_malformed_command_raises(self):
        with pytest.raises(ValueError):
            self.sm.apply("not-a-tuple")

    def test_determinism(self):
        commands = [("put", "a", 1), ("incr", "b"), ("cas", "a", 1, 9),
                    ("delete", "c"), ("get", "a")]
        m1, m2 = KVStateMachine(), KVStateMachine()
        r1 = [m1.apply(c) for c in commands]
        r2 = [m2.apply(c) for c in commands]
        assert r1 == r2 and m1.snapshot() == m2.snapshot()


class TestBankStateMachine:
    def test_transfers_conserve_money(self):
        bank = BankStateMachine()
        bank.apply(("open", "a", 100))
        bank.apply(("open", "b", 50))
        total = bank.total_money()
        bank.apply(("transfer", "a", "b", 30))
        bank.apply(("transfer", "b", "a", 80))
        assert bank.total_money() == total

    def test_overdraft_rejected_deterministically(self):
        bank = BankStateMachine()
        bank.apply(("open", "a", 10))
        bank.apply(("open", "b", 0))
        assert bank.apply(("transfer", "a", "b", 100)) is False
        assert bank.transfers_rejected == 1
        assert bank.apply(("balance", "a")) == 10

    def test_double_open_rejected(self):
        bank = BankStateMachine()
        assert bank.apply(("open", "a", 10)) is True
        assert bank.apply(("open", "a", 99)) is False
        assert bank.apply(("balance", "a")) == 10


class TestCheckers:
    def test_consistent_logs_pass(self):
        logs = [[(0, "a"), (1, "b")], [(0, "a")], [(0, "a"), (1, "b"), (2, "c")]]
        assert check_log_consistency(logs)

    def test_conflict_detected(self):
        logs = [[(0, "a"), (1, "b")], [(1, "X")]]
        assert not check_log_consistency(logs)
        with pytest.raises(SafetyViolation):
            check_log_consistency(logs, raise_on_violation=True)

    def test_state_machine_divergence_detected(self):
        m1, m2 = KVStateMachine(), KVStateMachine()
        m1.apply(("put", "k", 1))
        m2.apply(("put", "k", 2))
        assert not check_state_machines([m1, m2])

    def test_unequal_progress_is_not_divergence(self):
        m1, m2 = KVStateMachine(), KVStateMachine()
        m1.apply(("put", "k", 1))
        m1.apply(("put", "j", 2))
        m2.apply(("put", "k", 1))
        assert check_state_machines([m1, m2])

    def test_common_prefix_length(self):
        logs = [[(0, "a"), (1, "b"), (2, "c")], [(0, "a"), (1, "b")]]
        assert common_prefix_length(logs) == 2


@pytest.mark.parametrize("protocol,n", [("multi-paxos", 3), ("raft", 3),
                                        ("pbft", 4), ("pbft", 5), ("pbft", 6)])
class TestReplicatedKV:
    def test_basic_operations(self, protocol, n):
        kv = ReplicatedKV(n_replicas=n, protocol=protocol, seed=5)
        assert kv.put("a", 1) is None
        assert kv.get("a") == 1
        assert kv.incr("counter") == 1
        assert kv.delete("a") == 1
        assert kv.get("a") is None

    def test_survives_leader_crash(self, protocol, n):
        kv = ReplicatedKV(n_replicas=n, protocol=protocol, seed=5)
        kv.put("before", "crash")
        assert kv.crash_leader() is not None
        kv.put("after", "crash")
        assert kv.get("before") == "crash"
        assert kv.get("after") == "crash"
        kv.settle()
        assert kv.check_consistency()

    def test_identical_seeds_replay_identically(self, protocol, n):
        def history(seed):
            kv = ReplicatedKV(n_replicas=n, protocol=protocol, seed=seed)
            results = [kv.put("k%d" % i, i) for i in range(3)]
            results.append(kv.cluster.now)
            return results

        assert history(9) == history(9)


class TestReplicatedKVValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedKV(protocol="gossip")

    def test_pbft_needs_four(self):
        with pytest.raises(ValueError):
            ReplicatedKV(n_replicas=3, protocol="pbft")

    @pytest.mark.parametrize("n", range(4, 11))
    def test_pbft_quorums_share_a_correct_replica(self, n):
        """The store runs PBFT with f = (n-1)//3 at any n, so a quorum
        of 2f+1 would let two quorums meet in fewer than f+1 replicas
        (n = 5, 8, 9) or not at all (n = 6)."""
        kv = ReplicatedKV(n_replicas=n, protocol="pbft")
        f = (n - 1) // 3
        for replica in kv.replicas:
            q1, q2 = replica.quorums.q1, replica.quorums.q2
            assert min(2 * q1, q1 + q2, 2 * q2) - n >= f + 1
            assert n - f >= max(q1, q2)  # f faulty replicas cannot stall it
