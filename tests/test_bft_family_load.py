"""Three closed-loop clients against every replica of the PBFT family.

With one client, a slot commits only after the one before it executed,
so a replica that executes a slot the moment it commits looks right.
Three clients of ten operations each interleave the commits.  Every
client must finish, every replica's log must ascend, and replicas that
applied equally many operations must hold the same state.
"""

from types import SimpleNamespace

import pytest

from repro.core.client import RunResult
from repro.protocols import cheapbft, minbft, pbft, seemore, xft, zyzzyva
from repro.protocols.replica import ListStateMachine
from repro.smr.checker import check_state_machines

FAMILY = {
    "pbft": lambda cluster: pbft.run_pbft(
        cluster, n_clients=3, operations_per_client=10),
    "minbft": lambda cluster: minbft.run_minbft(
        cluster, operations=10, n_clients=3),
    "cheapbft": lambda cluster: cheapbft.run_cheapbft(
        cluster, operations=10, n_clients=3),
    "zyzzyva": lambda cluster: zyzzyva.run_zyzzyva(
        cluster, operations=10, n_clients=3),
    "xft": lambda cluster: xft.run_xft(cluster, operations=10, n_clients=3),
}
for _mode in (1, 2, 3):
    FAMILY["seemore-%d" % _mode] = (
        lambda cluster, mode=_mode: seemore.run_seemore(
            cluster, mode=mode, operations=10, n_clients=3))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("protocol", sorted(FAMILY))
def test_three_clients_finish_with_ascending_agreeing_logs(
        make_cluster, protocol, seed):
    result = FAMILY[protocol](make_cluster(seed=seed))
    assert [len(c.results) for c in result.clients] == [10, 10, 10]
    assert result.logs_consistent()
    assert check_state_machines(
        [r.state_machine for r in result.replicas if not r.crashed])


@pytest.mark.parametrize("seed", (7, 8, 9))
def test_stock_seemore_mode3_finishes(make_cluster, seed):
    # A proxy whose VALIDATE quorum completed after another proxy's
    # ACCEPT arrived used to never accept, and the run went quiet.
    result = seemore.run_seemore(make_cluster(seed=seed), mode=3)
    assert len(result.clients[0].results) == 3


def test_xft_follower_executes_what_its_leader_prepared(make_cluster):
    result = xft.run_xft(make_cluster(seed=0))
    leader, follower = result.replicas[0], result.replicas[1]
    assert follower.executed == leader.executed == [
        (0, "op-0"), (1, "op-1"), (2, "op-2")]


def test_a_log_out_of_position_order_is_inconsistent():
    def result(*logs):
        return RunResult([SimpleNamespace(executed=log) for log in logs],
                         [], 0, 0.0)

    assert result([(0, "a"), (1, "b")], [(0, "a")]).logs_consistent()
    assert not result([(1, "b"), (0, "a")]).logs_consistent()
    assert not result([(0, "a"), (0, "a")]).logs_consistent()


def test_list_state_machine_counts_what_it_applied():
    machine = ListStateMachine()
    machine.apply("x")
    machine.apply("y")
    other = ListStateMachine()
    other.restore(machine.snapshot())
    assert machine.ops_applied == other.ops_applied == 2
    assert check_state_machines([machine, other])
