"""Quickstart: a replicated key-value store in a dozen lines.

Spins up a 3-replica Multi-Paxos cluster on the discrete-event
simulator, runs commands through real protocol traffic, crashes the
leader mid-workload and later restarts it (its log and ballot are
durable, its leadership is not), and verifies that nothing was lost and
no two replicas disagree.

Run:  python examples/quickstart.py
"""

from repro.smr import ReplicatedKV


def main():
    store = ReplicatedKV(n_replicas=3, protocol="multi-paxos", seed=7)

    print("== writes through consensus ==")
    store.put("language", "python")
    store.put("protocol", "multi-paxos")
    print("language =", store.get("language"))
    print("counter ->", store.incr("counter"), store.incr("counter"))

    print("\n== crash the leader ==")
    crashed = store.crash_leader()
    print("crashed:", crashed)

    print("\n== the cluster keeps serving ==")
    store.put("survived", True)
    print("survived =", store.get("survived"))

    print("\n== the crashed replica restarts ==")
    names = [replica.name for replica in store.replicas]
    store.restart_replica(names.index(crashed))
    print("language =", store.get("language"), "(old data intact)")

    store.settle()
    print("\nconsistent across replicas:", store.check_consistency())
    print("committed log lengths:", [len(log) for log in store.logs()])
    print("virtual time elapsed: %.1f units; real protocol messages: %d"
          % (store.cluster.now, store.cluster.metrics.messages_total))


if __name__ == "__main__":
    main()
