"""A Spanner-shaped bank: transactions over replicated partitions.

The tutorial's Google Spanner figure, end to end: accounts hash-
partitioned across three Multi-Paxos groups (the storage tier), with
cross-partition transfers driven by 2PL + 2PC (the execution tier).
Crashes a replica in every group mid-workload and shows the transaction
layer never notices.

Run:  python examples/spanner_bank.py
"""

from repro.faults import FaultPlan
from repro.shard import ShardedCluster


def main():
    db = ShardedCluster(n_shards=3, replicas=3, seed=42)

    # Open accounts spread over all three shards.
    accounts = []
    index = 0
    while len({db.shard_of(a) for a in accounts}) < 3 or len(accounts) < 6:
        name = "acct-%d" % index
        accounts.append(name)
        index += 1
    for account in accounts:
        db.put(account, 100)
    print("accounts by shard:")
    for account in accounts:
        print("  %-8s -> shard %s" % (account, db.shard_of(account)))

    total_before = db.total_of(accounts)
    print("\ntotal money:", total_before)

    print("\n== cross-shard transfers ==")
    print("  %s -> %s (40):" % (accounts[0], accounts[1]),
          db.transfer(accounts[0], accounts[1], 40))
    print("  %s -> %s (25):" % (accounts[2], accounts[3]),
          db.transfer(accounts[2], accounts[3], 25))
    print("  overdraft attempt (500):",
          db.transfer(accounts[4], accounts[5], 500))

    print("\n== concurrent conflicting transfers (no-wait 2PL) ==")
    t1 = db.submit((accounts[0], accounts[1]),
                   lambda r: {accounts[0]: r[accounts[0]] - 10,
                              accounts[1]: r[accounts[1]] + 10})
    t2 = db.submit((accounts[1], accounts[2]),
                   lambda r: {accounts[1]: r[accounts[1]] - 5,
                              accounts[2]: r[accounts[2]] + 5})
    db.cluster.run_until(lambda: t1.outcome and t2.outcome, until=4000.0)
    print("  outcomes:", t1.outcome, "/", t2.outcome,
          "(lock conflicts:", db.coordinator.conflicts_seen, ")")

    print("\n== crash one replica in every shard ==")
    plan = FaultPlan(db.cluster).apply(
        [(db.now, "crash", sid + "/follower") for sid in db.shard_groups])
    print("  transfer after crashes:",
          db.transfer(accounts[3], accounts[0], 15))
    print("  crashed:", [name for _at, _kind, name in plan.events])

    db.settle()
    print("\ntotal money now:", db.total_of(accounts),
          "(conserved:", db.total_of(accounts) == total_before, ")")
    print("per-shard replica consistency:", db.check_consistency())


if __name__ == "__main__":
    main()
