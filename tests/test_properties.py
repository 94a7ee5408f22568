"""Property-based tests (hypothesis) on the library's core invariants:
quorum intersection, ballot ordering, canonical hashing, Merkle proofs,
ledger conservation, the OM bound, and Paxos safety under random faults."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain import Ledger, Transaction, make_coinbase
from repro.core import Ballot, CountingQuorum
from repro.crypto import MerkleTree, canonical_bytes
from repro.protocols.interactive_consistency import majority, om_satisfies_ic

# -- ballots -----------------------------------------------------------------

ballots = st.builds(
    Ballot,
    number=st.integers(min_value=0, max_value=1000),
    pid=st.text(alphabet="abcdefgh", min_size=0, max_size=4),
)


@given(ballots, ballots, ballots)
def test_ballot_total_order(a, b, c):
    # Totality
    assert (a < b) or (b < a) or (a == b)
    # Transitivity
    if a < b and b < c:
        assert a < c
    # Antisymmetry
    if a < b:
        assert not (b < a)


@given(ballots, st.text(alphabet="xyz", min_size=1, max_size=3))
def test_successor_strictly_greater(ballot, pid):
    assert ballot.successor(pid) > ballot


# -- quorums -----------------------------------------------------------------


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=20, deadline=None)
def test_majority_quorums_always_intersect(n):
    members = ["n%d" % i for i in range(n)]
    assert CountingQuorum.tolerating(members).intersection_guaranteed()


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=30, deadline=None)
def test_flexible_quorums_intersect_iff_condition(n, data):
    members = ["n%d" % i for i in range(n)]
    q1 = data.draw(st.integers(min_value=1, max_value=n))
    q2 = data.draw(st.integers(min_value=1, max_value=n))
    if q1 + q2 > n:
        assert CountingQuorum(members, q1, q2).intersection_guaranteed()
    else:
        # The condition fails: disjoint Q1/Q2 of these sizes exist.
        q1_set = set(members[:q1])
        q2_set = set(members[n - q2:])
        assert not (q1_set & q2_set)


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_byzantine_quorum_overlap_exceeds_f(f):
    n = 3 * f + 1
    quorum = CountingQuorum.tolerating(["r%d" % i for i in range(n)], f, b=f)
    # Worst case overlap of two 2f+1 quorums out of 3f+1 nodes:
    overlap = 2 * quorum.q1 - n
    assert overlap == f + 1
    assert overlap > f  # contains a correct node


@given(st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_hybrid_quorum_overlap_exceeds_m(m, c):
    if m == 0 and c == 0:
        return
    n = 3 * m + 2 * c + 1
    quorum = CountingQuorum.tolerating(["r%d" % i for i in range(n)], m + c, b=m)
    assert 2 * quorum.q1 - n == m + 1


# -- hashing -------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=10)
    | st.binary(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_canonical_bytes_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(json_values, json_values)
@settings(max_examples=100, deadline=None)
def test_distinct_values_hash_differently(a, b):
    if a != b or type(a) is not type(b):
        if canonical_bytes(a) == canonical_bytes(b):
            # Collisions are only acceptable for equal values.
            assert a == b


# -- merkle -------------------------------------------------------------------


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=12),
       st.data())
@settings(max_examples=50, deadline=None)
def test_merkle_proofs_verify_for_every_leaf(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    assert MerkleTree.verify(leaves[index], tree.proof(index), tree.root)


@given(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=10),
       st.data())
@settings(max_examples=50, deadline=None)
def test_merkle_wrong_leaf_rejected(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    wrong = leaves[index] + "-tampered"
    assert not MerkleTree.verify(wrong, tree.proof(index), tree.root)


# -- ledger -------------------------------------------------------------------


@given(st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.sampled_from(["a", "b", "c"]),
              st.floats(min_value=0.1, max_value=30.0,
                        allow_nan=False)),
    max_size=20,
))
@settings(max_examples=60, deadline=None)
def test_ledger_conserves_supply(transfers):
    ledger = Ledger()
    for name in ("a", "b", "c"):
        ledger.apply(make_coinbase(name, 100.0, 0))
    supply = ledger.total_supply()
    nonces = {"a": 0, "b": 0, "c": 0}
    for sender, recipient, amount in transfers:
        tx = Transaction(sender, recipient, amount, nonces[sender])
        if ledger.can_apply(tx):
            ledger.apply(tx)
            nonces[sender] += 1
        assert abs(ledger.total_supply() - supply) < 1e-6
        assert all(balance >= -1e-9 for balance in ledger.balances.values())


# -- oral messages --------------------------------------------------------------


@given(st.integers(min_value=3, max_value=7), st.data())
@settings(max_examples=25, deadline=None)
def test_om1_bound_exactly_at_four(n, data):
    traitor = data.draw(st.integers(min_value=0, max_value=n - 1))
    satisfied = om_satisfies_ic(1, n, {traitor})
    if n >= 4:
        # At or above 3m+1 every traitor placement is survived.
        assert satisfied
    else:
        # Below the bound a traitorous *lieutenant* breaks the algorithm
        # (a traitorous commander alone yields consistent UNKNOWNs, which
        # vacuously satisfies IC — the impossibility needs only one bad
        # placement).
        assert not om_satisfies_ic(1, n, {n - 1})


@given(st.lists(st.sampled_from(["x", "y", "z"]), max_size=9))
def test_majority_is_strict(values):
    result = majority(values)
    if result != "UNKNOWN":
        assert values.count(result) * 2 > len(values)


# -- end-to-end Paxos safety under random crash patterns ------------------------


@given(st.integers(min_value=0, max_value=10000), st.data())
@settings(max_examples=15, deadline=None)
def test_paxos_never_decides_two_values(seed, data):
    from repro.core import Cluster
    from repro.protocols.paxos import (RandomizedBackoff, chosen_value,
                                       run_basic_paxos)
    n = data.draw(st.sampled_from([3, 5]))
    n_crash = data.draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    crash = tuple(range(n_crash))
    cluster = Cluster(seed=seed)
    result = run_basic_paxos(
        cluster, n_acceptors=n, proposals=("X", "Y"),
        retry=RandomizedBackoff(), stagger=0.5,
        crash_acceptors=crash, horizon=400.0,
    )
    decided = {v for v in result.decided_values if v is not None}
    assert len(decided) <= 1
    quorums = CountingQuorum.tolerating([a.name for a in result.acceptors])
    chosen = chosen_value(result.acceptors, quorums)
    if decided and chosen is not None:
        assert chosen in decided


# -- transactional state machine: serializability on a small model ---------------


@given(st.lists(
    st.tuples(st.sampled_from(["t1", "t2", "t3"]),
              st.sampled_from(["lock", "prepare", "commit", "abort"])),
    max_size=25,
))
@settings(max_examples=60, deadline=None)
def test_txn_state_machine_lock_invariants(script):
    """Whatever command sequence arrives, the lock table never assigns a
    key to two transactions and committed writes only come from lock
    holders."""
    from repro.shard import ShardKVStateMachine
    sm = ShardKVStateMachine()
    sm.apply(("put", "k", 0))
    locked_by = {}
    for txid, action in script:
        if action == "lock":
            result = sm.apply(("txn_lock", txid, ("k",)))
            if result[0] == "ok":
                locked_by["k"] = txid
        elif action == "prepare":
            sm.apply(("txn_prepare", txid, (("k", txid),)))
        elif action == "commit":
            sm.apply(("txn_commit", txid))
            if locked_by.get("k") == txid:
                del locked_by["k"]
        else:
            sm.apply(("txn_abort", txid))
            if locked_by.get("k") == txid:
                del locked_by["k"]
        # Invariant: at most one holder, and it matches our model.
        assert len(sm.locks) <= 1
        if "k" in sm.locks:
            assert sm.locks["k"] == locked_by.get("k", sm.locks["k"])
    # A committed value was written by a transaction that held the lock
    # at prepare time (the SM refuses prepares without locks).
    final = sm.apply(("get", "k"))
    assert final == 0 or final in ("t1", "t2", "t3")


# -- lock service: lease model ----------------------------------------------------


@given(st.lists(
    st.tuples(st.sampled_from(["s1", "s2"]),
              st.sampled_from(["acquire", "release", "keepalive"]),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    max_size=20,
))
@settings(max_examples=60, deadline=None)
def test_lock_lease_never_two_live_holders(script):
    from repro.smr import LockStateMachine
    sm = LockStateMachine()
    script = sorted(script, key=lambda item: item[2])  # time-ordered
    for session, action, now in script:
        if action == "acquire":
            sm.apply(("acquire", "L", session, now, 10.0))
        elif action == "release":
            sm.apply(("release", "L", session, now))
        else:
            sm.apply(("keepalive", session, now, 10.0))
        # At any instant, at most one *live* holder exists by
        # construction (single entry per lock); and an expired entry is
        # never reported as the holder.
        holder = sm.apply(("holder", "L", now))
        entry = sm.locks.get("L")
        if holder is not None:
            assert entry is not None and entry[0] == holder
            assert entry[1] > now


# -- DPoS election --------------------------------------------------------------


@given(st.dictionaries(st.sampled_from(["v1", "v2", "v3", "v4"]),
                       st.floats(min_value=1.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_dpos_witness_set_is_top_k_by_approved_stake(stakes, k):
    from repro.blockchain import elect_witnesses
    votes = {voter: ["w-%s" % voter] for voter in stakes}
    witnesses, weight = elect_witnesses(stakes, votes, k)
    assert len(witnesses) == min(k, len(weight))
    cutoff = min(weight[w] for w in witnesses)
    for candidate, approved in weight.items():
        if candidate not in witnesses:
            assert approved <= cutoff


# -- Tendermint block hashing ------------------------------------------------------


@given(st.integers(min_value=1, max_value=100), st.text(max_size=8),
       st.text(max_size=8))
def test_tendermint_block_hash_binds_fields(height, payload_a, payload_b):
    from repro.protocols.tendermint import TmBlock
    block_a = TmBlock(height, "prev", payload_a)
    block_b = TmBlock(height, "prev", payload_b)
    if payload_a != payload_b:
        assert block_a.hash != block_b.hash
    assert TmBlock(height + 1, "prev", payload_a).hash != block_a.hash


# -- vector clocks ---------------------------------------------------------------


clock_events = st.lists(st.sampled_from(["n1", "n2", "n3"]), max_size=8)


@given(clock_events, clock_events)
@settings(max_examples=80, deadline=None)
def test_vector_clock_partial_order_laws(events_a, events_b):
    from repro.dynamo import VectorClock
    a = VectorClock()
    for node in events_a:
        a = a.increment(node)
    b = VectorClock()
    for node in events_b:
        b = b.increment(node)
    # Reflexivity and antisymmetry of descent.
    assert a.descends_from(a)
    if a.descends_from(b) and b.descends_from(a):
        assert a == b
    # The merge is an upper bound of both.
    merged = a.merge(b)
    assert merged.descends_from(a) and merged.descends_from(b)
    # Concurrency is symmetric and exclusive with descent.
    assert a.concurrent_with(b) == b.concurrent_with(a)
    if a.concurrent_with(b):
        assert not a.descends_from(b) and not b.descends_from(a)


@given(st.lists(
    st.tuples(st.sampled_from(["w1", "w2", "w3"]),
              st.integers(min_value=0, max_value=50)),
    min_size=1, max_size=8,
))
@settings(max_examples=60, deadline=None)
def test_reconcile_frontier_is_an_antichain(writes):
    from repro.dynamo import Versioned, VectorClock, reconcile
    counters = {"w1": 0, "w2": 0, "w3": 0}
    versions = []
    for writer, _salt in writes:
        counters[writer] += 1
        clock = VectorClock.of({writer: counters[writer]})
        versions.append(Versioned("%s-%d" % (writer, counters[writer]),
                                  clock, (float(counters[writer]), writer)))
    frontier = reconcile(versions)
    # Nothing in the frontier dominates anything else in it.
    for x in frontier:
        for y in frontier:
            if x is not y and x.clock != y.clock:
                assert not x.clock.descends_from(y.clock) or \
                    not y.clock.descends_from(x.clock)
    # Every dropped version is dominated by (or LWW-tied with) a survivor.
    for version in versions:
        if version not in frontier:
            assert any(
                survivor.clock.descends_from(version.clock)
                or (survivor.clock == version.clock
                    and survivor.stamp >= version.stamp)
                for survivor in frontier
            )
