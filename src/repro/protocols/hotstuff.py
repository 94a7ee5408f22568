"""HotStuff (Yin et al., PODC 2019) — basic and chained/pipelined.

The tutorial's property box: 3f+1 nodes, **7 phases**, **O(N) linear**
communication.  The linearity trick: each n-to-n phase of PBFT becomes
an n-to-1 vote collection plus a 1-to-n broadcast, with the leader
compressing 2f+1 votes into a constant-size **(k, n)-threshold
signature** — a quorum certificate (QC) anyone can verify.

:class:`BasicHotStuff` is the slides' sequence diagram: request →
prepare → (votes) → pre-commit → (votes) → commit → (votes) → decide —
seven one-way message exchanges, with view change folded into normal
operation.

:class:`ChainedHotStuffReplica` is the pipelined production form: one
*generic* phase per view, a rotating leader, and the three-chain commit
rule — a block is decided when it heads a chain of three blocks with
consecutive views, each certified by a QC.  At steady state the pipeline
decides one block per view, which is the throughput claim E11 measures.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.quorums import CountingQuorum, minimum_nodes
from ..crypto.hashing import sha256_hex
from ..crypto.threshold import ThresholdScheme
from ..net.message import Message
from .replica import Replica, run_closed_loop


# -- basic (sequential) HotStuff ----------------------------------------------

BASIC_PHASES = ("prepare", "pre-commit", "commit", "decide")


@dataclass(frozen=True)
class HsRequest(Message):
    operation: object
    client: str


@dataclass(frozen=True)
class HsPhaseMsg(Message):
    """Leader broadcast for one phase, carrying the previous phase's QC."""

    view: int
    phase: str
    node_hash: str
    operation: object
    justify: object  # ThresholdSignature or None


@dataclass(frozen=True)
class HsVote(Message):
    view: int
    phase: str
    node_hash: str
    partial: object  # PartialSignature


@dataclass(frozen=True)
class HsReply(Message):
    operation: object
    result: object


def _record_vote(votes, key, partial):
    """File ``partial`` under ``votes[key]`` by signer and return that
    ``{signer: partial}`` dict — or ``None`` for a replayed vote, which
    must neither count towards the quorum nor reach ``combine`` as one of
    its k shares (a Byzantine resend, or chained vote recovery re-sending
    to a leader that already holds the vote)."""
    partials = votes.setdefault(key, {})
    if partial.signer in partials:
        return None
    partials[partial.signer] = partial
    return partials


class BasicHotStuffReplica(Replica):
    """One replica of basic (non-pipelined) HotStuff.

    All replicas share a :class:`~repro.crypto.ThresholdScheme` with
    k = 2f+1; the primary of the view drives the four QC phases.
    """

    protocol = "hotstuff"

    def __init__(self, sim, network, name, peers, f, scheme,
                 state_machine_factory=None):
        super().__init__(sim, network, name, peers, f, b=f,
                         state_machine_factory=state_machine_factory)
        self.scheme = scheme
        self.view = 0
        self.decided_ops = []

        # Leader state
        self._queue = []  # pending client requests
        self._current = None  # (node_hash, operation, client)
        self._phase_index = 0
        self._votes = {}  # (phase, node_hash) -> {signer: partial}
        self._busy = False

    # -- client requests ------------------------------------------------------

    def handle_hsrequest(self, msg, src):
        if not self.is_primary:
            self.send(self.primary_name, msg)
            return
        self._queue.append(msg)
        self._maybe_start()

    def _maybe_start(self):
        if self._busy or not self._queue:
            return
        request = self._queue.pop(0)
        node_hash = sha256_hex(self.view, request.operation, request.client)
        self._current = (node_hash, request.operation, request.client)
        self._busy = True
        self._phase_index = 0
        self._broadcast_phase(justify=None)

    def _broadcast_phase(self, justify):
        phase = BASIC_PHASES[self._phase_index]
        node_hash, operation, _client = self._current
        self.mark_phase(phase)
        message = HsPhaseMsg(self.view, phase, node_hash, operation, justify)
        self.multicast(self.other_peers, message)
        self._on_phase_msg(message)  # leader processes its own broadcast

    # -- replica side -----------------------------------------------------------

    def handle_hsphasemsg(self, msg, src):
        if src != self.primary_name:
            return
        self._on_phase_msg(msg)

    def _on_phase_msg(self, msg):
        # Verify the QC chaining: every phase after prepare must carry a
        # valid QC over the previous phase for the same node.
        phase_index = BASIC_PHASES.index(msg.phase)
        if phase_index > 0:
            previous = BASIC_PHASES[phase_index - 1]
            if msg.justify is None or not self.scheme.verify(
                msg.justify, msg.view, previous, msg.node_hash
            ):
                return
        if msg.phase == "decide":
            self._execute(msg)
            return
        partial = self.scheme.sign_share(
            self.name, msg.view, msg.phase, msg.node_hash
        )
        vote = HsVote(msg.view, msg.phase, msg.node_hash, partial)
        if self.is_primary:
            self.handle_hsvote(vote, self.name)
        else:
            self.send(self.primary_name, vote)

    def handle_hsvote(self, msg, src):
        if not self.is_primary or self._current is None:
            return
        if msg.node_hash != self._current[0]:
            return
        partials = _record_vote(self._votes, (msg.phase, msg.node_hash),
                                msg.partial)
        if partials is None or len(partials) < self.quorums.q2:
            return
        if msg.phase != BASIC_PHASES[self._phase_index]:
            return  # stale extra votes
        qc = self.scheme.combine(partials.values(), msg.view, msg.phase,
                                 msg.node_hash)
        self._phase_index += 1
        self._broadcast_phase(justify=qc)

    def _execute(self, msg):
        result = self.state_machine.apply(msg.operation)
        self.decided_ops.append(msg.operation)
        self.trace_local("decide", view=self.view, op=msg.operation)
        if self.is_primary:
            _node_hash, _operation, client = self._current
            self.send(client, HsReply(msg.operation, result))
            self._current = None
            self._busy = False
            self._votes = {}
            self.view += 1  # leader rotation after a single commit attempt
            self._rotate_queue()
        else:
            self.view += 1

    def _rotate_queue(self):
        # After rotation the queue must follow the new leader.
        if self._queue:
            new_leader = self.primary_name
            if new_leader != self.name:
                for request in self._queue:
                    self.send(new_leader, request)
                self._queue = []
            else:
                self.sim.call_soon(self._maybe_start)


class BasicHotStuffClient(ClosedLoopClient):
    """Sends operations one at a time to the current leader (replica 0
    initially; replicas forward after rotation)."""

    handle_hsreply = ClosedLoopClient.on_reply


#: How a client talks to basic HotStuff: the leader rotates with every
#: decision, and a reply names the operation it answers.
CLIENT = BasicHotStuffClient.ROW = ClientProtocol(
    name="hotstuff-basic",
    ident=lambda client, seq, operation: operation,
    request=lambda ident, operation, client=None, signer=None:
        HsRequest(operation, client),
    reply=HsReply.mtype,
    key=attrgetter("operation"),
    need=lambda n, f: 1,
    rotates=True,
)


# -- chained / pipelined HotStuff ---------------------------------------------


@dataclass(frozen=True)
class Block:
    """A chained-HotStuff block: parent pointer + command + justify QC."""

    view: int
    parent: str  # parent block hash
    command: object
    justify_view: int
    justify: object  # ThresholdSignature over (justify_view, parent)

    @cached_property
    def hash(self):
        # Blocks are immutable, and chain walks (_extends, _commit_chain)
        # touch .hash thousands of times per run — cache the digest per
        # instance.  cached_property writes straight into
        # __dict__, which frozen dataclasses allow.
        return sha256_hex(self.view, self.parent, self.command,
                          self.justify_view)


GENESIS = Block(0, "", "genesis", -1, None)


#: The chain entry (see ``ChainedHotStuffReplica._chain_entries``) of
#: genesis, and of a walk that ends at a block this replica does not hold.
_EMPTY_CHAIN = (0, 0, 0)


@dataclass(frozen=True)
class Proposal(Message):
    block: Block


@dataclass(frozen=True)
class GenericVote(Message):
    view: int
    block_hash: str
    partial: object


class ChainedHotStuffReplica(Replica):
    """Chained HotStuff with round-robin leader rotation.

    One generic phase per view: the leader proposes a block justified by
    the highest QC it knows; replicas vote to the *next* leader; the
    next leader's QC doubles as the next proposal's justification.
    Commit rule: a block decides when it starts a three-chain of
    consecutive views (b ← b' ← b'' with QCs all the way).
    """

    protocol = "hotstuff-chained"

    def __init__(self, sim, network, name, peers, f, scheme, commands,
                 view_timeout=15.0):
        super().__init__(sim, network, name, peers, f, b=f)
        self.scheme = scheme
        self.commands = list(commands)  # shared command queue (replicated)
        #: Commands are numbered: one in the queue by its first index
        #: there (the queue is fixed from here on), any other, as blocks
        #: carrying it turn up, from ``len(commands)`` upwards.
        self._queue_index = {}
        for index, command in enumerate(self.commands):
            self._queue_index.setdefault(command, index)
        self._foreign_ids = {}  # command -> its number - len(commands)
        self.view = 1
        self.blocks = {GENESIS.hash: GENESIS}
        #: block hash -> ``(distinct, first_free, beyond)`` for the chain
        #: that ends there: how many distinct commands it carries, the
        #: number of the first queue command it does not carry (all lower
        #: numbers it does; ``len(commands)`` if none is left), and a
        #: bitmask whose bit ``i`` says command ``first_free + i`` is on
        #: it.  Kept only for a chain that reaches genesis: ``blocks`` is
        #: append-only and a hash pins its whole ancestry, so such an
        #: entry never goes stale.
        self._chain_entries = {GENESIS.hash: _EMPTY_CHAIN}
        self.high_qc = (0, GENESIS.hash, None)  # (view, block_hash, qc)
        self.locked = (0, GENESIS.hash)
        self.decided = []  # commands in decided order
        self._decided_set = set()  # the same commands, for membership
        self._votes = {}  # (view, block_hash) -> {signer: partial}
        self._proposed_views = set()
        self._last_voted = None  # (view, block_hash) of our latest vote
        self.view_timeout = view_timeout
        self._timeout_timer = None

    def on_start(self):
        if self.is_primary:
            self.sim.call_soon(self._propose)
        self._arm_timeout()

    def _arm_timeout(self):
        if self._timeout_timer is None:
            self._timeout_timer = self.set_timer(self.view_timeout,
                                                 self._on_timeout)
        else:
            self._timeout_timer.restart(self.view_timeout)

    def _on_timeout(self):
        # Pacemaker fallback: advance the view and, if leader, propose on
        # the highest known QC (handles a crashed leader).
        self.view += 1
        # Vote recovery: if our latest vote's QC never materialised (its
        # collector may be the crashed replica), re-route the vote to the
        # new view's leader so the chain doesn't lose the block.
        if self._last_voted is not None and self._last_voted[0] > self.high_qc[0]:
            voted_view, voted_hash = self._last_voted
            partial = self.scheme.sign_share(self.name, voted_view, voted_hash)
            vote = GenericVote(voted_view, voted_hash, partial)
            new_leader = self.primary_name
            if new_leader == self.name:
                self.handle_genericvote(vote, self.name)
            else:
                self.send(new_leader, vote)
        if self.is_primary:
            self._propose()
        self._arm_timeout()

    def _next_command(self):
        """First queued command not already on the chain we extend."""
        distinct, first_free, _beyond = self._chain_entry(self.high_qc[1])
        if first_free < len(self.commands):
            return self.commands[first_free]
        return "noop-%d" % distinct

    def _chain_entry(self, block_hash):
        """The ``_chain_entries`` entry of the chain ending at
        ``block_hash``, extended from the nearest ancestor that has one.

        A walk back that ends at a parent this replica does not hold sees
        a truncated chain: it starts from the empty entry and records
        nothing, since the parent may still arrive.
        """
        entries = self._chain_entries
        passed = []
        entry = entries.get(block_hash)
        while entry is None:
            block = self.blocks.get(block_hash)
            if block is None:
                break
            passed.append(block)
            block_hash = block.parent
            entry = entries.get(block_hash)
        reaches_genesis = entry is not None
        distinct, first_free, beyond = entry if reaches_genesis else _EMPTY_CHAIN
        commands, queue_index = self.commands, self._queue_index
        foreign_ids, n = self._foreign_ids, len(self.commands)
        for block in reversed(passed):
            number = queue_index.get(block.command)
            if number is None:
                number = n + foreign_ids.setdefault(block.command,
                                                    len(foreign_ids))
            offset = number - first_free
            if offset >= 0 and not beyond >> offset & 1:  # new to the chain
                distinct += 1
                if number == first_free < n:
                    # The first free command itself: move past it and past
                    # what follows that the chain carries already, or that
                    # repeats an earlier queue entry.
                    first_free += 1
                    beyond >>= 1
                    while first_free < n and (
                            beyond & 1
                            or queue_index[commands[first_free]] < first_free):
                        first_free += 1
                        beyond >>= 1
                else:
                    beyond |= 1 << offset
            if reaches_genesis:
                entries[block.hash] = (distinct, first_free, beyond)
        return distinct, first_free, beyond

    def _propose(self):
        if self.view in self._proposed_views or self.crashed:
            return
        self._proposed_views.add(self.view)
        qc_view, qc_hash, qc = self.high_qc
        block = Block(self.view, qc_hash, self._next_command(), qc_view, qc)
        self.mark_phase("propose")
        metrics = self.network.metrics
        label = "hotstuff:%s" % (block.command,)
        if block.command in self._queue_index and not metrics.request_open(label):
            # Span opens when a command first enters a proposed block;
            # a re-proposal after a failed view keeps the original.
            metrics.start_request(label, self.sim.now)
        proposal = Proposal(block)
        self.multicast(self.other_peers, proposal)
        self.handle_proposal(proposal, self.name)

    def handle_proposal(self, msg, src):
        block = msg.block
        if src != self.primary_of(block.view):
            return
        if block.view < self.view:
            return
        # Verify the justify QC.
        if block.justify_view > 0:
            if block.justify is None or not self.scheme.verify(
                block.justify, block.justify_view, block.parent
            ):
                return
        self.blocks[block.hash] = block
        self._update_high_qc(block.justify_view, block.parent, block.justify)
        # Safety rule: vote only if the block extends the locked block or
        # carries a QC newer than the lock.
        if not (self._extends(block, self.locked[1])
                or block.justify_view > self.locked[0]):
            return
        self.view = max(self.view, block.view)
        self._arm_timeout()
        self._try_commit(block)
        partial = self.scheme.sign_share(self.name, block.view, block.hash)
        vote = GenericVote(block.view, block.hash, partial)
        self._last_voted = (block.view, block.hash)
        next_leader = self.primary_of(block.view + 1)
        if next_leader == self.name:
            self.handle_genericvote(vote, self.name)
        else:
            self.send(next_leader, vote)

    def _extends(self, block, ancestor_hash):
        current = block
        for _ in range(len(self.blocks) + 1):
            if current.hash == ancestor_hash or current.parent == ancestor_hash:
                return True
            parent = self.blocks.get(current.parent)
            if parent is None:
                return False
            current = parent
        return False

    def handle_genericvote(self, msg, src):
        partials = _record_vote(self._votes, (msg.view, msg.block_hash),
                                msg.partial)
        # The QC forms once, when the 2f+1-th distinct signer arrives;
        # later votes for the block change nothing.
        if partials is None or len(partials) != self.quorums.q2:
            return
        qc = self.scheme.combine(partials.values(), msg.view, msg.block_hash)
        self._update_high_qc(msg.view, msg.block_hash, qc)
        self.view = max(self.view, msg.view + 1)
        self._arm_timeout()
        if self.is_primary:
            self._propose()

    def _update_high_qc(self, view, block_hash, qc):
        if qc is not None and view > self.high_qc[0]:
            self.high_qc = (view, block_hash, qc)
            # Two-chain lock: lock the parent of the newly certified block.
            block = self.blocks.get(block_hash)
            if block is not None:
                parent = self.blocks.get(block.parent)
                if parent is not None and parent.view > self.locked[0]:
                    self.locked = (parent.view, parent.hash)

    def _try_commit(self, block):
        """Three-chain commit: b'' ← b' ← b with consecutive views."""
        b1 = self.blocks.get(block.parent)  # certified by block.justify
        if b1 is None or block.justify_view != b1.view:
            return
        b2 = self.blocks.get(b1.parent)
        if b2 is None or b1.justify_view != b2.view:
            return
        b3 = self.blocks.get(b2.parent)
        if b3 is None or b2.justify_view != b3.view:
            return
        if b1.view == b2.view + 1 and b2.view == b3.view + 1:
            self._commit_chain(b3)

    def _commit_chain(self, block):
        chain = []
        current = block
        while current is not None \
                and current.command not in self._decided_set \
                and current.hash != GENESIS.hash:
            chain.append(current)
            current = self.blocks.get(current.parent)
        for blk in reversed(chain):
            if blk.command != "genesis":
                self.decided.append(blk.command)
                self._decided_set.add(blk.command)
                metrics = self.network.metrics
                label = "hotstuff:%s" % (blk.command,)
                if metrics.request_open(label):
                    # First replica to three-chain-commit closes the span.
                    metrics.finish_request(label, self.sim.now)
                self.trace_local("decide", view=blk.view,
                                 command=blk.command,
                                 index=len(self.decided) - 1)


# -- drivers -----------------------------------------------------------------


class HotStuffResult(RunResult):
    """What both HotStuff drivers return."""

    def decided_logs(self):
        return [r.decided_ops if hasattr(r, "decided_ops") else r.decided
                for r in self.replicas]

    def logs(self):
        # Positional logs: agreeing per position = per common prefix.
        return [enumerate(log) for log in self.decided_logs()]


def run_basic_hotstuff(cluster, f=1, operations=3, horizon=2000.0):
    """Drive basic HotStuff through ``operations`` sequential commands."""
    names = ["r%d" % i for i in range(minimum_nodes(f, b=f))]
    scheme = ThresholdScheme(
        CountingQuorum.tolerating(names, f, b=f).q2, names)
    replicas = cluster.add_nodes(BasicHotStuffReplica, names, names, f, scheme)
    return run_closed_loop(HotStuffResult, cluster, replicas,
                           BasicHotStuffClient, names, operations,
                           horizon=horizon)


def run_chained_hotstuff(cluster, f=1, commands=8, crash_leader_at=None,
                         horizon=3000.0):
    """Drive chained HotStuff until every command is decided everywhere
    alive."""
    names = ["r%d" % i for i in range(minimum_nodes(f, b=f))]
    scheme = ThresholdScheme(
        CountingQuorum.tolerating(names, f, b=f).q2, names)
    command_list = ["cmd-%d" % i for i in range(commands)]
    replicas = cluster.add_nodes(
        ChainedHotStuffReplica, names, names, f, scheme, command_list
    )
    if crash_leader_at is not None:
        def crash_leader():
            for replica in replicas:
                if replica.is_primary:
                    replica.crash()
                    return
            replicas[1].crash()
        cluster.sim.schedule(crash_leader_at, crash_leader)

    wanted = set(command_list)

    def all_decided():
        # Runs after every event: ``<=`` on two sets compares sizes
        # first, so it is O(1) until a replica has decided enough.
        return all(
            wanted <= r._decided_set for r in replicas if not r.crashed
        )

    cluster.start_all()
    cluster.run_until(all_decided, until=horizon)
    return HotStuffResult(
        replicas=replicas,
        clients=[],
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
