"""Tendermint-style BFT (the tutorial's closing slide: "has its own
consensus protocol — extends PBFT with leader rotation").

Permissioned-blockchain consensus: a sequence of *heights*, each decided
by rounds of **propose → prevote → precommit** among 3f+1 validators,
with a proposer rotating every round.  The safety core is the locking
rule: a validator that sees 2f+1 prevotes for a block *locks* on it and
will prevote nothing else in later rounds of the same height until a
newer lock replaces it; any two 2f+1 quorums intersect in an honest
validator, so conflicting blocks can never both gather precommit
quorums.  Liveness comes from round timeouts rotating the proposer —
view change folded into normal operation, like HotStuff.

The decided values form a hash-linked chain of blocks, which is what
makes this "blockchain consensus" rather than one-shot agreement.
"""

import enum
from dataclasses import dataclass

from ..core.quorums import minimum_nodes
from ..crypto.hashing import sha256_hex
from ..net.message import Message
from .replica import Replica

NIL = "<nil>"


@dataclass(frozen=True)
class TmBlock:
    height: int
    prev_hash: str
    payload: object

    @property
    def hash(self):
        return sha256_hex(self.height, self.prev_hash, self.payload)


@dataclass(frozen=True)
class TmProposal(Message):
    height: int
    round: int
    block: TmBlock

    @property
    def digest(self):
        """The proposed block's hash, lifted into trace detail so
        equivocating proposals are comparable across receivers."""
        return self.block.hash


@dataclass(frozen=True)
class Prevote(Message):
    height: int
    round: int
    block_hash: str  # or NIL


@dataclass(frozen=True)
class Precommit(Message):
    height: int
    round: int
    block_hash: str  # or NIL


class Step(enum.Enum):
    """Position within a Tendermint round."""

    PROPOSE = "propose"
    PREVOTE = "prevote"
    PRECOMMIT = "precommit"


class TendermintNode(Replica):
    """One validator.

    Parameters
    ----------
    payload_source:
        Callable height -> payload for blocks this validator proposes.
    """

    PROPOSE_TIMEOUT = 6.0
    VOTE_TIMEOUT = 6.0
    protocol = "tendermint"

    def __init__(self, sim, network, name, peers, f, payload_source=None,
                 target_height=None):
        super().__init__(sim, network, name, peers, f, b=f)
        self.payload_source = payload_source or (lambda h: "block-%d" % h)
        self.target_height = target_height

        self.height = 1
        self.round = 0
        self.step = Step.PROPOSE
        self.locked_hash = None
        self.locked_block = None
        self.locked_round = -1
        self.chain = []  # committed TmBlocks
        self._blocks = {}  # hash -> TmBlock (seen proposals)
        self._prevotes = {}  # (height, round) -> {sender: hash}
        self._precommits = {}  # (height, round) -> {sender: hash}
        self._step_timer = None
        self.rounds_used = {}  # height -> rounds consumed

    # -- round structure --------------------------------------------------------

    def proposer_of(self, height, round_):
        return self.primary_of(height + round_)

    @property
    def prev_hash(self):
        return self.chain[-1].hash if self.chain else "genesis"

    def on_start(self):
        self._enter_round(0)

    def _done(self):
        return (self.target_height is not None
                and len(self.chain) >= self.target_height)

    def _enter_round(self, round_):
        if self.crashed or self._done():
            return
        self.round = round_
        self.step = Step.PROPOSE
        self.rounds_used[self.height] = round_ + 1
        if self.proposer_of(self.height, round_) == self.name:
            block = self.locked_block if self.locked_block is not None else \
                TmBlock(self.height, self.prev_hash,
                        self.payload_source(self.height))
            self.mark_phase("propose")
            proposal = TmProposal(self.height, round_, block)
            self._on_proposal(proposal, self.name)
            self.multicast(self.other_peers, proposal)
        self._arm_step_timer(self.PROPOSE_TIMEOUT, self._on_propose_timeout,
                             self.height, round_)

    def _arm_step_timer(self, delay, callback, *args):
        if self._step_timer is not None:
            self._step_timer.cancel()
        self._step_timer = self.set_timer(delay, callback, *args)

    # -- propose ------------------------------------------------------------------

    def handle_tmproposal(self, msg, src):
        if src != self.proposer_of(msg.height, msg.round):
            return
        self._on_proposal(msg, src)

    def _on_proposal(self, msg, src):
        if msg.height != self.height or msg.round != self.round:
            return
        if self.step is not Step.PROPOSE:
            return
        block = msg.block
        self._blocks[block.hash] = block
        valid = (block.height == self.height
                 and block.prev_hash == self.prev_hash)
        # Locking rule: once locked, prevote only the locked block.
        if self.locked_hash is not None and block.hash != self.locked_hash:
            vote_hash = NIL
        elif valid:
            vote_hash = block.hash
        else:
            vote_hash = NIL
        self._broadcast_prevote(vote_hash)

    def _on_propose_timeout(self, height, round_):
        if (height, round_) != (self.height, self.round) or \
                self.step is not Step.PROPOSE:
            return
        self._broadcast_prevote(NIL)

    # -- prevote -------------------------------------------------------------------

    def _broadcast_prevote(self, block_hash):
        self.step = Step.PREVOTE
        self.mark_phase("prevote")
        vote = Prevote(self.height, self.round, block_hash)
        self._record_prevote(self.height, self.round, block_hash, self.name)
        self.multicast(self.other_peers, vote)
        self._arm_step_timer(self.VOTE_TIMEOUT, self._on_prevote_timeout,
                             self.height, self.round)

    def handle_prevote(self, msg, src):
        self._record_prevote(msg.height, msg.round, msg.block_hash, src)

    def _record_prevote(self, height, round_, block_hash, sender):
        votes = self._prevotes.setdefault((height, round_), {})
        votes[sender] = block_hash
        if (height, round_) != (self.height, self.round):
            return
        if self.step is not Step.PREVOTE:
            return
        counts = self._counts(votes)
        for value, count in counts.items():
            if count < self.quorums.q2:
                continue
            if value != NIL:
                # 2f+1 prevotes: lock and precommit the block.
                self.locked_hash = value
                self.locked_block = self._blocks.get(value)
                self.locked_round = round_
                self._broadcast_precommit(value)
            else:
                self._broadcast_precommit(NIL)
            return

    def _on_prevote_timeout(self, height, round_):
        if (height, round_) != (self.height, self.round) or \
                self.step is not Step.PREVOTE:
            return
        self._broadcast_precommit(NIL)

    # -- precommit -------------------------------------------------------------------

    def _broadcast_precommit(self, block_hash):
        self.step = Step.PRECOMMIT
        self.mark_phase("precommit")
        vote = Precommit(self.height, self.round, block_hash)
        self._record_precommit(self.height, self.round, block_hash, self.name)
        self.multicast(self.other_peers, vote)
        self._arm_step_timer(self.VOTE_TIMEOUT, self._on_precommit_timeout,
                             self.height, self.round)

    def handle_precommit(self, msg, src):
        self._record_precommit(msg.height, msg.round, msg.block_hash, src)

    def _record_precommit(self, height, round_, block_hash, sender):
        votes = self._precommits.setdefault((height, round_), {})
        votes[sender] = block_hash
        if height != self.height:
            return
        counts = self._counts(votes)
        for value, count in counts.items():
            if count >= self.quorums.q2 and value != NIL:
                block = self._blocks.get(value)
                if block is not None:
                    self._commit(block)
                return
        if (height, round_) == (self.height, self.round) and \
                len(votes) >= self.quorums.q2 and \
                counts.get(NIL, 0) >= self.quorums.q2:
            self._enter_round(self.round + 1)

    def _on_precommit_timeout(self, height, round_):
        if (height, round_) != (self.height, self.round) or \
                self.step is not Step.PRECOMMIT:
            return
        self._enter_round(self.round + 1)

    @staticmethod
    def _counts(votes):
        counts = {}
        for value in votes.values():
            counts[value] = counts.get(value, 0) + 1
        return counts

    # -- commit ----------------------------------------------------------------------

    def _commit(self, block):
        if block.height != self.height:
            return
        self.trace_local("commit", height=block.height, block=block.hash)
        self.chain.append(block)
        self.height += 1
        self.locked_hash = None
        self.locked_block = None
        self.locked_round = -1
        if not self._done():
            self._enter_round(0)
        elif self._step_timer is not None:
            self._step_timer.cancel()


class SilentProposer(TendermintNode):
    """A validator that never proposes — its rounds time out and the
    rotation skips past it (liveness through built-in view change)."""

    def _enter_round(self, round_):
        if self.proposer_of(self.height, round_) == self.name:
            # Enter the round but propose nothing.
            self.round = round_
            self.step = Step.PROPOSE
            self.rounds_used[self.height] = round_ + 1
            self._arm_step_timer(self.PROPOSE_TIMEOUT,
                                 self._on_propose_timeout,
                                 self.height, round_)
            return
        super()._enter_round(round_)


@dataclass
class TendermintResult:
    validators: list
    messages: int
    duration: float

    def chains(self):
        return [[b.hash for b in v.chain] for v in self.validators
                if not v.crashed]

    def chains_consistent(self):
        from ..smr.checker import check_log_consistency
        return check_log_consistency(
            enumerate(chain) for chain in self.chains())

    def min_height(self):
        return min(len(v.chain) for v in self.validators if not v.crashed)

    def rounds_per_height(self):
        merged = {}
        for validator in self.validators:
            for height, rounds in validator.rounds_used.items():
                merged[height] = max(merged.get(height, 0), rounds)
        return merged


def run_tendermint(cluster, f=1, heights=5, silent_indices=(),
                   horizon=4000.0):
    """Drive a Tendermint chain to ``heights`` committed blocks."""
    names = ["v%d" % i for i in range(minimum_nodes(f, b=f))]
    validators = []
    for index, name in enumerate(names):
        cls = SilentProposer if index in silent_indices else TendermintNode
        validators.append(
            cluster.add_node(cls, name, names, f, target_height=heights)
        )
    cluster.start_all()
    cluster.run_until(
        lambda: all(len(v.chain) >= heights
                    for v in validators if not v.crashed),
        until=horizon,
    )
    return TendermintResult(
        validators=validators,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
