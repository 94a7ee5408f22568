"""FleetNetwork — the worker-local network fabric with a cross-domain
outbox.

Each worker hosts a slice of the fleet's synchronization domains (shard
groups plus the control tier).  Traffic *within* one domain is delivered
locally with a per-domain random delay stream; traffic *between*
domains — even two domains hosted by the same worker — never touches
the local event queue.  It is appended to an outbox and exchanged at
the next epoch barrier, where the engine merges every worker's outbox
in a globally deterministic order and routes each message to the worker
hosting its destination.

Routing *all* cross-domain messages through the barrier (not just the
ones that happen to cross a worker boundary) is what makes worker
placement invisible: a domain's inbound message sequence is a pure
function of the fleet's behaviour, not of which worker hosts whom.

Delay streams:

* one ``("domain", d)`` stream per domain, shared with the domain's
  processes' own draws (election jitter, backoff) — a domain's entire
  randomness is one sequence consumed in its own deterministic order;
* one ``("link", src_domain, dst_domain)`` stream per directed domain
  pair for cross-domain latencies, with a per-link sequence number that
  makes the barrier merge order total.

Cross-domain latency is drawn from ``[cross_low, cross_high)`` with
``cross_low >= epoch``: a message sent during an epoch can never be due
before the next barrier, which is exactly the conservative-lookahead
condition.  Partitions and interceptors are not supported in
partitioned runs (the engine rejects those scenarios up front).
"""

from ..net.network import Network
from .spec import domain_of
from .streams import named_stream

__all__ = ["FleetNetwork"]


class FleetNetwork(Network):
    """Worker-local :class:`Network` splitting traffic at domain edges.

    Parameters
    ----------
    fleet_names:
        Every node name in the whole fleet — used to validate
        cross-domain destinations that are not registered locally.
    """

    def __init__(self, sim, seed, fleet_names, cross_low, cross_high,
                 in_low, in_high, metrics=None, tracer=None,
                 telemetry=None):
        super().__init__(sim, metrics=metrics, tracer=tracer,
                         telemetry=telemetry)
        self._seed = seed
        self._fleet_names = frozenset(fleet_names)
        self._in_low = in_low
        self._in_span = in_high - in_low
        self._cross_low = cross_low
        self._cross_span = cross_high - cross_low
        self._domain_rngs = {}
        self._domain_cache = {}
        self._links = {}  # (src_domain, dst_domain) -> [rng, seq]
        #: Cross-domain sends of the running epoch, as picklable entries
        #: ``(deliver_time, src_domain, dst_domain, link_seq, src, dst,
        #: message)``.  The engine drains this at every barrier.
        self.outbox = []
        # Trace-identity maps: local msg_id -> link key for cross sends,
        # negative injection token -> link key for cross deliveries.
        # The merge phase uses these to re-unite a SEND recorded on the
        # sender's worker with its DELIVER recorded on the receiver's.
        self.cross_send_refs = {}
        self.cross_recv_refs = {}
        self._next_cross_token = -2  # -1 is the tracer's "no id" value

    # -- streams -----------------------------------------------------------

    def domain_rng(self, domain):
        """The domain's random stream (also bound to its processes)."""
        rng = self._domain_rngs.get(domain)
        if rng is None:
            rng = named_stream(self._seed, "domain", domain)
            self._domain_rngs[domain] = rng
        return rng

    def _link(self, src_domain, dst_domain):
        link = self._links.get((src_domain, dst_domain))
        if link is None:
            link = [named_stream(self._seed, "link", src_domain,
                                 dst_domain), 0]
            self._links[(src_domain, dst_domain)] = link
        return link

    # -- sending -----------------------------------------------------------

    def send(self, src, dst, message, _size=None):
        dom = self._domain_cache
        src_domain = dom.get(src)
        if src_domain is None:
            src_domain = dom[src] = domain_of(src)
        dst_domain = dom.get(dst)
        if dst_domain is None:
            dst_domain = dom[dst] = domain_of(dst)
        if src_domain == dst_domain:
            return self._send_local(src_domain, src, dst, message, _size)
        return self._send_cross(src_domain, dst_domain, src, dst,
                                message, _size)

    def _count_send(self, src, dst, message, size):
        """The base class's per-link metric/telemetry bumps."""
        cached = self._link_handles.get((message.__class__, src, dst))
        if cached is None:
            cached = self._resolve_link(src, dst, message)
        slot, handles = cached
        if size is None:
            size = message.size_estimate()
        slot[0] += 1
        slot[1] += size
        if handles is not None:
            handles[0].value += 1
            handles[1].value += size
            handles[2].value += 1

    def _send_local(self, domain, src, dst, message, size):
        """In-domain unicast: same accounting as the base class, delay
        drawn from the domain's own stream."""
        if dst not in self._nodes:
            raise KeyError("unknown destination %r" % (dst,))
        self._count_send(src, dst, message, size)
        rng = self._domain_rngs.get(domain)
        if rng is None:
            rng = self.domain_rng(domain)
        delay = self._in_low + self._in_span * rng.random()
        sim = self.sim
        tracer = self.tracer
        if tracer is None:
            sim._queue.push_transient(sim._now + delay, self._deliver,
                                      (src, dst, message))
        else:
            token = tracer.on_send(src, dst, message)
            sim._queue.push_transient(sim._now + delay,
                                      self._deliver_traced,
                                      (src, dst, message, token))
        return True

    def _send_cross(self, src_domain, dst_domain, src, dst, message, size):
        """Cross-domain unicast: accounted on the sending worker, queued
        for exchange at the next epoch barrier."""
        if dst not in self._fleet_names:
            raise KeyError("unknown destination %r" % (dst,))
        self._count_send(src, dst, message, size)
        link = self._link(src_domain, dst_domain)
        delay = self._cross_low + self._cross_span * link[0].random()
        link[1] += 1
        link_seq = link[1]
        tracer = self.tracer
        if tracer is not None:
            token = tracer.on_send(src, dst, message)
            self.cross_send_refs[token] = (src_domain, dst_domain, link_seq)
        self.outbox.append((self.sim._now + delay, src_domain, dst_domain,
                            link_seq, src, dst, message))
        return True

    # -- barrier injection -------------------------------------------------

    def deliver_cross(self, src, dst, message, link_key):
        """Deliver one barrier-exchanged message to a local node.

        Scheduled by the worker (via ``schedule_at``) when the engine
        hands it the entry; runs at the entry's deliver time.  Receive
        accounting mirrors the local delivery path; the trace row gets a
        fresh negative token mapped back to the link identity so the
        merge can pair it with the sender's SEND row.
        """
        node = self._nodes.get(dst)
        tracer = self.tracer
        if node is None or node.crashed:
            if tracer is not None:
                token = self._next_cross_token
                self._next_cross_token -= 1
                self.cross_recv_refs[token] = link_key
                tracer.on_drop(src, dst, message, "crashed", token)
            self._count_drop(message, "crashed")
            return
        if tracer is not None:
            token = self._next_cross_token
            self._next_cross_token -= 1
            self.cross_recv_refs[token] = link_key
            tracer.on_deliver(src, dst, message, token)
        self._count_receive(dst)
        node.deliver(message, src)
