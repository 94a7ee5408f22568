"""Delivery models for the paper's three synchrony modes.

The tutorial's first taxonomy aspect is the synchrony mode:

* **synchronous** — known bounds on message delay; communication proceeds
  in rounds,
* **asynchronous** — no bound at all; only eventual delivery,
* **partially synchronous** — asynchronous until an unknown global
  stabilisation time (GST), bounded afterwards (the datacenter model
  every practical protocol assumes).

A delivery model answers one question for the transport: *given this
envelope, when does it arrive (or does it drop)?*  All randomness comes
from the simulator's seeded RNG.
"""


class DeliveryModel:
    """Decides per-message delivery delay.  Subclass and override
    :meth:`delay`."""

    #: sentinel returned by :meth:`delay` for a dropped message
    DROP = None

    def delay(self, rng, src, dst, now):
        """Return the transit delay for a message, or :data:`DROP`."""
        raise NotImplementedError


class SynchronousModel(DeliveryModel):
    """Known delay bound: every message arrives in exactly ``step`` time.

    With a constant delay, sends made within one "round" all arrive
    before any reply can be produced — the lock-step round structure the
    paper describes for synchronous systems.
    """

    def __init__(self, step=1.0):
        if step <= 0:
            raise ValueError("step must be positive")
        self.step = step

    def delay(self, rng, src, dst, now):
        return self.step


class UniformDelayModel(DeliveryModel):
    """Bounded-but-variable delay, uniform in ``[low, high]``.

    Still synchronous in the formal sense (the bound ``high`` is known),
    but enough jitter to reorder messages — useful for exercising paths
    that constant delay never reaches.
    """

    def __init__(self, low=0.5, high=1.5, drop_rate=0.0):
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.low = low
        self.high = high
        self.drop_rate = drop_rate
        # Pre-computed span for the inlined uniform draw below.
        self._span = high - low

    def delay(self, rng, src, dst, now):
        if self.drop_rate and rng.random() < self.drop_rate:
            return self.DROP
        # Inlined ``rng.uniform(low, high)``: the same arithmetic CPython's
        # Random.uniform performs (``a + (b - a) * random()``), so the
        # draw is bit-identical — minus one call frame on the per-message
        # hot path.
        return self.low + self._span * rng.random()


class QueuedDelayModel(UniformDelayModel):
    """Uniform wire delay plus finite per-destination ingress capacity.

    Every other model here has infinite service capacity: a node can
    absorb any number of simultaneous messages, so offered load never
    produces queueing and latency-vs-load curves stay flat.  Real
    replicas deserialise and process one message at a time; under the
    paper's complexity tables that per-node ingest cost is exactly what
    separates O(n) leader-based protocols from O(n²) BFT broadcast at
    high load.

    This model gives each destination a FIFO ingress server that takes
    ``service`` time units per message.  A message leaving the wire at
    ``now + wire`` starts service when the destination's server frees
    up, whichever is later — the standard M/D/1 shape, so a load sweep
    produces a genuine saturation knee once arrivals outpace
    ``1/service`` per destination.

    Drops (if configured) happen on the wire, before the queue.  State
    is per-instance, so each cluster owns its own queues; determinism
    is preserved because arrival order at :meth:`delay` is itself
    deterministic under the seeded simulator.
    """

    def __init__(self, low=0.5, high=1.5, drop_rate=0.0, service=0.05):
        super().__init__(low, high, drop_rate)
        if service <= 0:
            raise ValueError("service must be positive")
        self.service = service
        self._busy = {}  # dst -> virtual time its ingress server frees up

    def delay(self, rng, src, dst, now):
        wire = super().delay(rng, src, dst, now)
        if wire is self.DROP:
            return self.DROP
        arrival = now + wire
        start = max(arrival, self._busy.get(dst, 0.0))
        done = start + self.service
        self._busy[dst] = done
        return done - now

    def queue_depth(self, dst, now):
        """Backlog (in service slots) at ``dst``'s ingress server."""
        backlog = self._busy.get(dst, 0.0) - now
        return max(0.0, backlog) / self.service


class AsynchronousModel(DeliveryModel):
    """No delay bound: exponential delays with an occasional heavy tail.

    True asynchrony (arbitrary finite delay) is approximated by an
    exponential base delay plus, with probability ``tail_prob``, a long
    tail multiplier — so a small fraction of messages straggle far beyond
    any "typical" bound, which is exactly the adversary FLP needs.
    """

    def __init__(self, mean=1.0, tail_prob=0.05, tail_factor=20.0, drop_rate=0.0):
        if mean <= 0:
            raise ValueError("mean must be positive")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.mean = mean
        self.tail_prob = tail_prob
        self.tail_factor = tail_factor
        self.drop_rate = drop_rate

    def delay(self, rng, src, dst, now):
        if self.drop_rate and rng.random() < self.drop_rate:
            return self.DROP
        base = rng.expovariate(1.0 / self.mean)
        if self.tail_prob and rng.random() < self.tail_prob:
            base *= self.tail_factor
        return base


class PartialSynchronyModel(DeliveryModel):
    """Asynchronous before GST, bounded after — Dwork/Lynch/Stockmeyer's
    model, and the paper's 'reasonable in data centers' assumption.

    Parameters
    ----------
    gst:
        Global stabilisation time (virtual).  Before it, delays follow
        the wrapped asynchronous model; at/after it, delays are uniform
        in ``[post_low, post_high]``.
    """

    def __init__(self, gst, pre=None, post_low=0.5, post_high=1.0):
        self.gst = gst
        self.pre = pre if pre is not None else AsynchronousModel(mean=3.0)
        self.post = UniformDelayModel(post_low, post_high)

    def delay(self, rng, src, dst, now):
        if now < self.gst:
            return self.pre.delay(rng, src, dst, now)
        return self.post.delay(rng, src, dst, now)


class PerLinkModel(DeliveryModel):
    """Compose different models per (src, dst) link, with a default.

    Used by the hybrid-cloud experiments (SeeMoRe): links inside the
    private cloud are fast, cross-cloud links are slow.
    """

    def __init__(self, default, overrides=None):
        self.default = default
        self.overrides = dict(overrides or {})

    def set_link(self, src, dst, model):
        self.overrides[(src, dst)] = model

    def delay(self, rng, src, dst, now):
        model = self.overrides.get((src, dst), self.default)
        return model.delay(rng, src, dst, now)
