"""Message base type and envelope used by the simulated network.

Protocols define their own message dataclasses; the only contract the
transport needs is :class:`Message`'s ``mtype`` (used for handler
dispatch) and a rough ``size_estimate`` (used for byte accounting).

Both are served from per-class caches: ``mtype`` is stamped onto each
subclass at class-definition time, and the field plan behind
``size_estimate`` is computed once per class on first use — the send
path never re-derives either per message.  So is the price of every
field class whose size does not depend on the value (``Ballot`` and
other opaque objects).
"""

from dataclasses import dataclass, fields
from operator import attrgetter


class Message:
    """Base class for protocol messages.

    Subclasses are typically ``@dataclass``-decorated.  ``mtype`` defaults
    to the lower-cased class name, which the node base class uses to
    dispatch to ``handle_<mtype>`` methods; it is computed once when the
    subclass is defined (a subclass may still pin its own ``mtype`` class
    attribute explicitly).
    """

    mtype = "message"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "mtype" not in cls.__dict__:
            cls.mtype = cls.__name__.lower()

    def size_estimate(self):
        """Approximate wire size in bytes, for message-complexity metrics.

        A crude per-field costing is plenty: the experiments compare
        *orders* of traffic (O(N) vs O(N²)), not absolute bytes.  The
        field-name plan is resolved once per class (``dataclasses.fields``
        is far too slow to walk per message); only the per-field value
        costing runs per call.
        """
        cls = type(self)
        plan = cls.__dict__.get("_size_plan")
        if plan is None:
            names = tuple(f.name for f in fields(self))
            # attrgetter fetches every field in one C call; a 1-field
            # getter returns a bare value, so wrap to keep a tuple.
            if len(names) == 1:
                single = attrgetter(names[0])
                plan = lambda msg: (single(msg),)  # noqa: E731
            elif names:
                plan = attrgetter(*names)
            else:
                plan = lambda msg: ()  # noqa: E731
            cls._size_plan = plan
        return 16 + _items_size(plan(self))  # header + fields


#: Per-class memo for :func:`protocol_of` — one ``rsplit`` per message
#: *class* instead of one per send.
_PROTOCOL_OF = {}


def protocol_of(message):
    """Telemetry's ``protocol`` label for a message: the leaf module the
    message class was defined in (``repro.protocols.paxos`` → ``paxos``).

    Deterministic, needs no per-message opt-in, and groups each
    protocol's whole vocabulary under one label; shared/base messages
    land under their defining module (e.g. ``message``).
    """
    cls = type(message)
    protocol = _PROTOCOL_OF.get(cls)
    if protocol is None:
        protocol = cls.__module__.rsplit(".", 1)[-1]
        _PROTOCOL_OF[cls] = protocol
    return protocol


#: Exact-type size shortcut — one dict hit instead of an ``isinstance``
#: ladder.  Seeded with the common scalars (exact-type lookup keeps
#: ``bool``, a subclass of ``int``, on its own entry) and extended on
#: first sight with every other field class whose size depends on the
#: class alone (``int``/``float`` subclasses, opaque objects such as a
#: ``Ballot``).
_CLASS_SIZES = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
}

def _items_size(values):
    """The price of a message's fields, or of a sequence's items: one
    :data:`_CLASS_SIZES` hit or one ``len`` per common item, a nested
    call per tuple (a batched accept carries one per message), and
    :func:`_field_size` for the rest."""
    class_sizes = _CLASS_SIZES
    total = 0
    for value in values:
        value_cls = value.__class__
        size = class_sizes.get(value_cls)
        if size is not None:
            total += size
        elif value_cls is str or value_cls is bytes:
            total += len(value)
        elif value_cls is tuple:
            total += 4 + _items_size(value)
        else:
            total += _field_size(value)
    return total


def _field_size(value):
    """The price of a value :func:`_items_size` cannot read off its
    class; a class whose price cannot depend on the value is memoised."""
    if isinstance(value, (bytes, str)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + _items_size(value)
    if isinstance(value, dict):
        return 4 + _items_size(value) + _items_size(value.values())
    # bool and None are seeded in _CLASS_SIZES, so this is an int or a
    # float subclass, or an opaque object (signature, certificate, ...).
    size = 8 if isinstance(value, (int, float)) else 32
    _CLASS_SIZES[value.__class__] = size
    return size


@dataclass(frozen=True)
class Envelope:
    """A message in flight: who sent it, to whom, and when it departs/arrives."""

    src: str
    dst: str
    message: Message
    sent_at: float
    deliver_at: float

    @property
    def latency(self):
        return self.deliver_at - self.sent_at
