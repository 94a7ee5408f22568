"""ASCII space-time renderer: the paper's message-flow figures, from data.

Each node gets a column; virtual time runs downward, one row per event.
A send draws an arrow from the sender's column toward the receiver's
(``o--->``), protocol milestones draw ``*`` in their node's column, and
phase marks draw full-width separators — so a Paxos run renders as the
familiar prepare -> accept -> decide figure, but reconstructed from a
live run's trace rather than drawn by hand.
"""

from .events import DELIVER, DROP, LOCAL, PHASE, REQUEST, SEND, TIMER


def _compact_detail(event, limit=40):
    text = " ".join("%s=%s" % (k, v) for k, v in event.detail)
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def render_flow(trace, nodes=None, col_width=10, max_rows=None,
                include_delivers=False, include_timers=False):
    """Render ``trace`` as an ASCII message-flow diagram.

    Parameters
    ----------
    trace:
        A :class:`~repro.trace.Trace` (or any iterable of events).
    nodes:
        Column order; defaults to first-appearance order.  Events whose
        endpoints are not all in ``nodes`` are skipped.
    col_width:
        Characters per node column.
    max_rows:
        Cap on rendered event rows; a summary line reports the rest.
    include_delivers / include_timers:
        Also draw message arrivals / timer firings (off by default —
        sends plus milestones already show the flow shape).
    """
    if nodes is None:
        trace = list(trace)  # two passes: the column order comes first
        seen = []
        for event in trace:
            if event.node and event.node not in seen:
                seen.append(event.node)
        nodes = seen
    columns = {name: index for index, name in enumerate(nodes)}
    canvas_width = max(col_width * len(nodes), 1)

    def center(name):
        return columns[name] * col_width + col_width // 2

    lines = []
    header = " " * 11
    for name in nodes:
        header += name[:col_width - 1].center(col_width)
    lines.append(header.rstrip())

    rows = 0
    skipped = 0
    for event in trace:
        if max_rows is not None and rows >= max_rows:
            skipped += 1
            continue
        canvas = [" "] * canvas_width
        label = ""
        if event.kind == PHASE:
            bar = ("-- phase: %s " % event.mtype).ljust(canvas_width, "-")
            lines.append("%9s  %s  [%s]" % ("", bar,
                                            event.get("protocol", "")))
            rows += 1
            continue
        if event.kind == REQUEST:
            bar = ("== request %s %s " % (event.mtype,
                                          event.get("edge", ""))).ljust(
                canvas_width, "=")
            lines.append("%9s  %s" % ("", bar))
            rows += 1
            continue
        if event.kind == SEND:
            if event.node not in columns or event.peer not in columns:
                skipped += 1
                continue
            src, dst = center(event.node), center(event.peer)
            if src < dst:
                canvas[src] = "o"
                for pos in range(src + 1, dst):
                    canvas[pos] = "-"
                canvas[dst] = ">"
            else:
                canvas[dst] = "<"
                for pos in range(dst + 1, src):
                    canvas[pos] = "-"
                canvas[src] = "o"
            label = ("%s %s" % (event.mtype, _compact_detail(event))).strip()
        elif event.kind == DELIVER:
            if not include_delivers or event.node not in columns:
                continue
            canvas[center(event.node)] = "v"
            label = "recv %s from %s" % (event.mtype, event.peer)
        elif event.kind == DROP:
            if event.node not in columns:
                skipped += 1
                continue
            canvas[center(event.node)] = "x"
            label = "drop %s -> %s (%s)" % (event.mtype, event.peer,
                                            event.get("reason", "?"))
        elif event.kind == TIMER:
            if not include_timers or event.node not in columns:
                continue
            canvas[center(event.node)] = "."
            label = "timer"
        elif event.kind == LOCAL:
            if event.node not in columns:
                skipped += 1
                continue
            canvas[center(event.node)] = "*"
            label = ("%s %s" % (event.mtype, _compact_detail(event))).strip()
        else:
            continue
        row = "%9.3f  %s  %s" % (event.time, "".join(canvas), label)
        lines.append(row.rstrip())
        rows += 1
    if skipped:
        lines.append("%9s  ... (%d more events not shown)" % ("", skipped))
    return "\n".join(lines)
