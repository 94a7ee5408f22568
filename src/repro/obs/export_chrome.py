"""Chrome-trace (``chrome://tracing`` / Perfetto) export of a run's spans.

Emits the Trace Event Format's JSON object form: a ``traceEvents``
array of complete (``"ph": "X"``) events with microsecond timestamps,
preceded by ``process_name``/``thread_name`` metadata.  One virtual
time unit maps to one millisecond (ts is in us), so the waterfall's
proportions survive into the viewer.

Track layout: everything lives in one process (the simulated fleet);
thread 0 is the *requests* track holding one bar per root span, and
each node gets its own thread holding that node's critical-path
segments.  Load the file via "Load" in ``chrome://tracing`` or
https://ui.perfetto.dev.

Like every exporter in this repo the output is canonical JSON (sorted
keys, compact separators, trailing newline) built from deterministic
span data, so same-seed exports are byte-identical.
"""

import json
from collections import deque

from ..ioutil import ensure_parent

#: Virtual-time unit -> Chrome trace microseconds (1 unit = 1 ms).
SCALE_US = 1000.0


def _nodes_of(spans):
    names = set()
    stack = list(spans)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        node = span.table.node
        for _segment, prev, anchor in span.steps():
            for name in (node[prev], node[anchor]):
                if name:
                    names.add(name)
    return sorted(names)


def to_chrome(spans, protocol=""):
    """Build the Chrome trace document (a plain dict) for ``spans``."""
    nodes = _nodes_of(spans)
    tid_of = {name: index + 1 for index, name in enumerate(nodes)}
    events = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "repro %s" % protocol if protocol else "repro"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "requests"}},
    ]
    for name in nodes:
        events.append({"ph": "M", "pid": 1, "tid": tid_of[name],
                       "name": "thread_name", "args": {"name": name}})
    queue = deque(spans)
    while queue:
        span = queue.popleft()
        queue.extend(span.children)
        if span.start is None or span.latency is None:
            continue
        events.append({
            "ph": "X", "pid": 1, "tid": 0,
            "name": span.req, "cat": span.kind,
            "ts": span.start_time * SCALE_US,
            "dur": span.latency * SCALE_US,
            "args": {
                "completed": span.completed,
                "segments": {name: round(value, 9) for name, value
                             in sorted(span.segments.items())},
            },
        })
        table = span.table
        times, node = table.time, table.node
        for segment, prev, anchor in span.steps():
            duration = times[anchor] - times[prev]
            if duration <= 0:
                continue
            track = node[anchor] or node[prev]
            events.append({
                "ph": "X", "pid": 1, "tid": tid_of.get(track, 0),
                "name": segment, "cat": "segment",
                "ts": times[prev] * SCALE_US,
                "dur": duration * SCALE_US,
                "args": {"req": span.req, "mtype": table.mtype[anchor]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_to_json(document):
    """Serialise the document to canonical byte-stable JSON."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")) + "\n"


def write_chrome(document, path):
    """Write the Chrome trace to ``path``; returns the event count."""
    payload = chrome_to_json(document)
    with open(ensure_parent(path), "w", encoding="utf-8",
              newline="\n") as handle:
        handle.write(payload)
    return len(document["traceEvents"])
