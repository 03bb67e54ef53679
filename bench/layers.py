"""Outside-in layer tracer for the `yodel` package.

`Tracer.patch()` wraps each function in `LAYERS` at the name its caller
resolves at call time: methods on their class, module functions on the
module that calls them (`pop_path_root` on `yodel.dataplane`, `encode` and
`compute_path` on `yodel.control`, `decode` on `yodel.codec` because the edge
imports it inside the function), and restores the originals on exit. Nothing
under `src/` changes.

Each call becomes a span: name, start and end (perf_counter_ns), the
enclosing span from the call stack, and the id of the simulated event it ran
in. Event ids come from wrapping every callable passed to
`Simulation.schedule`; spans outside any event (set-up, render) carry 0.
Spans stay in one flat in-memory array; `aggregate()` turns them into
per-name calls, self time and inclusive time after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter_ns

__all__ = ["LAYERS", "INCLUSIVE", "Tracer", "aggregate"]

# (module the caller resolves the name in, attribute path)
LAYERS = [
    ("scenario", "load_world"),
    ("control", "Controller.provision_host"),
    ("control", "Controller.register_infrastructure_node"),
    ("control", "Controller.handle"),
    ("control", "Controller.reconcile"),
    ("control", "compute_path"),
    ("control", "encode"),
    ("codec", "decode"),
    ("dataplane", "pop_path_root"),
    ("dataplane", "AcTable.plan"),
    ("dataplane", "Node.strategic_send"),
    ("dataplane", "EdgeNode.on_message"),
    ("dataplane", "ConnectorNode.on_message"),
    ("dataplane", "HostNode.on_message"),
    ("dataplane", "HostNode.state_dump"),
    ("twin", "TwinManager.sweep"),
    ("twin", "TwinManager.buffer_message"),
    ("twin", "TwinManager.on_hello"),
    ("sim", "Simulation.transmit"),
    ("sim", "Simulation.schedule"),
    ("sim", "Simulation.run"),
    ("trace", "Trace.emit"),
    ("trace", "Trace.text"),
    ("trace", "Metrics.to_json"),
]

# Layers whose inclusive time is reported beside their self time.
INCLUSIVE = {
    "control.Controller.register_infrastructure_node",
    "control.Controller.handle",
    "control.Controller.reconcile",
    "twin.TwinManager.sweep",
    "sim.Simulation.transmit",
}

_FIELDS = 5  # name index, start ns, end ns, parent span, event id


def _layer_name(fn) -> str:
    """Defining module (without the package) and qualified name."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.event = 0
        self._stack: list[int] = []
        self._events = 0

    @contextlib.contextmanager
    def patch(self):
        restore = []
        try:
            for module, path in LAYERS:
                owner = importlib.import_module(f"yodel.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                fn = original
                if path == "Simulation.schedule":
                    fn = self._tag_events(fn)
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(_layer_name(original), fn))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans) // _FIELDS
            spans.extend((idx, 0, 0, stack[-1] if stack else -1, tracer.event))
            stack.append(span)
            spans[span * _FIELDS + 1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[span * _FIELDS + 2] = perf_counter_ns()
                stack.pop()
        return wrapper

    def _tag_events(self, schedule):
        tracer = self

        @functools.wraps(schedule)
        def tagged(sim, tick, fn):
            tracer._events += 1
            event = tracer._events

            def fire():
                tracer.event = event
                fn()
                tracer.event = 0
            return schedule(sim, tick, fire)
        return tagged

    def span_rows(self):
        """(span, name, start, end, parent, event) for every recorded span."""
        s = self.spans
        for i in range(len(s) // _FIELDS):
            o = i * _FIELDS
            yield i, self.names[s[o]], s[o + 1], s[o + 2], s[o + 3], s[o + 4]


def aggregate(tracer: Tracer, lo: int = 0, hi: int = 2**63 - 1) -> dict:
    """Per-name calls and self_s, plus incl_s for the INCLUSIVE names, over
    spans that start and end within [lo, hi]. Self time is a span's duration
    minus that of its direct child spans; inclusive time counts only spans
    with no ancestor of the same name, so recursion is not counted twice."""
    s = tracer.spans
    n = len(s) // _FIELDS
    child = [0] * n
    for i in range(n):
        o = i * _FIELDS
        parent = s[o + 3]
        if parent >= 0:
            child[parent] += s[o + 2] - s[o + 1]
    out = {name: {"calls": 0, "self_s": 0.0} for name in tracer.names}
    for name in INCLUSIVE:
        out[name]["incl_s"] = 0.0
    inclusive = {i for i, name in enumerate(tracer.names) if name in INCLUSIVE}
    for i in range(n):
        o = i * _FIELDS
        start, end = s[o + 1], s[o + 2]
        if start < lo or end > hi:
            continue
        idx = s[o]
        agg = out[tracer.names[idx]]
        agg["calls"] += 1
        agg["self_s"] += (end - start - child[i]) / 1e9
        if idx in inclusive:
            parent = s[o + 3]
            while parent >= 0 and s[parent * _FIELDS] != idx:
                parent = s[parent * _FIELDS + 3]
            if parent < 0:
                agg["incl_s"] += (end - start) / 1e9
    return out
