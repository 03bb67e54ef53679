"""Run observability: the structured text trace, the metrics report, and the
per-direction link records the report renders.

Trace lines are the replay-stable record of a run: one event per line,
`t=<tick> n=<node> ev=<NAME>` followed by event fields in fixed authorship
order. Byte-identical traces across runs with the same inputs and seed are a
package-level guarantee, so nothing non-deterministic may reach emit().
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

__all__ = ["TraceRecord", "Trace", "Link", "Metrics", "CONTROLLER_NODE"]

CONTROLLER_NODE = "controller"


class TraceRecord(NamedTuple):
    """One trace event, its field values as they print."""

    tick: int
    node: str
    event: str
    fields: tuple[tuple[str, str], ...] = ()

    def line(self) -> str:
        return _one_line(self, {})


def _pieces(events, memo: dict) -> list[str]:
    """The lines of `events` as one flat list of text pieces, each line
    closed by a newline piece, for one join.

    `memo` maps a `(key, value)` field pair to the exact type of its value
    and its printed ` key=value` piece, so each distinct pair is formatted
    once. The type is checked on every hit: `("a", 1)` and `("a", True)` are
    one dict key but print differently, and so do an IntEnum and its int.
    Equal values of one admitted type print alike (a float would not:
    0.0 == -0.0)."""
    out = []
    append = out.append
    get = memo.get
    _type = type
    last = head = None
    for tick, node, event, fields in events:
        # identity, not equality, which would take True for 1; a run hands
        # every event of one tick the same int object
        if tick is not last:
            last = tick
            head = f"t={tick} n="
        append(f"{head}{node} ev={event}")
        for pair in fields:
            hit = get(pair)
            if hit is None or hit[0] is not _type(pair[1]):
                # `!s`, not plain format(): an IntEnum formats as its number
                # on 3.10
                hit = memo[pair] = (_type(pair[1]), f" {pair[0]}={pair[1]!s}")
            append(hit[1])
        append("\n")
    return out


def _one_line(event, memo: dict) -> str:
    pieces = _pieces((event,), memo)
    pieces.pop()   # the newline
    return "".join(pieces)


def _record(tick: int, node: str, event: str,
            fields: tuple[tuple[str, object], ...]) -> TraceRecord:
    return TraceRecord(tick, node, event,
                       tuple([(k, str(v)) for k, v in fields]))


class Trace:
    """Events as emitted: `(tick, node, event, fields)` tuples whose field
    values are turned into text only when the trace is read. Every value
    must therefore be immutable (str, int, bool, None or Yni).

    A read formats each distinct `(key, value)` field pair once per call
    and keeps nothing between calls: each `text()` or `lines()` formats
    from the events as they are then."""

    def __init__(self):
        self._events: list[tuple[int, str, str,
                                 tuple[tuple[str, object], ...]]] = []

    def emit(self, tick: int, node: str, event: str, *fields: tuple[str, object]) -> None:
        self._events.append((tick, node, event, fields))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def records(self) -> list[TraceRecord]:
        """Every event as a TraceRecord with printed field values, built
        afresh on each read."""
        return [_record(*e) for e in self._events]

    def lines(self) -> list[str]:
        memo = {}
        return [_one_line(e, memo) for e in self._events]

    def text(self) -> str:
        return "".join(_pieces(self._events, {}))

    def count(self, event: str, **match: str) -> int:
        return len(self.select(event, **match))

    def select(self, event: str, **match: str) -> list[TraceRecord]:
        """Records of one event whose printed fields equal `match`; the key
        `n` matches the emitting node, mirroring the printed line format."""
        out = []
        for e in self._events:
            if e[2] != event:
                continue
            r = _record(*e)
            fields = dict(r.fields)
            fields["n"] = r.node
            if all(fields.get(k) == v for k, v in match.items()):
                out.append(r)
        return out


@dataclass(eq=False, slots=True)
class Link:
    """One direction of a wire: its state, and what crossed it. Compared by
    identity: each record stands for one direction of one wire."""

    latency: int
    up: bool = True
    sent: int = 0
    received: int = 0
    lost: int = 0
    in_flight: int = 0   # copies whose arrival is still scheduled
    unicast: int = 0     # overlay data copies, for transmission efficiency
    # the domain both ends are in, whose transmissions the link's unicast
    # copies count in; None across domains and on host access lines
    domain: Optional[str] = None


class Metrics:
    """Counters accumulated during a run, and the JSON report they render.

    The report's bytes are those of `json.dumps(self.to_dict(),
    sort_keys=True, indent=2)` plus a newline, so the report is as
    replay-stable as the trace. This module writes them itself, in one pass
    and not through json's pure-Python indent encoder: it takes dicts with
    str keys, str, int, bool, None and float (json's float rule: repr, NaN,
    Infinity, -Infinity), each by its exact type, and raises TypeError on
    any other value.

    Transmissions are not counted on their own: the report's
    `transmissions` are summed, when read, from each link's `unicast`
    counter, grouped by the link's `domain`, and from `multicast_batches`,
    the data batches each domain's nodes sent as one local multicast."""

    def __init__(self):
        self.deliveries: dict[str, int] = {}
        self.drops: dict[str, dict[str, int]] = {}
        self.controller_visits: dict[str, int] = {"joins": 0, "provisions": 0}
        self.join_visits: dict[str, int] = {}
        self.latency_hist: dict[int, int] = {}
        self.multicast_batches: dict[str, int] = {}
        self.links: dict[str, Link] = {}   # "a>b" -> that direction's record
        self.buffer_peaks: dict[str, int] = {}
        self.buffered_total = 0
        self.buffer_dropped = 0
        self.proto_errors = 0
        self.conservation: dict = {}
        self._send_ticks: dict[int, int] = {}

    # -- data path -----------------------------------------------------------

    def delivered(self, node: str, serial: int, tick: int) -> None:
        """One delivery at `node`, at `tick`, of the send numbered `serial`;
        its latency counts when the send's tick was noted."""
        self.deliveries[node] = self.deliveries.get(node, 0) + 1
        start = self._send_ticks.get(serial)
        if start is not None:
            lat = tick - start
            self.latency_hist[lat] = self.latency_hist.get(lat, 0) + 1

    def dropped(self, node: str, reason: str) -> None:
        per = self.drops.setdefault(node, {})
        per[reason] = per.get(reason, 0) + 1

    def note_send_tick(self, serial: int, tick: int) -> None:
        self._send_ticks[serial] = tick

    # -- transmissions -------------------------------------------------------

    @property
    def transmissions_total(self) -> int:
        """Overlay data transmissions: every multicast batch and every
        unicast copy between infrastructure nodes."""
        return (sum(self.multicast_batches.values())
                + sum(link.unicast for link in self.links.values()))

    @property
    def transmissions_by_domain(self) -> dict[str, int]:
        """The transmissions that stay inside one domain, per domain:
        its multicast batches and the unicast copies on its links."""
        out = dict(self.multicast_batches)
        for link in self.links.values():
            if link.unicast and link.domain is not None:
                out[link.domain] = out.get(link.domain, 0) + link.unicast
        return out

    @property
    def transmissions_interdomain(self) -> int:
        """The unicast copies on links between two domains."""
        return sum(link.unicast for link in self.links.values()
                   if link.domain is None)

    # -- links ---------------------------------------------------------------

    def link(self, src: str, dst: str, latency: int, up: bool = True,
             domain: Optional[str] = None) -> Link:
        """The record for the src -> dst direction, reported as `src>dst`;
        `domain` as `Link.domain`."""
        link = Link(latency, up, domain=domain)
        self.links[f"{src}>{dst}"] = link
        return link

    @property
    def unicast_by_link(self) -> dict[str, int]:
        return {key: link.unicast for key, link in self.links.items()
                if link.unicast}

    # -- twins ---------------------------------------------------------------

    def buffered(self, host: str, depth: int) -> None:
        self.buffered_total += 1
        if depth > self.buffer_peaks.get(host, 0):
            self.buffer_peaks[host] = depth

    # -- controller ----------------------------------------------------------

    def join_visit(self, edge: str, valley_id: int, community: str, role: str) -> None:
        self.controller_visits["joins"] += 1
        key = f"{edge}|{valley_id}|{community}|{role}"
        self.join_visits[key] = self.join_visits.get(key, 0) + 1

    def provision_visit(self) -> None:
        self.controller_visits["provisions"] += 1

    # -- epilogue ------------------------------------------------------------

    def finalize_conservation(self) -> None:
        """sends == receives + in-flight + lost, per directed link; links
        nothing crossed are left out."""
        per_link = {}
        ok = True
        for key, link in self.links.items():
            entry = {
                "sent": link.sent,
                "received": link.received,
                "lost": link.lost,
                "in_flight": link.in_flight,
            }
            if not any(entry.values()):
                continue
            entry["ok"] = link.sent == link.received + link.lost + entry["in_flight"]
            ok = ok and entry["ok"]
            per_link[key] = entry
        self.conservation = {"ok": ok, "links": per_link}

    def to_dict(self) -> dict:
        """The report, its dicts in no set order (`to_json` sorts them) and
        the counters' own, not copies."""
        return {
            "deliveries": self.deliveries,
            "drops": self.drops,
            "controller_visits": self.controller_visits,
            "join_visits": self.join_visits,
            "latency_hist": {str(k): v for k, v in self.latency_hist.items()},
            "transmissions": {
                "total": self.transmissions_total,
                "by_domain": self.transmissions_by_domain,
                "interdomain": self.transmissions_interdomain,
                "unicast_by_link": self.unicast_by_link,
            },
            "buffer_peaks": self.buffer_peaks,
            "buffered_total": self.buffered_total,
            "buffer_dropped": self.buffer_dropped,
            "proto_errors": self.proto_errors,
            "conservation": self.conservation,
        }

    def to_json(self) -> str:
        return _json(self.to_dict()) + "\n"


_INF = float("inf")


def _float(x: float) -> str:
    """json's rule for a float: its repr, NaN and the infinities by their
    JavaScript names."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# how each scalar type prints, by exact type: a subclass (an IntEnum, say)
# is refused rather than printed as json would print its base
_SCALARS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    float: _float,
}


def _json(value, indent: str = "") -> str:
    """`value` as `json.dumps(value, sort_keys=True, indent=2)` prints it, at
    `indent`: dicts with str keys, str, int, bool, None and float, each by
    its exact type; any other value raises TypeError. Each dict sorts its
    keys once and joins its lines once."""
    kind = type(value)
    if kind is not dict:
        text = _SCALARS.get(kind)
        if text is None:
            raise TypeError(f"the report has no JSON form for "
                            f"{kind.__name__} {value!r}")
        return text(value)
    if not value:
        return "{}"
    inner = indent + "  "
    lines = []
    append = lines.append
    for key in sorted(value):
        if type(key) is not str:
            raise TypeError(f"the report has no JSON form for the "
                            f"{type(key).__name__} key {key!r}")
        item = value[key]
        # ints are most of the report; they skip the call
        append(f"{inner}{encode_basestring_ascii(key)}: "
               f"{item if type(item) is int else _json(item, inner)}")
    return "{\n" + ",\n".join(lines) + "\n" + indent + "}"
