"""Data-plane node state machines: hosts, edge nodes, connector nodes.

Hosts own registration rows (producer and consumer tables) and deliver to
their apps; each delivery is one DELIVER trace line. Edge nodes keep one
row per community, found by its (valley, namespace, community) or by the
(valley, channel) a data copy carries, plus the installed path table, and
translate between point-to-point and transit message kinds. Each edge
also owns one twin table (`twin.TwinManager`), built with the edge, that
stands in for its silent hosts. Connectors know nothing but their
neighbors: they pop the root of the tree a copy carries and pick
forwarding strategies.

A copy is a message plus, on the sync kinds, the receiver's subtree of the
delivery tree riding beside it; `on_message(msg, meta, tree)` gets both,
with `tree` None on every other kind. A node sends on the message it
received as it is: a connector or a transit edge hands the arriving object
to every child with the child's own subtree, a producer edge puts the
host's header in its sync carrier and sends the host's message itself to
its local hosts, and a consumer edge builds one push message per receipt,
shared by all of its hosts and twin buffers. So node code reads a
message's kind, header fields and payload, and its sender only on what a
host sent its edge, but never its `receiver`, since the port a copy came
through names that, nor its header's `path_tree`, since the tree rides
beside; the one header tree a node reads is that of a decoded path
advertisement.

A data copy carries its metadata read, `(serial, q)`, beside it as `meta`:
the host that writes the metadata hands the pair to `transmit` with its
message, and a node passes the `meta` it received on with everything it
sends or buffers from that copy. Every node reads and rejects malformed data
in one step, `Node._read_data`: it pops the root of a sync copy's tree,
takes the serial and anycast share from `meta`, and reports a mis-rooted or
missing tree as one PROTO_ERROR. A copy handed over with no `meta` has its
metadata parsed there, and malformed metadata is one PROTO_ERROR too.

Hosts and edges signal each other with ops, control messages whose metadata
element starts with an op byte (schemas at the top of this module). Every op
goes out through `Node.send_op` and is read in `Node._read_op`, which reports
a malformed or unknown op as one PROTO_ERROR. Nodes never call each other
directly — everything goes through the environment object, which models
links, latencies and the controller RPC plane and holds the scenario config.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Protocol, Sequence

from .codec import (
    FloatingHeader,
    MessageKind,
    PathTree,
    YodelMessage,
    pop_path_root,
)
from .control import (ActivateProducerEdge, ChannelIdUpdate, JoinReply,
                      JoinRequest, PathAdvertisement, PathWithdraw, RemoveRole)
from .errors import (CodecError, MalformedFloating, RootMismatch,
                     UncoverableNeighbor)
from .services import (
    AnycastMode,
    ServiceModel,
    admit_producer,
    anycast_filter,
    check_self_lock_allowed,
    next_local_producer,
    role_rows,
    roles_for_join,
)
from .trace import Metrics, Trace
from .twin import TwinManager
from .ynid import Yni

if TYPE_CHECKING:
    from .scenario import SimConfig

__all__ = [
    "OP_JOIN_REQUEST", "OP_JOIN_REPLY", "OP_WITHDRAW", "OP_UNLOCK_PRODUCER",
    "OP_HELLO", "OP_HELLO_ACK", "OP_CHANNEL_UPDATE", "OP_HOST_CONSUMER_LOCK",
    "op_join_request", "op_join_reply", "op_withdraw", "op_unlock_producer",
    "op_hello", "op_hello_ack", "op_channel_update", "op_host_consumer_lock",
    "parse_op", "data_metadata", "parse_data_metadata",
    "Strategy", "AcTable", "NodeEnv", "Node",
    "HostRow", "HostNode", "FibRow", "EdgeNode", "ConnectorNode",
]


# ---------------------------------------------------------------------------
# host <-> edge op schemas (carried in the metadata element of control YPPs)

OP_JOIN_REQUEST = 0x01       # role(1) ttl(4, 0 = none) community(utf-8)
OP_JOIN_REPLY = 0x02         # role(1) flags(1) model(1) q(2) community
OP_WITHDRAW = 0x03           # role(1) community
OP_UNLOCK_PRODUCER = 0x05    # community       (app id in the floating header)
OP_HELLO = 0x06              # no fields
OP_HELLO_ACK = 0x07          # no fields
OP_CHANNEL_UPDATE = 0x08     # old_channel(8) community  (new id in floating)
OP_HOST_CONSUMER_LOCK = 0x09  # locked(1) community

_FLAG_LOCK_HOST = 0x01
_FLAG_RANDOMIZED = 0x02

_ROLE_BYTE = {"producer": 1, "consumer": 2, "member": 3}
_BYTE_ROLE = {v: k for k, v in _ROLE_BYTE.items()}

_MODELS = list(ServiceModel)
_MODEL_CODE = {m: i for i, m in enumerate(_MODELS)}


def op_join_request(role: str, community: str, ttl: Optional[int] = None) -> bytes:
    return struct.pack(">BBI", OP_JOIN_REQUEST, _ROLE_BYTE[role],
                       ttl or 0) + community.encode()


def op_join_reply(role: str, community: str, *, lock_host: bool,
                  model: ServiceModel, randomized: bool, q: int) -> bytes:
    flags = (_FLAG_LOCK_HOST if lock_host else 0) \
        | (_FLAG_RANDOMIZED if randomized else 0)
    return struct.pack(">BBBBH", OP_JOIN_REPLY, _ROLE_BYTE[role], flags,
                       _MODEL_CODE[model], q) + community.encode()


def op_withdraw(role: str, community: str) -> bytes:
    return struct.pack(">BB", OP_WITHDRAW, _ROLE_BYTE[role]) + community.encode()


def op_unlock_producer(community: str) -> bytes:
    return struct.pack(">B", OP_UNLOCK_PRODUCER) + community.encode()


def op_hello() -> bytes:
    return struct.pack(">B", OP_HELLO)


def op_hello_ack() -> bytes:
    return struct.pack(">B", OP_HELLO_ACK)


def op_channel_update(old_channel: int, community: str) -> bytes:
    return struct.pack(">BQ", OP_CHANNEL_UPDATE, old_channel) + community.encode()


def op_host_consumer_lock(community: str, *, locked: bool) -> bytes:
    return struct.pack(">BB", OP_HOST_CONSUMER_LOCK,
                       1 if locked else 0) + community.encode()


def parse_op(data: bytes) -> dict:
    """Decode an op payload into a field dict; raises MalformedFloating."""
    if not data:
        raise MalformedFloating("empty op payload")
    op = data[0]
    try:
        if op == OP_JOIN_REQUEST:
            _, role, ttl = struct.unpack(">BBI", data[:6])
            return {"op": op, "role": _BYTE_ROLE[role],
                    "ttl": ttl or None, "community": data[6:].decode()}
        if op == OP_JOIN_REPLY:
            _, role, flags, model, q = struct.unpack(">BBBBH", data[:6])
            return {"op": op, "role": _BYTE_ROLE[role],
                    "lock_host": bool(flags & _FLAG_LOCK_HOST),
                    "randomized": bool(flags & _FLAG_RANDOMIZED),
                    "model": _MODELS[model], "q": q,
                    "community": data[6:].decode()}
        if op == OP_WITHDRAW:
            _, role = struct.unpack(">BB", data[:2])
            return {"op": op, "role": _BYTE_ROLE[role],
                    "community": data[2:].decode()}
        if op == OP_UNLOCK_PRODUCER:
            return {"op": op, "community": data[1:].decode()}
        if op in (OP_HELLO, OP_HELLO_ACK):
            return {"op": op}
        if op == OP_CHANNEL_UPDATE:
            _, old = struct.unpack(">BQ", data[:9])
            return {"op": op, "old_channel": old, "community": data[9:].decode()}
        if op == OP_HOST_CONSUMER_LOCK:
            _, locked = struct.unpack(">BB", data[:2])
            return {"op": op, "locked": bool(locked),
                    "community": data[2:].decode()}
    except (struct.error, KeyError, IndexError, UnicodeDecodeError) as exc:
        raise MalformedFloating(f"bad op payload: {exc}") from None
    raise MalformedFloating(f"unknown op byte {op:#04x}")


# data messages: 4-byte send serial, plus the delivery fraction on anycast
# kinds so stateless forwarders can filter without any per-community state

_Q_SCALE = 65535


def data_metadata(serial: int, q: Optional[int] = None) -> bytes:
    if q is None:
        return struct.pack(">I", serial)
    return struct.pack(">IH", serial, q)


_CONTROL = MessageKind.CONTROL_YPP
_ANYCAST_KINDS = frozenset((MessageKind.ANYCAST_DATA_YPP,
                            MessageKind.ANYCAST_DATA_YSYNC))

# the push and sync kind of each data flavour: an edge turns a host's push
# into a sync along its path tree, and a sync back into a push for its hosts
_SYNC_OF_PUSH = {MessageKind.DATA_YPP: MessageKind.DATA_YSYNC,
                 MessageKind.ANYCAST_DATA_YPP: MessageKind.ANYCAST_DATA_YSYNC}
_PUSH_OF_SYNC = {sync: push for push, sync in _SYNC_OF_PUSH.items()}


# a data copy's metadata read: its send serial and, on anycast kinds, its
# delivery fraction out of _Q_SCALE
_Meta = tuple[int, Optional[int]]

# a copy to send: its destination, its message, which every copy of one
# `transmit` call shares, and on the sync kinds the destination's subtree
_Copy = tuple[Yni, YodelMessage, Optional[PathTree]]


def parse_data_metadata(kind: MessageKind, meta: Optional[bytes]) -> _Meta:
    try:
        if kind in _ANYCAST_KINDS:
            serial, q = struct.unpack(">IH", meta)
            return serial, q
        (serial,) = struct.unpack(">I", meta)
        return serial, None
    except (struct.error, TypeError) as exc:
        raise MalformedFloating(f"bad data metadata: {exc}") from None


def _mode_from_q(q: int) -> AnycastMode:
    return AnycastMode(True, q / _Q_SCALE)


# ---------------------------------------------------------------------------
# forwarding strategies


@dataclass(eq=False)
class Strategy:
    kind: str                 # "unicast" | "local-multicast"
    covers: frozenset[Yni]
    latency: int
    sorted_covers: tuple[Yni, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.sorted_covers = tuple(sorted(self.covers))


# a route: the ids with no row, sorted, and one (multicast?, indices of the
# covered children in input order) batch per chosen strategy
_Route = tuple[tuple[Yni, ...], tuple[tuple[bool, tuple[int, ...]], ...]]


class AcTable:
    """Per-node neighbor table: which strategies can reach which neighbors.
    A neighbor is routable exactly when it has a row.

    `route` memoises its result per child tuple until the rows change. The
    key holds neighbor ids only, so the memo keeps no per-flow state."""

    def __init__(self):
        self.rows: dict[Yni, list[Strategy]] = {}
        self._routes: dict[tuple[Yni, ...], _Route] = {}

    def add_neighbor(self, yni: Yni, latency: int) -> None:
        s = Strategy("unicast", frozenset((yni,)), latency)
        self.rows.setdefault(yni, []).append(s)
        self._routes.clear()

    def add_group(self, members: Iterable[Yni], latency: int) -> None:
        covered = frozenset(members)
        if len(covered) < 2:
            raise ValueError("a local-multicast strategy must cover >= 2 neighbors")
        s = Strategy("local-multicast", covered, latency)
        for m in covered:
            self.rows.setdefault(m, []).append(s)
        self._routes.clear()

    def route(self, children: tuple[Yni, ...]) -> _Route:
        """How to send one copy to each of `children`: the ids with no row,
        sorted and without repeats, and per strategy of `plan` over the
        rest, whether it is a local multicast and the indices of the
        children it covers, in input order."""
        cached = self._routes.get(children)
        if cached is not None:
            return cached
        rows = self.rows
        unrouted = tuple(sorted({y for y in children if y not in rows}))
        routed = [y for y in children if y in rows]
        batches = tuple(
            (strategy.kind == "local-multicast",
             tuple(i for i, y in enumerate(children) if y in covered))
            for strategy, covered in (self.plan(routed) if routed else ()))
        cached = self._routes[children] = unrouted, batches
        return cached

    def plan(self, required: Iterable[Yni]) -> list[tuple[Strategy, frozenset[Yni]]]:
        """Greedy minimum-transmission cover of the required neighbor set.

        Pick the strategy covering the most uncovered neighbors; ties go to
        the lower latency stat, then the lowest first-covered id, then kind,
        then the sorted covered ids; strategies equal on all of these keep
        their table order. Covered subsets are disjoint. Raises
        UncoverableNeighbor when some required neighbor has no row.
        """
        uncovered = set(required)
        missing = uncovered.difference(self.rows)
        if missing:
            raise UncoverableNeighbor(sorted(missing))
        candidates = dict.fromkeys(
            s for y in sorted(uncovered) for s in self.rows[y])
        plan: list[tuple[Strategy, frozenset[Yni]]] = []
        while uncovered:
            best = None
            for s in candidates:
                gain = s.covers & uncovered
                if gain:
                    key = (-len(gain), s.latency, min(gain), s.kind,
                           s.sorted_covers)
                    if best is None or key < best[0]:
                        best = key, s, gain
            _, strategy, gain = best
            plan.append((strategy, gain))
            uncovered -= gain
        return plan


# ---------------------------------------------------------------------------
# node <-> environment boundary


class NodeEnv(Protocol):
    """What a node may ask of the world it runs in. `sim.Simulation` is the
    one implementation; node tests run on it too.

    `transmit` sends (destination, message, tree) copies of one message
    object: `tree` is the destination's subtree on the sync kinds and None
    on every other kind. `meta` is the message's data metadata read,
    `(serial, q)`, and None on control. It lands each copy with a call to
    its receiver's `on_message(msg, meta, tree)`. The receiver reads
    neither `msg.receiver`, which names no one copy's destination, nor
    `msg.floating.path_tree`, which is None."""

    trace: Trace
    metrics: Metrics
    config: SimConfig

    def now(self) -> int: ...
    def rng(self, label: str): ...
    def next_serial(self) -> int: ...       # numbers data sends from 1
    def transmit(self, src: "Node", copies: list[_Copy],
                 mcast: bool = False,
                 meta: Optional[_Meta] = None) -> None: ...
    def controller_rpc(self, src: "Node", payload: object) -> None: ...
    # twin keepalives: a round sent as events, the rounds from now on a
    # quiet table may settle in closed form and sleep through, and the
    # count of those whose sweep has passed
    def sync_hosts(self, edge: "EdgeNode", hosts: list[Yni]) -> None: ...
    def settle_sync(self, edge: "EdgeNode") -> range: ...
    def count_sync(self, edge: "EdgeNode", hosts: Iterable[Yni],
                   rounds: range) -> int: ...
    def host_attached(self, edge: "EdgeNode", host: Yni) -> bool: ...
    def label_of(self, yni: Yni) -> str: ...


class Node:
    def __init__(self, label: str, yni: Yni, domain: str, env: NodeEnv):
        self.label = label
        self.yni = yni
        self.domain = domain
        self.env = env
        self.act = AcTable()

    def emit(self, event: str, *fields: tuple[str, object]) -> None:
        self.env.trace.emit(self.env.now(), self.label, event, *fields)

    def drop(self, reason: str, *fields: tuple[str, object]) -> None:
        self.emit("DROP", ("reason", reason), *fields)
        self.env.metrics.dropped(self.label, reason)

    def proto_error(self, reason: str) -> None:
        self.emit("PROTO_ERROR", ("reason", reason))
        self.env.metrics.proto_errors += 1

    def on_message(self, msg: YodelMessage, meta: Optional[_Meta] = None,
                   tree: Optional[PathTree] = None) -> None:
        """Receive one copy: a message, perhaps shared with other copies,
        and on the sync kinds this node's subtree of the delivery tree.
        `meta` is its data metadata read, `(serial, q)`, as the sender
        passed it on; None on control kinds and on a data copy handed over
        without it, whose metadata `_read_data` parses."""
        raise NotImplementedError

    def send_op(self, dest: Yni, op: bytes, valley_id: Optional[int] = None,
                channel_id: Optional[int] = None,
                namespace_id: Optional[int] = None,
                app_id: Optional[int] = None) -> None:
        """The send step for ops: one control message carrying `op`."""
        msg = YodelMessage(_CONTROL, self.yni, dest, FloatingHeader(
            valley_id=valley_id, channel_id=channel_id,
            namespace_id=namespace_id, application_id=app_id, metadata=op))
        self.env.transmit(self, [(dest, msg, None)])

    def _read_op(self, msg: YodelMessage) -> Optional[dict]:
        """The receive step for ops: the parsed op, or None once a
        malformed or unknown op is reported."""
        try:
            return parse_op(msg.floating.metadata or b"")
        except MalformedFloating as exc:
            self.proto_error(str(exc))
            return None

    def _read_data(self, msg: YodelMessage, meta: Optional[_Meta],
                   tree: Optional[PathTree] = None
                   ) -> Optional[tuple[_Meta, Optional[AnycastMode],
                                       tuple[PathTree, ...]]]:
        """The receive step for data: the metadata read `(serial, q)` that
        everything sent on from this copy carries, the anycast mode (None
        on plain kinds) and, on sync kinds, the subtrees of the children of
        `tree`, whose root must be this node (else none). None once a
        mis-rooted or missing tree or malformed metadata is reported. The
        read is `meta`; a copy handed over without it is parsed here."""
        try:
            children = pop_path_root(tree, self.yni) \
                if msg.kind in _PUSH_OF_SYNC else ()
            meta = meta or parse_data_metadata(msg.kind, msg.floating.metadata)
        except (RootMismatch, MalformedFloating) as exc:
            self.proto_error(str(exc))
            return None
        q = meta[1]
        return meta, None if q is None else _mode_from_q(q), children

    def strategic_send(self, msg: YodelMessage, subtrees: Sequence[PathTree],
                       meta: _Meta) -> None:
        """Send `msg`, whose metadata read is `meta`, to the root of each
        subtree, with that subtree beside it, using the fewest
        transmissions the strategy table allows; children with no route
        are dropped. Every copy shares `msg`."""
        unrouted, batches = self.act.route(tuple([t.yni for t in subtrees]))
        for child in unrouted:
            self.drop("no_route", ("to", child))
        for mcast, indices in batches:
            self.env.transmit(self, [(subtrees[i].yni, msg, subtrees[i])
                                     for i in indices], mcast=mcast, meta=meta)


# ---------------------------------------------------------------------------
# hosts


@dataclass
class HostRow:
    valley_id: int
    namespace_id: int
    community: str
    app_id: int
    channel_id: int
    model: ServiceModel
    randomized: bool
    q: int
    locked: bool = False
    timer: Optional[int] = None  # absolute expiry tick


_RowKey = tuple[int, str, int]  # (valley, community, app)
_APP_ORDER = attrgetter("app_id")


class HostNode(Node):
    """A user host: registration tables and delivery to its apps."""

    def __init__(self, label: str, yni: Yni, env: NodeEnv, user: str):
        super().__init__(label, yni, "", env)
        self.user = user
        self.edge: Optional[Yni] = None
        self.prt: dict[_RowKey, HostRow] = {}
        self.crt: dict[_RowKey, HostRow] = {}
        # (valley, community) -> its rows of `crt` sorted by app; dropped
        # whenever `crt` gains or loses one of its rows, and rebuilt when
        # next asked for
        self._consumers: dict[tuple[int, str], list[HostRow]] = {}
        self.by_channel: dict[tuple[int, int], str] = {}
        self.gated = False          # between hello and hello-ack
        self._held_sends: list[tuple[int, str, int, bytes]] = []
        self._pending_ttl: dict[tuple[int, str, str, int], Optional[int]] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, edge_yni: Yni, domain: str) -> None:
        self.edge = edge_yni
        self.domain = domain

    # -- app operations -------------------------------------------------------

    def request_join(self, valley_id: int, namespace_id: int, community: str,
                     role: str, app_id: int, ttl: Optional[int] = None) -> None:
        self._pending_ttl[(valley_id, community, role, app_id)] = ttl
        self.send_op(self.edge, op_join_request(role, community, ttl),
                     valley_id=valley_id, namespace_id=namespace_id,
                     app_id=app_id)

    def withdraw(self, valley_id: int, namespace_id: int, community: str,
                 role: str, app_id: int) -> None:
        key = (valley_id, community, app_id)
        for r in role_rows(role):
            if r == "producer":
                self.prt.pop(key, None)
            elif self.crt.pop(key, None) is not None:
                self._consumers.pop((valley_id, community), None)
        self.send_op(self.edge, op_withdraw(role, community),
                     valley_id=valley_id, namespace_id=namespace_id,
                     app_id=app_id)

    def send_data(self, valley_id: int, community: str, app_id: int,
                  payload: bytes) -> None:
        if self.gated:
            self._held_sends.append((valley_id, community, app_id, payload))
            return
        row = self.prt.get((valley_id, community, app_id))
        if row is None:
            self.drop("no_registration", ("community", community))
            return
        if self._expired(self.prt, row):
            self.drop("no_registration", ("community", community))
            return
        if row.locked:
            self.drop("producer_locked", ("community", community))
            return
        serial = self.env.next_serial()
        self.env.metrics.note_send_tick(serial, self.env.now())
        self.emit("SEND", ("k", "data"), ("community", community),
                  ("app", app_id), ("serial", serial))
        # co-located consumer apps get the message without touching the wire;
        # the sending app never hears its own echo
        self._deliver_in_host(row, serial, exclude_app=app_id)
        q = row.q if row.randomized else None
        kind = MessageKind.ANYCAST_DATA_YPP if row.randomized else MessageKind.DATA_YPP
        msg = YodelMessage(kind, self.yni, self.edge,
                           FloatingHeader(valley_id=valley_id,
                                          channel_id=row.channel_id,
                                          metadata=data_metadata(serial, q)),
                           payload)
        self.env.transmit(self, [(self.edge, msg, None)], meta=(serial, q))

    def set_consumer_lock(self, valley_id: int, community: str, app_id: int,
                          locked: bool) -> None:
        row = self.crt[(valley_id, community, app_id)]
        check_self_lock_allowed(row.model)
        row.locked = locked
        self.emit("LOCK" if locked else "UNLOCK", ("table", "crt"),
                  ("community", community), ("app", app_id))
        rows = [r for (v, c, _), r in self.crt.items()
                if v == valley_id and c == community]
        all_locked = all(r.locked for r in rows)
        self.send_op(self.edge,
                     op_host_consumer_lock(community, locked=all_locked),
                     valley_id=valley_id, channel_id=row.channel_id)

    # -- reconnect ------------------------------------------------------------

    def begin_reconnect(self) -> None:
        """Announce the return to the edge; data sends queue until the edge
        acknowledges, because lock state may have moved while away."""
        self.gated = True
        self.send_op(self.edge, op_hello())

    # -- receive path ---------------------------------------------------------

    def on_message(self, msg: YodelMessage, meta: Optional[_Meta] = None,
                   tree: Optional[PathTree] = None) -> None:
        if msg.kind is _CONTROL:
            self._handle_op(msg)
            return
        if msg.kind in _SYNC_OF_PUSH:
            self._handle_data(msg, meta)
            return
        self.drop("unhandled_kind", ("k", msg.kind.name))

    def _handle_data(self, msg: YodelMessage, meta: Optional[_Meta]) -> None:
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        community = self.by_channel.get((valley, channel))
        if community is None:
            self.drop("unknown_channel", ("channel", channel))
            return
        read = self._read_data(msg, meta)
        if read is None:
            return
        (serial, _), mode, _ = read
        rows = self._live_consumer_rows(valley, community)
        if mode is not None:
            rows = anycast_filter("host", rows, mode, self.env.rng(self.label))
        for row in rows:
            self._deliver_app(row.app_id, serial, community)

    def _live_consumer_rows(self, valley_id: int, community: str) -> list[HostRow]:
        """The community's unlocked consumer rows in app order; a row past
        its ttl is dropped here, with its EXPIRE line."""
        key = (valley_id, community)
        rows = self._consumers.get(key)
        if rows is None:
            rows = self._consumers[key] = sorted(
                [row for (v, c, _), row in self.crt.items()
                 if v == valley_id and c == community], key=_APP_ORDER)
        crt = self.crt
        return [row for row in rows
                if (row.timer is None or not self._expired(crt, row))
                and not row.locked]

    def _deliver_in_host(self, prow: HostRow, serial: int,
                         exclude_app: Optional[int]) -> None:
        rows = [r for r in self._live_consumer_rows(prow.valley_id, prow.community)
                if r.app_id != exclude_app]
        if prow.randomized:
            rows = anycast_filter("host", rows, _mode_from_q(prow.q),
                                  self.env.rng(self.label))
        for row in rows:
            self._deliver_app(row.app_id, serial, prow.community)

    def _deliver_app(self, app_id: int, serial: int, community: str) -> None:
        env = self.env
        now = env.now()
        env.trace.emit(now, self.label, "DELIVER", ("app", app_id),
                       ("community", community), ("serial", serial))
        env.metrics.delivered(self.label, serial, now)

    def _expired(self, table: dict, row: HostRow) -> bool:
        if row.timer is not None and self.env.now() > row.timer:
            table.pop((row.valley_id, row.community, row.app_id), None)
            if table is self.crt:
                self._consumers.pop((row.valley_id, row.community), None)
            self.emit("EXPIRE", ("community", row.community), ("app", row.app_id))
            return True
        return False

    # -- control ops ----------------------------------------------------------

    def _handle_op(self, msg: YodelMessage) -> None:
        op = self._read_op(msg)
        if op is None:
            return
        code = op["op"]
        f = msg.floating
        if code == OP_JOIN_REPLY:
            self._install_rows(f, op)
        elif code == OP_UNLOCK_PRODUCER:
            row = self.prt.get((f.valley_id, op["community"], f.application_id))
            if row is not None:
                row.locked = False
                self.emit("UNLOCK", ("table", "prt"), ("community", op["community"]),
                          ("app", f.application_id))
        elif code == OP_CHANNEL_UPDATE:
            self._rekey_channel(f.valley_id, op["old_channel"], f.channel_id,
                                op["community"])
        elif code == OP_HELLO_ACK:
            self.gated = False
            held, self._held_sends = self._held_sends, []
            for args in held:
                self.send_data(*args)
        else:
            self.drop("unhandled_op", ("op", code))

    def _install_rows(self, f: FloatingHeader, op: dict) -> None:
        """Install or refresh the rows a join reply names. A reply that
        answers a pending join sets the rows' expiry from that join's ttl,
        as a re-join refreshes soft state; a resync reply answers no join
        and leaves the expiry alone."""
        join = (f.valley_id, op["community"], op["role"], f.application_id)
        answers_join = join in self._pending_ttl
        ttl = self._pending_ttl.pop(join, None)
        timer = None if ttl is None else self.env.now() + ttl
        channel = (f.valley_id, f.channel_id)
        for r in role_rows(op["role"]):
            table = self.prt if r == "producer" else self.crt
            key = (f.valley_id, op["community"], f.application_id)
            existing = table.get(key)
            locked = op["lock_host"] if r == "producer" else False
            if existing is not None:
                # the row moved to a new channel, say after an update was
                # lost while the host was away: the old id is dead
                old = (f.valley_id, existing.channel_id)
                if (old != channel
                        and self.by_channel.get(old) == op["community"]):
                    del self.by_channel[old]
                existing.channel_id = f.channel_id
                if r == "producer":
                    # the edge owns producer locks; consumer self-locks are
                    # this host's business and survive refreshes
                    existing.locked = locked
                existing.model = op["model"]
                existing.randomized = op["randomized"]
                existing.q = op["q"]
                if answers_join:
                    existing.timer = timer
            else:
                table[key] = HostRow(f.valley_id, f.namespace_id or 0,
                                     op["community"], f.application_id,
                                     f.channel_id, op["model"],
                                     op["randomized"], op["q"],
                                     locked=locked, timer=timer)
                if table is self.crt:
                    self._consumers.pop(key[:2], None)
        self.by_channel[channel] = op["community"]

    def _rekey_channel(self, valley_id: int, old: int, new: int,
                       community: str) -> None:
        self.by_channel.pop((valley_id, old), None)
        self.by_channel[(valley_id, new)] = community
        for table in (self.prt, self.crt):
            for (v, c, _), row in table.items():
                if v == valley_id and c == community:
                    row.channel_id = new

    # -- table dump -----------------------------------------------------------

    def state_dump(self) -> bytes:
        """The host's registration tables as JSON. No caller in the
        package; bench/layers.py traces it by name, so it stays until that
        entry goes."""
        def rows(table):
            return [{"valley": r.valley_id, "community": r.community,
                     "app": r.app_id, "channel": r.channel_id,
                     "locked": r.locked, "timer": r.timer}
                    for _, r in sorted(table.items())]
        return json.dumps({"prt": rows(self.prt), "crt": rows(self.crt)},
                          sort_keys=True).encode()


# ---------------------------------------------------------------------------
# edge nodes


@dataclass
class FibRow:
    """One community at an edge: its channel and service model, the roles
    the edge holds for it, and the local host apps on either side. The row
    carries its whole key: `EdgeNode.rows` holds it under (valley,
    namespace, community) and `EdgeNode.channels` under (valley, channel)."""
    valley_id: int
    namespace_id: int
    community: str
    channel_id: int
    model: ServiceModel
    randomized: bool
    q: int
    roles: set[str] = field(default_factory=set)
    edge_locked: bool = False
    active: bool = False
    producer_apps: dict[tuple[Yni, int], bool] = field(default_factory=dict)
    # replaced on every change, never changed in place, so that
    # `consumer_hosts` can keep its answer until the set is replaced
    consumer_apps: frozenset[tuple[Yni, int]] = frozenset()
    locked_hosts: set[Yni] = field(default_factory=set)
    # the `consumer_apps` last sorted by `consumer_hosts`, and its hosts
    _hosts: tuple[Optional[frozenset[tuple[Yni, int]]], tuple[Yni, ...]] = \
        field(default=(None, ()), init=False, repr=False, compare=False)

    def consumer_hosts(self) -> tuple[Yni, ...]:
        """The hosts of `consumer_apps`, sorted; sorted again only once the
        set has been replaced, as every edge copy of a community asks."""
        apps, hosts = self._hosts
        if apps is not self.consumer_apps:
            hosts = tuple(sorted({h for h, _ in self.consumer_apps}))
            self._hosts = self.consumer_apps, hosts
        return hosts

    def unlocked_producers(self) -> list[tuple[Yni, int]]:
        return sorted(k for k, locked in self.producer_apps.items() if not locked)


class EdgeNode(Node):
    """Border node: community rows, path table, host attachment, twin
    hosting. `channels` and the path table `aft` share a data copy's key."""

    def __init__(self, label: str, yni: Yni, domain: str, env: NodeEnv):
        super().__init__(label, yni, domain, env)
        self.rows: dict[tuple[int, int, str], FibRow] = {}
        self.channels: dict[tuple[int, int], FibRow] = {}
        self.aft: dict[tuple[int, int], PathTree] = {}
        self.twin = TwinManager(self)
        self._pending: dict[tuple[int, int, str, str], list[tuple[Yni, int]]] = {}

    # -- wiring ---------------------------------------------------------------

    def attach_host(self, host_yni: Yni) -> None:
        self.twin.host_connected(host_yni)

    # -- receive path ---------------------------------------------------------

    def on_message(self, msg: YodelMessage, meta: Optional[_Meta] = None,
                   tree: Optional[PathTree] = None) -> None:
        if msg.kind is _CONTROL:
            self._handle_op(msg)
        elif msg.kind in _SYNC_OF_PUSH:
            self._handle_producer_data(msg, meta)
        elif msg.kind in _PUSH_OF_SYNC:
            self._handle_network_data(msg, meta, tree)
        else:
            self.drop("unhandled_kind", ("k", msg.kind.name))

    # -- joins ----------------------------------------------------------------

    def _handle_op(self, msg: YodelMessage) -> None:
        op = self._read_op(msg)
        if op is None:
            return
        code = op["op"]
        f = msg.floating
        host = msg.sender
        if code == OP_JOIN_REQUEST:
            self._handle_host_join(host, f.valley_id, f.namespace_id,
                                   op["community"], op["role"], f.application_id)
        elif code == OP_WITHDRAW:
            self._handle_withdraw(host, f.valley_id, f.namespace_id,
                                  op["community"], op["role"], f.application_id)
        elif code == OP_HELLO:
            self.twin.on_hello(host)
        elif code == OP_HOST_CONSUMER_LOCK:
            self._set_host_consumer_lock(host, f.valley_id, op["community"],
                                         op["locked"])
        else:
            self.drop("unhandled_op", ("op", code))

    def _handle_host_join(self, host: Yni, valley_id: int, namespace_id: int,
                          community: str, role: str, app_id: int) -> None:
        row = self.rows.get((valley_id, namespace_id, community))
        if row is not None and roles_for_join(row.model, role) <= row.roles:
            self._admit_locally(row, host, app_id, role)
            return
        key = (valley_id, namespace_id, community, role)
        waiters = self._pending.setdefault(key, [])
        waiters.append((host, app_id))
        if len(waiters) == 1:
            self.env.controller_rpc(self, JoinRequest(
                self.yni, valley_id, namespace_id, community, role, host, app_id))

    def _admit_locally(self, row: FibRow, host: Yni, app_id: int,
                       role: str) -> None:
        roles = roles_for_join(row.model, role)
        lock_host = False
        if "consumer" in roles:
            row.consumer_apps |= {(host, app_id)}
        if "producer" in roles:
            lock_host = admit_producer(
                row.model,
                scope_has_active_edge=row.active or row.edge_locked,
                edge_is_active=row.active,
                edge_has_active_producer=bool(row.unlocked_producers()))
            row.producer_apps[(host, app_id)] = lock_host
            if lock_host:
                self.emit("LOCK", ("table", "ppt"), ("community", row.community),
                          ("host", host), ("app", app_id))
        self._send_join_reply(row, host, app_id, role, lock_host)

    def _send_join_reply(self, row: FibRow, host: Yni, app_id: int, role: str,
                         lock_host: bool) -> None:
        self.send_op(host, op_join_reply(role, row.community,
                                         lock_host=lock_host, model=row.model,
                                         randomized=row.randomized, q=row.q),
                     valley_id=row.valley_id, channel_id=row.channel_id,
                     namespace_id=row.namespace_id, app_id=app_id)

    # -- controller plane ------------------------------------------------------

    def on_controller(self, payload: object) -> None:
        if isinstance(payload, JoinReply):
            self._on_join_reply(payload)
        elif isinstance(payload, PathAdvertisement):
            self._on_path_advertisement(payload)
        elif isinstance(payload, PathWithdraw):
            self.aft.pop((payload.valley_id, payload.channel_id), None)
        elif isinstance(payload, ActivateProducerEdge):
            self._on_activate(payload)
        elif isinstance(payload, ChannelIdUpdate):
            self._on_channel_update(payload)
        else:
            self.drop("unhandled_rpc", ("k", type(payload).__name__))

    def _on_join_reply(self, reply) -> None:
        key = (reply.valley_id, reply.namespace_id, reply.community)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = FibRow(
                *key, reply.channel_id, reply.service_model,
                reply.anycast_randomized, reply.anycast_q)
            self.channels[(reply.valley_id, reply.channel_id)] = row
        roles = roles_for_join(reply.service_model, reply.role)
        row.roles |= roles
        if "producer" in roles:
            row.edge_locked = reply.lock_edge
            row.active = not reply.lock_edge
            if reply.lock_edge:
                self.emit("LOCK", ("table", "ppt"), ("scope", "edge"),
                          ("community", row.community))
        waiters = self._pending.pop(
            (reply.valley_id, reply.namespace_id, reply.community, reply.role),
            [])
        for host, app_id in waiters:
            self._admit_locally(row, host, app_id, reply.role)

    def _on_path_advertisement(self, adv) -> None:
        from .codec import decode
        try:
            msg = decode(adv.message)
        except CodecError as exc:
            self.proto_error(f"bad path advertisement: {exc}")
            return
        tree = msg.floating.path_tree
        if tree is None or tree.yni != self.yni:
            self.proto_error("path advertisement rooted elsewhere")
            return
        self.aft[(msg.floating.valley_id, msg.floating.channel_id)] = tree

    def _on_activate(self, act) -> None:
        row = self.rows.get((act.valley_id, act.namespace_id, act.community))
        if row is None:
            return
        row.active = True
        row.edge_locked = False
        self.emit("UNLOCK", ("table", "ppt"), ("scope", "edge"),
                  ("community", row.community))
        self._unlock_next_producer(row)

    def _on_channel_update(self, upd) -> None:
        row = self.channels.pop((upd.valley_id, upd.old_channel_id), None)
        if row is None:
            return
        row.channel_id = upd.new_channel_id
        self.channels[(upd.valley_id, upd.new_channel_id)] = row
        self.twin.rekey_buffered(upd.valley_id, upd.old_channel_id,
                                 upd.new_channel_id)
        hosts = sorted({h for h, _ in row.producer_apps}
                       | {h for h, _ in row.consumer_apps})
        for host in hosts:
            self.send_op(host, op_channel_update(upd.old_channel_id,
                                                 row.community),
                         valley_id=upd.valley_id,
                         channel_id=upd.new_channel_id)

    # -- role withdrawal and failover -----------------------------------------

    def _handle_withdraw(self, host: Yni, valley_id: int, namespace_id: int,
                         community: str, role: str, app_id: int) -> None:
        row = self.rows.get((valley_id, namespace_id, community))
        if row is None:
            return
        roles = role_rows(role)
        if "consumer" in roles:
            row.consumer_apps -= {(host, app_id)}
        if "producer" in roles:
            was = row.producer_apps.pop((host, app_id), None)
            if was is False:  # the unlocked producer left
                self._unlock_next_producer(row)
        self._maybe_release_roles(row)

    def _unlock_next_producer(self, row: FibRow) -> None:
        """Local producer failover: unlock the lowest on-hold (host, app) on a
        reachable host. Twin-active hosts cannot answer, so they are skipped;
        their registrations stay."""
        if not row.model.single_source:
            return
        if row.unlocked_producers():
            return
        blocked = self.twin.active_hosts()
        candidates = [k for k, locked in row.producer_apps.items()
                      if locked and k[0] not in blocked]
        target = next_local_producer(candidates)
        if target is None:
            return
        host, app_id = target
        row.producer_apps[target] = False
        self.emit("UNLOCK", ("table", "ppt"), ("community", row.community),
                  ("host", host), ("app", app_id))
        self.send_op(host, op_unlock_producer(row.community),
                     valley_id=row.valley_id, channel_id=row.channel_id,
                     app_id=app_id)

    def _maybe_release_roles(self, row: FibRow) -> None:
        """Drop edge-level registrations whose last host app is gone, telling
        the controller; delete the row once both sides are empty."""
        released = []
        if row.model is ServiceModel.MMM:
            if not row.producer_apps and not row.consumer_apps \
                    and "producer" in row.roles:
                released.append("member")
                row.roles.clear()
        else:
            if "producer" in row.roles and not row.producer_apps:
                row.roles.discard("producer")
                row.active = False
                released.append("producer")
            if "consumer" in row.roles and not row.consumer_apps:
                row.roles.discard("consumer")
                released.append("consumer")
        for role in released:
            self.env.controller_rpc(self, RemoveRole(
                self.yni, row.valley_id, row.namespace_id, row.community, role))
        if not row.roles and not row.producer_apps and not row.consumer_apps:
            self.rows.pop((row.valley_id, row.namespace_id, row.community), None)
            self.channels.pop((row.valley_id, row.channel_id), None)

    def _set_host_consumer_lock(self, host: Yni, valley_id: int,
                                community: str, locked: bool) -> None:
        for row in self.rows.values():
            if row.valley_id != valley_id or row.community != community:
                continue
            if locked:
                row.locked_hosts.add(host)
            else:
                row.locked_hosts.discard(host)
            self.emit("LOCK" if locked else "UNLOCK", ("table", "pct"),
                      ("community", community), ("host", host))

    # -- data path -------------------------------------------------------------

    def _handle_producer_data(self, msg: YodelMessage,
                              meta: Optional[_Meta]) -> None:
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        row = self.channels.get((valley, channel))
        if row is None:
            self.drop("unknown_channel", ("channel", channel))
            return
        sender = msg.sender
        sender_apps = [k for k in row.producer_apps if k[0] == sender]
        if not sender_apps:
            self.drop("no_registration", ("host", sender))
            return
        if all(row.producer_apps[k] for k in sender_apps):
            self.drop("producer_locked", ("host", sender))
            return
        read = self._read_data(msg, meta)
        if read is None:
            return
        meta, mode, _ = read
        # the host's own message is every local host's copy
        self._deliver_to_local_consumers(row, msg, meta, exclude=sender,
                                         mode=mode)
        tree = self.aft.get((valley, channel))
        if tree is not None:
            self._originate_sync(msg, meta, tree)

    def _handle_network_data(self, msg: YodelMessage, meta: Optional[_Meta],
                             tree: Optional[PathTree]) -> None:
        read = self._read_data(msg, meta, tree)
        if read is None:
            return
        meta, mode, children = read
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        row = self.channels.get((valley, channel))
        if row is not None and "consumer" in row.roles:
            # one push message, on the header that arrived, for every
            # host's copy
            push = YodelMessage(_PUSH_OF_SYNC[msg.kind], self.yni, self.yni,
                                msg.floating, msg.payload)
            self._deliver_to_local_consumers(row, push, meta, exclude=None,
                                             mode=mode)
        elif row is None and not children:
            self.drop("unknown_channel", ("channel", channel))
        if children:
            self.strategic_send(msg, children, meta)

    def _deliver_to_local_consumers(self, row: FibRow, msg: YodelMessage,
                                    meta: _Meta, exclude: Optional[Yni],
                                    mode: Optional[AnycastMode]) -> None:
        """Send `msg`, whose metadata read is `meta`, to each local consumer
        host but `exclude`, or buffer it with `meta` at the host's twin;
        every copy and buffer shares it."""
        targets = [h for h in row.consumer_hosts()
                   if h != exclude and h not in row.locked_hosts]
        if mode is not None:
            targets = anycast_filter("edge", targets, mode,
                                     self.env.rng(self.label))
        twin = self.twin
        copies = []
        for host in targets:
            if twin.is_active(host):
                twin.buffer_message(host, msg, meta)
            else:
                copies.append((host, msg, None))
        self.env.transmit(self, copies, meta=meta)

    def _originate_sync(self, msg: YodelMessage, meta: _Meta,
                        tree: PathTree) -> None:
        """Start a host's message down this edge's installed tree: one
        sync carrier on the host's header, with its metadata read `meta`,
        the tree beside it."""
        carrier = YodelMessage(_SYNC_OF_PUSH[msg.kind], self.yni, self.yni,
                               msg.floating, msg.payload)
        self.strategic_send(carrier, pop_path_root(tree, self.yni), meta)

    # -- twin hooks ------------------------------------------------------------

    def consumer_rows_of(self, host: Yni) -> int:
        """How many rows hold a consumer app of the host."""
        return sum(any(h == host for h, _ in row.consumer_apps)
                   for row in self.rows.values())

    def fail_over_host(self, host: Yni) -> None:
        """The host went unreachable: in each row, by valley and then in
        table order, re-lock its unlocked producer app if any and run the
        local failover chain; with no local candidate on an active row,
        resign the producer role so the controller can move."""
        for row in sorted(self.rows.values(), key=attrgetter("valley_id")):
            held = [k for k, locked in row.producer_apps.items()
                    if k[0] == host and not locked]
            if not held:
                continue
            for k in held:
                row.producer_apps[k] = True
                self.emit("LOCK", ("table", "ppt"),
                          ("community", row.community), ("host", host),
                          ("app", k[1]))
            self._unlock_next_producer(row)
            if row.model.single_source and row.active \
                    and not row.unlocked_producers():
                # no reachable local producer; resign the active role so
                # the control plane can move it to an on-hold edge.
                # Multi-source trees stay up: other edges are unaffected
                # and the host's registrations survive for its return.
                row.roles.discard("producer")
                row.active = False
                self.env.controller_rpc(self, RemoveRole(
                    self.yni, row.valley_id, row.namespace_id, row.community,
                    "producer"))

    def resync_host(self, host: Yni) -> None:
        """Reconnect corrections: refresh every row the host appears in so
        its lock and channel state match the edge before anything else
        reaches it. On a many-to-many row one member refresh per app covers
        both of its rows."""
        for _, row in sorted(self.rows.items()):
            mmm = row.model is ServiceModel.MMM
            refresh = [("member" if mmm else "producer", app_id, locked)
                       for (h, app_id), locked
                       in sorted(row.producer_apps.items()) if h == host]
            if not mmm:
                refresh += [("consumer", app_id, False)
                            for h, app_id in sorted(row.consumer_apps)
                            if h == host]
            for role, app_id, locked in refresh:
                self._send_join_reply(row, host, app_id, role, locked)

    def send_hello_ack(self, host: Yni) -> None:
        self.send_op(host, op_hello_ack())

    def purge_host(self, host: Yni) -> None:
        """Drop every registration held by the host; the record that kept
        them alive is gone."""
        for _, row in sorted(self.rows.items()):
            row.consumer_apps = frozenset(
                (h, a) for h, a in row.consumer_apps if h != host)
            for k in [k for k in row.producer_apps if k[0] == host]:
                del row.producer_apps[k]
            row.locked_hosts.discard(host)
            self._maybe_release_roles(row)


# ---------------------------------------------------------------------------
# connectors


class ConnectorNode(Node):
    """Transit node: no valley, namespace or channel state at all. It reads
    and rejects malformed data in the same step as every other node."""

    def on_message(self, msg: YodelMessage, meta: Optional[_Meta] = None,
                   tree: Optional[PathTree] = None) -> None:
        if msg.kind not in _PUSH_OF_SYNC:
            self.drop("unhandled_kind", ("k", msg.kind.name))
            return
        read = self._read_data(msg, meta, tree)
        if read is None:
            return
        meta, mode, children = read
        if mode is not None:
            children = anycast_filter("connector", children, mode,
                                      self.env.rng(self.label))
        self.strategic_send(msg, children, meta)
