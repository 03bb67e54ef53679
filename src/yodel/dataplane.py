"""Data-plane node state machines: hosts, edge nodes, connector nodes.

Hosts own registration rows (producer and consumer tables) and deliver to
in-process app mailboxes. Edge nodes keep one FIB per valley (producer and
consumer host tables plus the installed path table) and translate between
point-to-point and transit message kinds. Connectors know nothing but their
neighbors: they pop the in-message tree and pick forwarding strategies.

Every node reads and rejects malformed data in one step, `Node._read_data`:
it pops a sync message's tree root, parses the metadata once, and reports a
mis-rooted tree or malformed metadata as one PROTO_ERROR.

Host-to-edge signalling rides control messages whose metadata element starts
with an op byte; the schemas live at the top of this module. Nodes never call
each other directly — everything goes through the environment object, which
models links, latencies and the controller RPC plane.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from .codec import (
    FloatingHeader,
    MessageKind,
    PathTree,
    YodelMessage,
    pop_path_root,
)
from .errors import MalformedFloating, RootMismatch, UncoverableNeighbor
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
from .ynid import Yni

__all__ = [
    "OP_JOIN_REQUEST", "OP_JOIN_REPLY", "OP_WITHDRAW", "OP_LOCK_PRODUCER",
    "OP_UNLOCK_PRODUCER", "OP_HELLO", "OP_HELLO_ACK", "OP_CHANNEL_UPDATE",
    "OP_HOST_CONSUMER_LOCK",
    "op_join_request", "op_join_reply", "op_withdraw", "op_producer_lock",
    "op_hello", "op_hello_ack", "op_channel_update", "op_host_consumer_lock",
    "parse_op", "data_metadata", "parse_data_metadata",
    "Strategy", "AcTable", "NodeEnv", "Node",
    "HostRow", "HostNode", "FibRow", "EdgeFib", "EdgeNode", "ConnectorNode",
]


# ---------------------------------------------------------------------------
# host <-> edge op schemas (carried in the metadata element of control YPPs)

OP_JOIN_REQUEST = 0x01       # role(1) ttl(4, 0 = none) community(utf-8)
OP_JOIN_REPLY = 0x02         # role(1) flags(1) model(1) q(2) community
OP_WITHDRAW = 0x03           # role(1) community
OP_LOCK_PRODUCER = 0x04      # community       (app id in the floating header)
OP_UNLOCK_PRODUCER = 0x05    # community
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


def op_producer_lock(community: str, *, locked: bool) -> bytes:
    op = OP_LOCK_PRODUCER if locked else OP_UNLOCK_PRODUCER
    return struct.pack(">B", op) + community.encode()


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
        if op in (OP_LOCK_PRODUCER, OP_UNLOCK_PRODUCER):
            return {"op": op, "locked": op == OP_LOCK_PRODUCER,
                    "community": data[1:].decode()}
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


_ANYCAST_KINDS = frozenset((MessageKind.ANYCAST_DATA_YPP,
                            MessageKind.ANYCAST_DATA_YSYNC))

# the push and sync kind of each data flavour: an edge turns a host's push
# into a sync along its path tree, and a sync back into a push for its hosts
_SYNC_OF_PUSH = {MessageKind.DATA_YPP: MessageKind.DATA_YSYNC,
                 MessageKind.ANYCAST_DATA_YPP: MessageKind.ANYCAST_DATA_YSYNC}
_PUSH_OF_SYNC = {sync: push for push, sync in _SYNC_OF_PUSH.items()}


def parse_data_metadata(kind: MessageKind, meta: Optional[bytes]) -> tuple[int, Optional[int]]:
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


class AcTable:
    """Per-node neighbor table: which strategies can reach which neighbors.
    A neighbor is routable exactly when it has a row."""

    def __init__(self):
        self.rows: dict[Yni, list[Strategy]] = {}

    def add_neighbor(self, yni: Yni, latency: int) -> None:
        s = Strategy("unicast", frozenset((yni,)), latency)
        self.rows.setdefault(yni, []).append(s)

    def add_group(self, members: Iterable[Yni], latency: int) -> None:
        covered = frozenset(members)
        if len(covered) < 2:
            raise ValueError("a local-multicast strategy must cover >= 2 neighbors")
        s = Strategy("local-multicast", covered, latency)
        for m in covered:
            self.rows.setdefault(m, []).append(s)

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
    trace: Trace
    metrics: Metrics

    def now(self) -> int: ...
    def rng(self, label: str): ...
    def next_serial(self) -> int: ...
    def transmit(self, src: "Node", pairs: list[tuple[Yni, YodelMessage]],
                 mcast: bool = False) -> None: ...
    def controller_rpc(self, src: "Node", payload: object) -> None: ...
    def sync_hosts(self, edge: "EdgeNode", hosts: list[Yni]) -> None: ...


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

    def on_message(self, msg: YodelMessage) -> None:
        raise NotImplementedError

    def _read_data(self, msg: YodelMessage) -> Optional[tuple[
            int, Optional[AnycastMode], list[tuple[Yni, YodelMessage]]]]:
        """The receive step for data: the send serial, the anycast mode
        (None on plain kinds) and, on sync kinds, one message per child of
        this node's tree root (else none). None once a mis-rooted tree or
        malformed metadata is reported."""
        try:
            children = pop_path_root(msg, self.yni) \
                if msg.kind in _PUSH_OF_SYNC else []
            serial, q = parse_data_metadata(msg.kind, msg.floating.metadata)
        except (RootMismatch, MalformedFloating) as exc:
            self.proto_error(str(exc))
            return None
        return serial, None if q is None else _mode_from_q(q), children

    def strategic_send(self, pairs: list[tuple[Yni, YodelMessage]]) -> None:
        """Send one message per child using the fewest transmissions the
        strategy table allows; children with no route are dropped."""
        routed, unrouted = [], set()
        for y, m in pairs:
            if y in self.act.rows:
                routed.append((y, m))
            else:
                unrouted.add(y)
        for child in sorted(unrouted):
            self.drop("no_route", ("to", child))
        if not routed:
            return
        for strategy, covered in self.act.plan(y for y, _ in routed):
            batch = [(y, m) for y, m in routed if y in covered]
            self.env.transmit(self, batch,
                              mcast=strategy.kind == "local-multicast")


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


class HostNode(Node):
    """A user host: registration tables plus in-process app mailboxes."""

    def __init__(self, label: str, yni: Yni, env: NodeEnv, user: str):
        super().__init__(label, yni, "", env)
        self.user = user
        self.edge: Optional[Yni] = None
        self.prt: dict[_RowKey, HostRow] = {}
        self.crt: dict[_RowKey, HostRow] = {}
        self.by_channel: dict[tuple[int, int], str] = {}
        self.inboxes: dict[int, list[tuple[int, bytes]]] = {}
        self.gated = False          # between hello and hello-ack
        self._held_sends: list[tuple[int, str, int, bytes]] = []
        self._pending_ttl: dict[tuple[int, str, str, int], Optional[int]] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, edge_yni: Yni, domain: str) -> None:
        self.edge = edge_yni
        self.domain = domain

    def _to_edge(self, metadata: bytes, valley_id: Optional[int] = None,
                 namespace_id: Optional[int] = None,
                 app_id: Optional[int] = None,
                 channel_id: Optional[int] = None) -> None:
        msg = YodelMessage(MessageKind.CONTROL_YPP, self.yni, self.edge,
                           FloatingHeader(valley_id=valley_id,
                                          channel_id=channel_id,
                                          namespace_id=namespace_id,
                                          application_id=app_id,
                                          metadata=metadata))
        self.env.transmit(self, [(self.edge, msg)])

    # -- app operations -------------------------------------------------------

    def request_join(self, valley_id: int, namespace_id: int, community: str,
                     role: str, app_id: int, ttl: Optional[int] = None) -> None:
        self._pending_ttl[(valley_id, community, role, app_id)] = ttl
        self._to_edge(op_join_request(role, community, ttl),
                      valley_id=valley_id, namespace_id=namespace_id,
                      app_id=app_id)

    def withdraw(self, valley_id: int, namespace_id: int, community: str,
                 role: str, app_id: int) -> None:
        key = (valley_id, community, app_id)
        for r in role_rows(role):
            (self.prt if r == "producer" else self.crt).pop(key, None)
        self._to_edge(op_withdraw(role, community), valley_id=valley_id,
                      namespace_id=namespace_id, app_id=app_id)

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
        self._deliver_in_host(row, serial, payload, exclude_app=app_id)
        q = row.q if row.randomized else None
        kind = MessageKind.ANYCAST_DATA_YPP if row.randomized else MessageKind.DATA_YPP
        msg = YodelMessage(kind, self.yni, self.edge,
                           FloatingHeader(valley_id=valley_id,
                                          channel_id=row.channel_id,
                                          metadata=data_metadata(serial, q)),
                           payload)
        self.env.transmit(self, [(self.edge, msg)])

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
        self._to_edge(op_host_consumer_lock(community, locked=all_locked),
                      valley_id=valley_id, channel_id=row.channel_id)

    # -- reconnect ------------------------------------------------------------

    def begin_reconnect(self) -> None:
        """Announce the return to the edge; data sends queue until the edge
        acknowledges, because lock state may have moved while away."""
        self.gated = True
        self._to_edge(op_hello())

    # -- receive path ---------------------------------------------------------

    def on_message(self, msg: YodelMessage) -> None:
        if msg.kind is MessageKind.CONTROL_YPP:
            self._handle_op(msg)
            return
        if msg.kind in _SYNC_OF_PUSH:
            self._handle_data(msg)
            return
        self.drop("unhandled_kind", ("k", msg.kind.name))

    def _handle_data(self, msg: YodelMessage) -> None:
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        community = self.by_channel.get((valley, channel))
        if community is None:
            self.drop("unknown_channel", ("channel", channel))
            return
        read = self._read_data(msg)
        if read is None:
            return
        serial, mode, _ = read
        rows = self._live_consumer_rows(valley, community)
        if mode is not None:
            rows = anycast_filter("host", rows, mode, self.env.rng(self.label))
        for row in rows:
            self._deliver_app(row.app_id, serial, msg.payload, community)

    def _live_consumer_rows(self, valley_id: int, community: str) -> list[HostRow]:
        out = []
        for (v, c, _), row in sorted(self.crt.items()):
            if v != valley_id or c != community:
                continue
            if self._expired(self.crt, row) or row.locked:
                continue
            out.append(row)
        return out

    def _deliver_in_host(self, prow: HostRow, serial: int, payload: bytes,
                         exclude_app: Optional[int]) -> None:
        rows = [r for r in self._live_consumer_rows(prow.valley_id, prow.community)
                if r.app_id != exclude_app]
        if prow.randomized:
            rows = anycast_filter("host", rows, _mode_from_q(prow.q),
                                  self.env.rng(self.label))
        for row in rows:
            self._deliver_app(row.app_id, serial, payload, prow.community)

    def _deliver_app(self, app_id: int, serial: int, payload: bytes,
                     community: str) -> None:
        self.inboxes.setdefault(app_id, []).append((self.env.now(), payload))
        self.emit("DELIVER", ("app", app_id), ("community", community),
                  ("serial", serial))
        self.env.metrics.delivered(self.label)
        self.env.metrics.note_delivery_latency(serial, self.env.now())

    def _expired(self, table: dict, row: HostRow) -> bool:
        if row.timer is not None and self.env.now() > row.timer:
            table.pop((row.valley_id, row.community, row.app_id), None)
            self.emit("EXPIRE", ("community", row.community), ("app", row.app_id))
            return True
        return False

    # -- control ops ----------------------------------------------------------

    def _handle_op(self, msg: YodelMessage) -> None:
        try:
            op = parse_op(msg.floating.metadata or b"")
        except MalformedFloating as exc:
            self.proto_error(str(exc))
            return
        code = op["op"]
        f = msg.floating
        if code == OP_JOIN_REPLY:
            self._install_rows(f, op)
        elif code in (OP_LOCK_PRODUCER, OP_UNLOCK_PRODUCER):
            row = self.prt.get((f.valley_id, op["community"], f.application_id))
            if row is not None:
                row.locked = op["locked"]
                self.emit("LOCK" if op["locked"] else "UNLOCK",
                          ("table", "prt"), ("community", op["community"]),
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
        ttl = self._pending_ttl.pop(
            (f.valley_id, op["community"], op["role"], f.application_id), None)
        timer = None if ttl is None else self.env.now() + ttl
        for r in role_rows(op["role"]):
            table = self.prt if r == "producer" else self.crt
            key = (f.valley_id, op["community"], f.application_id)
            existing = table.get(key)
            locked = op["lock_host"] if r == "producer" else False
            if existing is not None:
                existing.channel_id = f.channel_id
                if r == "producer":
                    # the edge owns producer locks; consumer self-locks are
                    # this host's business and survive refreshes
                    existing.locked = locked
                existing.model = op["model"]
                existing.randomized = op["randomized"]
                existing.q = op["q"]
            else:
                table[key] = HostRow(f.valley_id, f.namespace_id or 0,
                                     op["community"], f.application_id,
                                     f.channel_id, op["model"],
                                     op["randomized"], op["q"],
                                     locked=locked, timer=timer)
        self.by_channel[(f.valley_id, f.channel_id)] = op["community"]

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
    consumer_apps: set[tuple[Yni, int]] = field(default_factory=set)
    locked_hosts: set[Yni] = field(default_factory=set)

    def consumer_hosts(self) -> list[Yni]:
        return sorted({h for h, _ in self.consumer_apps})

    def unlocked_producers(self) -> list[tuple[Yni, int]]:
        return sorted(k for k, locked in self.producer_apps.items() if not locked)


class EdgeFib:
    def __init__(self):
        self.rows: dict[tuple[int, str], FibRow] = {}
        self.by_channel: dict[int, tuple[int, str]] = {}

    def row_for_channel(self, channel_id: int) -> Optional[FibRow]:
        key = self.by_channel.get(channel_id)
        return None if key is None else self.rows.get(key)


class EdgeNode(Node):
    """Border node: valley FIBs, path table, host attachment, twin hosting."""

    def __init__(self, label: str, yni: Yni, domain: str, env: NodeEnv):
        super().__init__(label, yni, domain, env)
        self.fibs: dict[int, EdgeFib] = {}
        self.aft: dict[tuple[int, int], PathTree] = {}
        self.twin = None  # TwinManager, wired by the simulator
        self._pending: dict[tuple[int, int, str, str], list[tuple[Yni, int]]] = {}

    # -- wiring ---------------------------------------------------------------

    def attach_host(self, host_yni: Yni) -> None:
        if self.twin is not None:
            self.twin.host_connected(host_yni)

    # -- receive path ---------------------------------------------------------

    def on_message(self, msg: YodelMessage) -> None:
        if msg.kind is MessageKind.CONTROL_YPP:
            self._handle_op(msg)
        elif msg.kind in _SYNC_OF_PUSH:
            self._handle_producer_data(msg)
        elif msg.kind in _PUSH_OF_SYNC:
            self._handle_network_data(msg)
        else:
            self.drop("unhandled_kind", ("k", msg.kind.name))

    # -- joins ----------------------------------------------------------------

    def _handle_op(self, msg: YodelMessage) -> None:
        try:
            op = parse_op(msg.floating.metadata or b"")
        except MalformedFloating as exc:
            self.proto_error(str(exc))
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
            if self.twin is not None:
                self.twin.on_hello(host)
        elif code == OP_HOST_CONSUMER_LOCK:
            self._set_host_consumer_lock(host, f.valley_id, op["community"],
                                         op["locked"])
        else:
            self.drop("unhandled_op", ("op", code))

    def _handle_host_join(self, host: Yni, valley_id: int, namespace_id: int,
                          community: str, role: str, app_id: int) -> None:
        fib = self.fibs.setdefault(valley_id, EdgeFib())
        row = fib.rows.get((namespace_id, community))
        if row is not None and roles_for_join(row.model, role) <= row.roles:
            self._admit_locally(row, valley_id, namespace_id, host, app_id, role)
            return
        key = (valley_id, namespace_id, community, role)
        waiters = self._pending.setdefault(key, [])
        waiters.append((host, app_id))
        if len(waiters) == 1:
            from .control import JoinRequest
            self.env.controller_rpc(self, JoinRequest(
                self.yni, valley_id, namespace_id, community, role, host, app_id))

    def _admit_locally(self, row: FibRow, valley_id: int, namespace_id: int,
                       host: Yni, app_id: int, role: str) -> None:
        roles = roles_for_join(row.model, role)
        lock_host = False
        if "consumer" in roles:
            row.consumer_apps.add((host, app_id))
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
        reply = YodelMessage(
            MessageKind.CONTROL_YPP, self.yni, host,
            FloatingHeader(valley_id=valley_id, channel_id=row.channel_id,
                           namespace_id=namespace_id, application_id=app_id,
                           metadata=op_join_reply(
                               role, row.community, lock_host=lock_host,
                               model=row.model, randomized=row.randomized,
                               q=row.q)))
        self._send_to_host(host, reply)

    # -- controller plane ------------------------------------------------------

    def on_controller(self, payload: object) -> None:
        from . import control as c
        if isinstance(payload, c.JoinReply):
            self._on_join_reply(payload)
        elif isinstance(payload, c.PathAdvertisement):
            self._on_path_advertisement(payload)
        elif isinstance(payload, c.PathWithdraw):
            self.aft.pop((payload.valley_id, payload.channel_id), None)
        elif isinstance(payload, c.ActivateProducerEdge):
            self._on_activate(payload)
        elif isinstance(payload, c.ChannelIdUpdate):
            self._on_channel_update(payload)
        else:
            self.drop("unhandled_rpc", ("k", type(payload).__name__))

    def _on_join_reply(self, reply) -> None:
        fib = self.fibs.setdefault(reply.valley_id, EdgeFib())
        key = (reply.namespace_id, reply.community)
        row = fib.rows.get(key)
        if row is None:
            row = FibRow(reply.namespace_id, reply.community, reply.channel_id,
                         reply.service_model, reply.anycast_randomized,
                         reply.anycast_q)
            fib.rows[key] = row
            fib.by_channel[reply.channel_id] = key
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
            self._admit_locally(row, reply.valley_id, reply.namespace_id,
                                host, app_id, reply.role)

    def _on_path_advertisement(self, adv) -> None:
        from .codec import decode
        from .errors import CodecError
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
        fib = self.fibs.get(act.valley_id)
        row = None if fib is None else fib.rows.get((act.namespace_id,
                                                     act.community))
        if row is None:
            return
        row.active = True
        row.edge_locked = False
        self.emit("UNLOCK", ("table", "ppt"), ("scope", "edge"),
                  ("community", row.community))
        self._unlock_next_producer(act.valley_id, row)

    def _on_channel_update(self, upd) -> None:
        fib = self.fibs.get(upd.valley_id)
        if fib is None:
            return
        key = fib.by_channel.pop(upd.old_channel_id, None)
        if key is None:
            return
        row = fib.rows[key]
        row.channel_id = upd.new_channel_id
        fib.by_channel[upd.new_channel_id] = key
        tree = self.aft.pop((upd.valley_id, upd.old_channel_id), None)
        if tree is not None:
            self.aft[(upd.valley_id, upd.new_channel_id)] = tree
        if self.twin is not None:
            self.twin.rekey_buffered(upd.valley_id, upd.old_channel_id,
                                     upd.new_channel_id)
        hosts = sorted({h for h, _ in row.producer_apps}
                       | {h for h, _ in row.consumer_apps})
        for host in hosts:
            msg = YodelMessage(
                MessageKind.CONTROL_YPP, self.yni, host,
                FloatingHeader(valley_id=upd.valley_id,
                               channel_id=upd.new_channel_id,
                               metadata=op_channel_update(upd.old_channel_id,
                                                          row.community)))
            self._send_to_host(host, msg)

    # -- role withdrawal and failover -----------------------------------------

    def _handle_withdraw(self, host: Yni, valley_id: int, namespace_id: int,
                         community: str, role: str, app_id: int) -> None:
        fib = self.fibs.get(valley_id)
        row = None if fib is None else fib.rows.get((namespace_id, community))
        if row is None:
            return
        roles = role_rows(role)
        if "consumer" in roles:
            row.consumer_apps.discard((host, app_id))
        if "producer" in roles:
            was = row.producer_apps.pop((host, app_id), None)
            if was is False:  # the unlocked producer left
                self._unlock_next_producer(valley_id, row)
        self._maybe_release_roles(valley_id, namespace_id, row)

    def _unlock_next_producer(self, valley_id: int, row: FibRow) -> None:
        """Local producer failover: unlock the lowest on-hold (host, app) on a
        reachable host. Twin-active hosts cannot answer, so they are skipped;
        their registrations stay."""
        if not row.model.single_source:
            return
        if row.unlocked_producers():
            return
        blocked = set() if self.twin is None else self.twin.active_hosts()
        candidates = [k for k, locked in row.producer_apps.items()
                      if locked and k[0] not in blocked]
        target = next_local_producer(candidates)
        if target is None:
            return
        host, app_id = target
        row.producer_apps[target] = False
        self.emit("UNLOCK", ("table", "ppt"), ("community", row.community),
                  ("host", host), ("app", app_id))
        msg = YodelMessage(
            MessageKind.CONTROL_YPP, self.yni, host,
            FloatingHeader(valley_id=valley_id, channel_id=row.channel_id,
                           application_id=app_id,
                           metadata=op_producer_lock(row.community,
                                                     locked=False)))
        self._send_to_host(host, msg)

    def _maybe_release_roles(self, valley_id: int, namespace_id: int,
                             row: FibRow) -> None:
        """Drop edge-level registrations whose last host app is gone, telling
        the controller; delete the row once both sides are empty."""
        from .control import RemoveRole
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
                self.yni, valley_id, namespace_id, row.community, role))
        if not row.roles and not row.producer_apps and not row.consumer_apps:
            fib = self.fibs[valley_id]
            fib.rows.pop((namespace_id, row.community), None)
            fib.by_channel.pop(row.channel_id, None)

    def _set_host_consumer_lock(self, host: Yni, valley_id: int,
                                community: str, locked: bool) -> None:
        fib = self.fibs.get(valley_id)
        if fib is None:
            return
        for (ns, comm), row in fib.rows.items():
            if comm != community:
                continue
            if locked:
                row.locked_hosts.add(host)
            else:
                row.locked_hosts.discard(host)
            self.emit("LOCK" if locked else "UNLOCK", ("table", "pct"),
                      ("community", community), ("host", host))

    # -- data path -------------------------------------------------------------

    def _handle_producer_data(self, msg: YodelMessage) -> None:
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        fib = self.fibs.get(valley)
        row = None if fib is None else fib.row_for_channel(channel)
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
        read = self._read_data(msg)
        if read is None:
            return
        self._deliver_to_local_consumers(row, msg, exclude=sender,
                                         mode=read[1])
        tree = self.aft.get((valley, channel))
        if tree is not None:
            self._originate_sync(msg, tree)

    def _handle_network_data(self, msg: YodelMessage) -> None:
        read = self._read_data(msg)
        if read is None:
            return
        _, mode, children = read
        valley = msg.floating.valley_id
        channel = msg.floating.channel_id
        fib = self.fibs.get(valley)
        row = None if fib is None else fib.row_for_channel(channel)
        if row is not None and "consumer" in row.roles:
            local = YodelMessage(_PUSH_OF_SYNC[msg.kind], msg.sender, self.yni,
                                 FloatingHeader(valley_id=valley,
                                                channel_id=channel,
                                                metadata=msg.floating.metadata),
                                 msg.payload)
            self._deliver_to_local_consumers(row, local, exclude=None,
                                             mode=mode)
        elif row is None and not children:
            self.drop("unknown_channel", ("channel", channel))
        self.strategic_send(children)

    def _deliver_to_local_consumers(self, row: FibRow, msg: YodelMessage,
                                    exclude: Optional[Yni],
                                    mode: Optional[AnycastMode]) -> None:
        targets = [h for h in row.consumer_hosts()
                   if h != exclude and h not in row.locked_hosts]
        if mode is not None:
            targets = anycast_filter("edge", targets, mode,
                                     self.env.rng(self.label))
        pairs = []
        for host in targets:
            out = YodelMessage(msg.kind, self.yni, host, msg.floating,
                               msg.payload)
            if self.twin is not None and self.twin.is_active_alphorn(host):
                self.twin.buffer_message(host, out)
            else:
                pairs.append((host, out))
        for host, out in pairs:
            self._send_to_host(host, out)

    def _originate_sync(self, msg: YodelMessage, tree: PathTree) -> None:
        floating = FloatingHeader(valley_id=msg.floating.valley_id,
                                  channel_id=msg.floating.channel_id,
                                  metadata=msg.floating.metadata,
                                  path_tree=tree)
        carrier = YodelMessage(_SYNC_OF_PUSH[msg.kind], self.yni, self.yni,
                               floating, msg.payload)
        self.strategic_send(pop_path_root(carrier, self.yni))

    def _send_to_host(self, host: Yni, msg: YodelMessage) -> None:
        self.env.transmit(self, [(host, msg)])

    # -- twin hooks ------------------------------------------------------------

    def swap_host_entries(self, old: Yni, new: Yni) -> list[tuple[int, FibRow]]:
        """Replace a host id across every consumer-side row; producer entries
        stay keyed by the real host (a twin never produces). Returns the
        affected (valley, row) pairs."""
        affected = []
        for valley_id, fib in sorted(self.fibs.items()):
            for row in fib.rows.values():
                moved = {(h, a) for h, a in row.consumer_apps if h == old}
                if not moved:
                    continue
                row.consumer_apps -= moved
                row.consumer_apps |= {(new, a) for _, a in moved}
                if old in row.locked_hosts:
                    row.locked_hosts.discard(old)
                    row.locked_hosts.add(new)
                affected.append((valley_id, row))
        return affected

    def producer_rows_for_host(self, host: Yni) -> list[tuple[int, FibRow]]:
        out = []
        for valley_id, fib in sorted(self.fibs.items()):
            for row in fib.rows.values():
                if any(h == host for h, _ in row.producer_apps):
                    out.append((valley_id, row))
        return out

    def fail_over_producer(self, valley_id: int, row: FibRow, host: Yni) -> None:
        """The given host went unreachable: re-lock its unlocked producer app
        if any, then run the local failover chain; with no local candidate on
        an active row, resign the producer role so the controller can move."""
        from .control import RemoveRole
        held = [k for k, locked in row.producer_apps.items()
                if k[0] == host and not locked]
        for k in held:
            row.producer_apps[k] = True
            self.emit("LOCK", ("table", "ppt"), ("community", row.community),
                      ("host", host), ("app", k[1]))
        if not held:
            return
        self._unlock_next_producer(valley_id, row)
        if row.model.single_source and row.active \
                and not row.unlocked_producers():
            # no reachable local producer; resign the active role so the
            # control plane can move it to an on-hold edge. Multi-source
            # trees stay up: other edges are unaffected and the host's
            # registrations survive for its return.
            row.roles.discard("producer")
            row.active = False
            self.env.controller_rpc(self, RemoveRole(
                self.yni, valley_id, row.namespace_id, row.community,
                "producer"))

    def resync_host(self, host: Yni) -> None:
        """Reconnect corrections: refresh every row the host appears in so
        its lock and channel state match the edge before anything else
        reaches it."""
        for valley_id, fib in sorted(self.fibs.items()):
            for (ns, community), row in sorted(fib.rows.items()):
                for (h, app_id), locked in sorted(row.producer_apps.items()):
                    if h != host:
                        continue
                    self._send_refresh(valley_id, ns, row, host, app_id,
                                       "producer", locked)
                for (h, app_id) in sorted(row.consumer_apps):
                    if h != host:
                        continue
                    self._send_refresh(valley_id, ns, row, host, app_id,
                                       "consumer", False)

    def send_hello_ack(self, host: Yni) -> None:
        ack = YodelMessage(MessageKind.CONTROL_YPP, self.yni, host,
                           FloatingHeader(metadata=op_hello_ack()))
        self._send_to_host(host, ack)

    def purge_host(self, host: Yni, alphorn: Yni) -> None:
        """Drop every registration held by the host or its stand-in; the
        record that kept them alive is gone."""
        for valley_id, fib in sorted(self.fibs.items()):
            for key in sorted(fib.rows):
                row = fib.rows.get(key)
                if row is None:
                    continue
                row.consumer_apps = {(h, a) for h, a in row.consumer_apps
                                     if h != host and h != alphorn}
                for k in [k for k in row.producer_apps if k[0] == host]:
                    del row.producer_apps[k]
                row.locked_hosts.discard(host)
                row.locked_hosts.discard(alphorn)
                self._maybe_release_roles(valley_id, key[0], row)

    def _send_refresh(self, valley_id: int, namespace_id: int, row: FibRow,
                      host: Yni, app_id: int, role: str, locked: bool) -> None:
        if row.model is ServiceModel.MMM and role == "consumer":
            return  # the member refresh covers both rows
        send_role = "member" if row.model is ServiceModel.MMM else role
        msg = YodelMessage(
            MessageKind.CONTROL_YPP, self.yni, host,
            FloatingHeader(valley_id=valley_id, channel_id=row.channel_id,
                           namespace_id=namespace_id, application_id=app_id,
                           metadata=op_join_reply(
                               send_role, row.community, lock_host=locked,
                               model=row.model, randomized=row.randomized,
                               q=row.q)))
        self._send_to_host(host, msg)


# ---------------------------------------------------------------------------
# connectors


class ConnectorNode(Node):
    """Transit node: no valley, namespace or channel state at all. It reads
    and rejects malformed data in the same step as every other node."""

    def on_message(self, msg: YodelMessage) -> None:
        if msg.kind not in _PUSH_OF_SYNC:
            self.drop("unhandled_kind", ("k", msg.kind.name))
            return
        read = self._read_data(msg)
        if read is None:
            return
        _, mode, children = read
        if mode is not None:
            children = anycast_filter("connector", children, mode,
                                      self.env.rng(self.label))
        self.strategic_send(children)
