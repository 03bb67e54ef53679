"""Discrete-event world: wires nodes, controller and scenario into one run.

Everything observable is a function of (topology, scenario, seed). Events wait
in a FIFO list per tick, under a heap of the distinct ticks; one scheduled for
the tick being run starts a new list there, which the heap hands out next.
Per-purpose generators are derived by hashing the seed with a stable label, so
adding a consumer of randomness in one place never shifts the draws of another.

`Simulation.run()` pauses the cycle collector for its event loop and puts
back the caller's setting when it returns or raises. A run keeps its trace
records and the messages in flight alive, so the collector's scans there
free nothing; they cost up to a fifth of a benchmark run and more on large
worlds. This is safe only because a run creates no reference cycles:
everything it drops is freed by reference counting alone.
`test_run_leaves_no_garbage_cycle` pins that on every demo and benchmark
world, and `test_every_world_load_world_accepts_runs_to_the_end` on fuzzed
worlds.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Iterable, Optional

from .codec import MessageKind, PathTree, YodelMessage
from .control import Controller, HostPrefs
from .dataplane import ConnectorNode, EdgeNode, HostNode, Node
from .errors import AccessDenied, UnknownFlow, YodelError
from .model import Directory
from .scenario import (CommandSpec, NodeSpec, ScenarioSpec, SimConfig,
                       TopologySpec)
from .services import roles_for_join
from .trace import Link, Metrics, Trace
from .ynid import Yni, generate_yni

__all__ = ["SimConfig", "Simulation"]

# Enum.name is a Python-level property; SEND and RECV lines read a plain dict
_KIND_NAMES = {kind: kind.name for kind in MessageKind}
_CONTROL = MessageKind.CONTROL_YPP

# what every copy of one `transmit` call lands with: the message, the wire
# fields of its SEND and RECV lines (the kind and, on data sent with its
# metadata, the serial), and that data metadata (serial, q), or None
_Wire = tuple[YodelMessage, tuple[tuple[str, object], ...],
              Optional[tuple[int, Optional[int]]]]

# what `Simulation._port` resolves a destination to: the node, the record of
# the wire to it, whether both ends are infrastructure, and the `to` field
# of SEND lines and the `from` field of RECV lines
_Port = tuple[Node, Link, bool, tuple[str, str], tuple[str, str]]


class Simulation:
    """One world. Construct with parsed specs, then call run()."""

    def __init__(self, topo: TopologySpec, scen: ScenarioSpec,
                 config: SimConfig):
        self.topo = topo
        self.scen = scen
        self.config = config
        self.trace = Trace()
        self.metrics = Metrics()
        self.directory = Directory()
        self._now = 0
        self._events: dict[int, list[Callable[[], None]]] = {}
        self._ticks: list[int] = []             # each key of _events once
        self._serial = 0
        self._rngs: dict[str, random.Random] = {}
        self.nodes: dict[str, Node] = {}        # label -> node (infra + hosts)
        self.by_yni: dict[Yni, Node] = {}
        self.edges: dict[str, EdgeNode] = {}
        self._edge_order: list[EdgeNode] = []   # edges sorted by label
        self.hosts: dict[str, HostNode] = {}
        # label -> far label -> the record of that direction of their wire
        self.links: dict[str, dict[str, Link]] = {}
        # sender label -> destination id -> what `_port` resolves it to
        self._ports: dict[str, dict[Yni, _Port]] = {}
        self._crashed: set[str] = set()
        # edge label -> sorted ticks of the scenario faults that name the
        # edge or one of its hosts
        self._fault_ticks: dict[str, list[int]] = {}
        self._swept = 0                         # tick of the last twin sweep
        # the wire record of the copy its receiver is handling
        self._landed: _Wire = (None, (), None)
        self._build()

    # -- environment services (the NodeEnv contract) ---------------------------

    def rng(self, label: str) -> random.Random:
        rng = self._rngs.get(label)
        if rng is None:
            rng = self._rngs[label] = self._seeded(label)
        return rng

    def _seeded(self, label: str) -> random.Random:
        """A fresh generator seeded from the run seed and `label`; `rng`
        keeps one per label, for labels drawn from again."""
        digest = hashlib.sha256(f"{self.config.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def now(self) -> int:
        return self._now

    def next_serial(self) -> int:
        self._serial += 1                       # data sends only, from 1
        return self._serial

    def schedule(self, tick: int, fn: Callable[[], None]) -> None:
        if tick not in self._events:
            self._events[tick] = []
            heapq.heappush(self._ticks, tick)
        self._events[tick].append(fn)

    def transmit(self, src: Node,
                 copies: list[tuple[Yni, YodelMessage, Optional[PathTree]]],
                 mcast: bool = False,
                 meta: Optional[tuple[int, Optional[int]]] = None) -> None:
        """Send each (destination, message, tree) copy: a SEND line, then a
        RECV line and the receiver's `on_message(msg, meta, tree)` one link
        latency later, or a DROP line.

        Every copy of one call carries the same message, and `meta` is its
        data metadata (serial, q) as its sender holds it: None on control.
        The SEND and RECV lines show the serial from `meta`, so all copies
        share one `(msg, wire, meta)` record, and a node that sends on
        the `meta` it is handling, that copy's serial field.

        An overlay data copy sent alone counts on its link's `unicast`
        counter, and a multicast batch of data once for the sender's
        domain; both count whether or not the copies get through. The
        report's transmissions are summed from these."""
        if not copies:
            return
        msg = copies[0][1]
        data = msg.kind is not _CONTROL
        k = ("k", _KIND_NAMES[msg.kind])
        landed = self._landed
        serial = None if meta is None else (
            landed[1][1] if meta is landed[2] else ("serial", meta[0]))
        rec = (msg, (k,) if serial is None else (k, serial), meta)
        now, label, emit = self._now, src.label, self.trace.emit
        if mcast and data:
            # one underlay transmission covers the whole batch
            batches = self.metrics.multicast_batches
            batches[src.domain] = batches.get(src.domain, 0) + 1
        ports = self._ports[label]
        crashed = label in self._crashed
        for dst_yni, _, tree in copies:
            port = ports.get(dst_yni) or self._port(src, dst_yni)
            if port is None:
                emit(now, label, "DROP", ("reason", "unknown_destination"),
                     ("to", str(dst_yni)))
                self.metrics.dropped(label, "unknown_destination")
                continue
            dst, link, overlay, to, _ = port
            if overlay and not mcast and data:
                link.unicast += 1
            emit(now, label, "SEND", to, *rec[1])
            link.sent += 1
            if not link.up or crashed:
                link.lost += 1
                emit(now, label, "DROP", ("reason", "link_down"), to)
                self.metrics.dropped(label, "link_down")
                continue
            link.in_flight += 1
            self.schedule(now + link.latency,
                          partial(self._arrive, port, rec, tree))

    def _port(self, src: Node, dst_yni: Yni) -> Optional[_Port]:
        """The node `dst_yni` names, the record of the wire from `src` to
        it, whether both ends are infrastructure nodes, and the `to` and
        `from` fields of the copies' SEND and RECV lines; cached per
        sender. None for an id no node has, which is never cached."""
        dst = self.by_yni.get(dst_yni)
        if dst is None:
            return None
        # transmission efficiency is measured on the overlay between
        # infrastructure nodes; host access lines don't count
        overlay = (not isinstance(src, HostNode)
                   and not isinstance(dst, HostNode))
        link = self.links[src.label].get(dst.label)
        if link is None:
            # no wire between the two: every copy is sent and lost
            link = self.links[src.label][dst.label] = self.metrics.link(
                src.label, dst.label, 0, up=False,
                domain=_shared_domain(src, dst) if overlay else None)
        port = self._ports[src.label][dst_yni] = (
            dst, link, overlay, ("to", dst.label), ("from", src.label))
        return port

    def _arrive(self, port: _Port, rec: _Wire,
                tree: Optional[PathTree]) -> None:
        """Land one copy `transmit` sent through `port`: count it on the
        link, then a RECV line and the receiver's `on_message` with the
        record's message and metadata and the copy's tree, or a DROP line
        when the link went down or the receiver crashed meanwhile."""
        dst, link, _, _, from_src = port
        link.in_flight -= 1
        if not link.up or dst.label in self._crashed:
            self._lose(link, dst, from_src)
            return
        link.received += 1
        self._landed = rec
        msg, wire, meta = rec
        self.trace.emit(self._now, dst.label, "RECV", from_src, *wire)
        dst.on_message(msg, meta, tree)

    def _lose(self, link: Link, dst: Node,
              from_src: tuple[str, str]) -> None:
        """Count a copy lost at the far end of `link`, to a down link or a
        crashed receiver, with its DROP line."""
        link.lost += 1
        self.trace.emit(self._now, dst.label, "DROP",
                        ("reason", "link_down"), from_src)
        self.metrics.dropped(dst.label, "link_down")

    def sync_hosts(self, edge: EdgeNode, hosts: list[Yni]) -> None:
        """One twin sweep's keepalives from `edge`: one event carries the
        queries to every host in `hosts`, one more carries the replies
        back. Each copy counts on its link like any other message but gets
        no SEND or RECV line. A quiet table's rounds do not come here
        while `settle_sync` can settle them in closed form; the link
        counters are the same either way."""
        queries = [(edge, self.by_yni[host]) for host in hosts]
        self._send_batch(queries, self._answer_sync)

    def settle_sync(self, edge: EdgeNode) -> range:
        """The sweep ticks, from now on every `twin_period`, of the
        keepalive rounds from `edge` to its hosts, all attached now, that
        are sure to be answered: no scenario fault naming the edge or one
        of its hosts falls between a round's sweep and the tick its replies
        land, and they land by `until`. The range stops at the first round
        left out, and is empty when that is the round now. Only the next
        fault is tested: it reaches every round that lands at or after it,
        and it wakes the table, so no later fault matters."""
        now, cfg = self._now, self.config
        rtt, period = 2 * cfg.host_link_latency, cfg.twin_period
        # rounds that sweep before `limit` land by `until` and before the
        # next fault
        limit = cfg.until + 1 - rtt
        ticks = self._fault_ticks.get(edge.label, ())
        i = bisect_left(ticks, now)
        if i < len(ticks):
            limit = min(limit, ticks[i] - rtt)
        rounds = max(0, -((now - limit) // period))
        return range(now, now + rounds * period, period)

    def count_sync(self, edge: EdgeNode, hosts: Iterable[Yni],
                   rounds: range) -> int:
        """Count the rounds of `rounds`, sweep ticks `settle_sync` vouched
        for, whose sweep has run: one copy sent and received per round on
        both directions of each access line between `edge` and `hosts`.
        Return how many."""
        passed = bisect_right(rounds, self._swept)
        if passed:
            links = self.links[edge.label]
            for host in hosts:
                label = self.by_yni[host].label
                for link in (links[label], self.links[label][edge.label]):
                    link.sent += passed
                    link.received += passed
        return passed

    def _send_batch(self, batch: list[tuple[Node, Node]],
                    land: Callable[[list[tuple[Node, Node]]], None]) -> None:
        """Send one copy per (src, dst) pair over their access line; one
        event lands them all and hands the pairs that arrived to `land`."""
        links = tuple(self.links[src.label][dst.label] for src, dst in batch)
        for link in links:
            link.sent += 1
            link.in_flight += 1

        def arrive():
            landed = []
            for (src, dst), link in zip(batch, links):
                link.in_flight -= 1
                if not link.up or dst.label in self._crashed:
                    self._lose(link, dst, ("from", src.label))
                else:
                    link.received += 1
                    landed.append((src, dst))
            land(landed)
        self.schedule(self._now + self.config.host_link_latency, arrive)

    def _answer_sync(self, queried: list[tuple[Node, Node]]) -> None:
        if queried:
            self._send_batch([(host, edge) for edge, host in queried],
                             self._refresh_twins)

    def _refresh_twins(self, replied: list[tuple[Node, Node]]) -> None:
        for host, edge in replied:
            edge.twin.on_sync_reply(host.yni)

    def host_attached(self, edge: EdgeNode, host: Yni) -> bool:
        node = self.by_yni.get(host)
        if node is None or node.label in self._crashed:
            return False
        link = self.links[edge.label].get(node.label)
        return link is not None and link.up

    def label_of(self, yni: Yni) -> str:
        node = self.by_yni.get(yni)
        return node.label if node is not None else str(yni)

    def controller_rpc(self, src: Node, payload: object) -> None:
        if src.label in self._crashed:
            return
        self.schedule(self._now + self.config.rpc_latency,
                      lambda: self.controller.handle(payload))

    def _controller_transport(self, dest: Yni, payload: object) -> None:
        def deliver():
            node = self.by_yni.get(dest)
            if node is None or node.label in self._crashed:
                return
            node.on_controller(payload)
        self.schedule(self._now + self.config.rpc_latency, deliver)

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self.controller = Controller(self.directory, self.trace, self.metrics,
                                     transport=self._controller_transport,
                                     clock=self.now)
        for spec in self.topo.nodes:
            # each id is drawn once, so its generator is not kept
            yni = generate_yni(self._seeded(f"yni:{spec.name}"), 0)
            if spec.role == "edge":
                node = EdgeNode(spec.name, yni, spec.domain, self)
                self.edges[spec.name] = node
            else:
                node = ConnectorNode(spec.name, yni, spec.domain, self)
            self.nodes[spec.name] = node
            self.by_yni[yni] = node
            self.links[spec.name] = {}
            self._ports[spec.name] = {}
        for link in self.topo.links:
            a, b = self.nodes[link.a], self.nodes[link.b]
            self._connect(link.a, link.b, link.latency, _shared_domain(a, b))
            a.act.add_neighbor(b.yni, link.latency)
            b.act.add_neighbor(a.yni, link.latency)
        for group in self.topo.groups:
            for member in group.members:
                others = [self.nodes[m].yni for m in group.members
                          if m != member]
                if len(others) >= 2:
                    self.nodes[member].act.add_group(others, 1)
        for spec in self.topo.nodes:
            self._declare(spec)
        for spec in self.topo.hosts:
            self.directory.register_user(spec.user)
            yni = generate_yni(self._seeded(f"yni:{spec.name}"), 0)
            host = HostNode(spec.name, yni, self, spec.user)
            self.nodes[spec.name] = host
            self.by_yni[yni] = host
            self.hosts[spec.name] = host
            self.links[spec.name] = {}
            self._ports[spec.name] = {}
            prefs = HostPrefs(spec.domain, spec.max_latency)
            edge_yni = self.controller.provision_host(yni, spec.user, prefs)
            edge = self.by_yni[edge_yni]
            self._connect(spec.name, edge.label, cfg.host_link_latency)
            host.attach(edge.yni, edge.domain)
            edge.attach_host(yni)
        self._edge_order = [self.edges[label] for label in sorted(self.edges)]
        if self.edges:
            self.schedule(cfg.twin_period, self._sweep_twins)
        for cmd in self.scen.commands:
            self.schedule(cmd.tick, partial(self._run_command, cmd))
            if cmd.verb == "fault":
                for label in cmd.args[1:]:
                    edge = self._edge_of(label)
                    if edge is not None:
                        self._fault_ticks.setdefault(edge.label, []).append(
                            cmd.tick)
        for ticks in self._fault_ticks.values():
            ticks.sort()

    def _connect(self, a: str, b: str, latency: int,
                 domain: Optional[str] = None) -> None:
        self.links[a][b] = self.metrics.link(a, b, latency, domain=domain)
        self.links[b][a] = self.metrics.link(b, a, latency, domain=domain)

    def _edge_of(self, label: str) -> Optional[EdgeNode]:
        """The edge `label` names, or the edge of the host it names."""
        node = self.nodes.get(label)
        if isinstance(node, HostNode):
            node = self.by_yni[node.edge]
        return node if isinstance(node, EdgeNode) else None

    def _set_link(self, a: str, b: str, up: bool) -> None:
        self.links[a][b].up = up
        self.links[b][a].up = up

    def _sweep_twins(self) -> None:
        now = self._swept = self._now
        crashed = self._crashed
        for edge in self._edge_order:
            # a sleeping table's rounds before `settled.stop` are settled
            if edge.twin.settled.stop <= now and edge.label not in crashed:
                edge.twin.sweep()
        self.schedule(now + self.config.twin_period, self._sweep_twins)

    # -- event loop ------------------------------------------------------------

    def run(self) -> "Simulation":
        """Run every event up to `config.until`, then count what is still in
        flight. Later events stay queued: raise `config.until` and call again
        to go on. The cycle collector is off meanwhile; the caller's setting
        is back when this returns or raises. A run must create no reference
        cycle, or the cycle lives until the next collection after it: see the
        module docstring for the tests that pin this."""
        events, ticks, until = self._events, self._ticks, self.config.until
        enabled = gc.isenabled()
        gc.disable()
        try:
            while ticks and ticks[0] <= until:
                self._now = tick = heapq.heappop(ticks)
                for fn in events.pop(tick):
                    fn()
            # sleeping twin tables stay asleep; their passed rounds count
            for edge in self._edge_order:
                edge.twin.count_settled()
            self.metrics.finalize_conservation()
        finally:
            if enabled:
                gc.enable()
        return self

    # -- scenario commands -----------------------------------------------------

    def _run_command(self, cmd: CommandSpec) -> None:
        try:
            self._dispatch(cmd)
        except YodelError as exc:
            self.trace.emit(self._now, "scenario", "SCENARIO_ERROR",
                            ("line", cmd.line), ("verb", cmd.verb),
                            ("reason", str(exc)))
        except KeyError as exc:
            self.trace.emit(self._now, "scenario", "SCENARIO_ERROR",
                            ("line", cmd.line), ("verb", cmd.verb),
                            ("reason", f"unresolved reference {exc}"))

    def _dispatch(self, cmd: CommandSpec) -> None:
        a = cmd.args
        verb = cmd.verb
        if verb == "valley":
            # creating a valley enrolls the admin as a user if needed
            self.directory.register_user(a[0])
            self.directory.create_valley(a[0], a[1])
        elif verb == "namespace":
            user, valley_name, ns_name, model, visibility, anycast, auto = a
            self.directory.create_namespace(user, valley_name, ns_name,
                                            visibility, model, anycast, auto)
        elif verb == "community":
            user, valley_name, ns_name, community = a
            if not self.directory.authorize_access(user, valley_name, ns_name):
                raise AccessDenied(
                    f"{user!r} may not touch {valley_name}/{ns_name}")
            valley = self.directory.valley(valley_name)
            ns = self.directory.namespace(valley_name, ns_name)
            self.controller.create_community(valley.id, ns.id, community)
        elif verb == "member":
            self.directory.register_user(a[2])
            self.directory.add_member(a[0], a[1], a[2])
        elif verb == "grant":
            self.directory.register_user(a[3])
            self.directory.grant_access(a[0], a[1], a[2], a[3])
        elif verb == "visibility":
            self.directory.set_visibility(*a)
        elif verb == "join":
            self._issue_join(a)
        elif verb in ("withdraw", "send", "lock", "unlock"):
            host = self.hosts[a[0]]
            valley = self.directory.valley(a[1]).id
            if verb == "withdraw":
                ns = self.directory.namespace(a[1], a[2])
                host.withdraw(valley, ns.id, *a[3:])
            elif verb == "send":
                host.send_data(valley, *a[2:])
            else:
                host.set_consumer_lock(valley, *a[2:], verb == "lock")
        elif verb == "fault":
            self._fault(a)
        elif verb == "partition-now":
            valley = self.directory.valley(a[0])
            ns = self.directory.namespace(a[0], a[1])
            flow = self.controller.flow(valley.id, ns.id, a[2])
            if not flow.model.attributes.partitioning:
                raise UnknownFlow(
                    f"{flow.model.value} communities do not partition")
            self.controller.partition_flow(flow)
            self.controller.reconcile(flow)
        elif verb == "report":
            self.trace.emit(self._now, "scenario", "REPORT",
                            ("delivered", sum(self.metrics.deliveries.values())),
                            ("transmissions", self.metrics.transmissions_total),
                            ("proto_errors", self.metrics.proto_errors))

    def _issue_join(self, a) -> None:
        host_name, valley_name, ns_name, community, role, app_id, ttl = a
        host = self.hosts[host_name]
        if not self.directory.authorize_access(host.user, valley_name, ns_name):
            raise AccessDenied(
                f"{host.user!r} may not join {valley_name}/{ns_name}")
        ns = self.directory.namespace(valley_name, ns_name)
        roles_for_join(ns.service_model, role)  # InvalidRole before any wire
        valley = self.directory.valley(valley_name)
        host.request_join(valley.id, ns.id, community, role, app_id, ttl)

    # -- faults ----------------------------------------------------------------

    def _fault(self, a) -> None:
        mode = a[0]
        for label in a[1:]:
            edge = self._edge_of(label)
            if edge is not None:
                edge.twin.wake()
        if mode in ("link-down", "link-up"):
            self._set_link(a[1], a[2], mode == "link-up")
            self.trace.emit(self._now, "scenario", "FAULT", ("kind", mode),
                            ("a", a[1]), ("b", a[2]))
            for label in (a[1], a[2]):
                self.schedule(self._now + 1, partial(self._reregister, label))
        elif mode in ("host-down", "host-up"):
            host = self.hosts[a[1]]
            edge = self.by_yni[host.edge]
            self.trace.emit(self._now, "scenario", "FAULT", ("kind", mode),
                            ("host", a[1]))
            self._set_link(a[1], edge.label, mode == "host-up")
            if mode == "host-up":
                host.begin_reconnect()
        elif mode == "crash":
            label = a[1]
            self._crashed.add(label)
            neighbors = [other for other, link in self.links[label].items()
                         if link.up]
            for other in neighbors:
                self._set_link(label, other, False)
            self.trace.emit(self._now, "scenario", "FAULT", ("kind", mode),
                            ("node", label))
            for other in sorted(neighbors):
                if other in self.hosts or other in self._crashed:
                    continue
                self.schedule(self._now + 1, partial(self._reregister, other))

    def _reregister(self, label: str) -> None:
        if label in self._crashed or label in self.hosts:
            return
        self._declare(self.topo.node(label))

    def _declare(self, spec: NodeSpec) -> None:
        """Declare an infrastructure node's live neighbor set; the
        controller's topology view follows from matching declarations."""
        neighbors = {self.nodes[other].yni: link.latency
                     for other, link in self.links[spec.name].items()
                     if link.up and other not in self.hosts
                     and other not in self._crashed}
        self.controller.register_infrastructure_node(
            self.nodes[spec.name].yni, spec.role, spec.domain, neighbors,
            dict(spec.stats))


def _shared_domain(a: Node, b: Node) -> Optional[str]:
    """The domain of both infrastructure nodes, or None when they are in
    two domains: the group their link's transmissions count in."""
    return a.domain if a.domain == b.domain else None
