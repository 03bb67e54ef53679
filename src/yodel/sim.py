"""Discrete-event world: wires nodes, controller and scenario into one run.

Everything observable is a function of (topology, scenario, seed). Events are
a heap of (tick, sequence, thunk); the sequence makes same-tick ordering FIFO
and repeat runs byte-identical. Per-purpose generators are derived by hashing
the seed with a stable label, so adding a consumer of randomness in one place
never shifts the draws of another.

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
from functools import partial
from typing import Callable, Optional

from .codec import MessageKind, YodelMessage
from .control import Controller, HostPrefs
from .dataplane import (ConnectorNode, EdgeNode, HostNode, Node,
                        parse_data_metadata)
from .errors import AccessDenied, UnknownFlow, YodelError
from .model import Directory
from .scenario import (CommandSpec, NodeSpec, ScenarioSpec, SimConfig,
                       TopologySpec)
from .services import roles_for_join
from .trace import Link, Metrics, Trace
from .ynid import Yni, generate_yni

__all__ = ["SimConfig", "Simulation", "build", "run_world"]

# Enum.name is a Python-level property; SEND and RECV lines read a plain dict
_KIND_NAMES = {kind: kind.name for kind in MessageKind}


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
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._rngs: dict[str, random.Random] = {}
        self.nodes: dict[str, Node] = {}        # label -> node (infra + hosts)
        self.by_yni: dict[Yni, Node] = {}
        self.edges: dict[str, EdgeNode] = {}
        self.hosts: dict[str, HostNode] = {}
        # label -> far label -> the record of that direction of their wire
        self.links: dict[str, dict[str, Link]] = {}
        # sender label -> destination id -> what `_port` resolves it to
        self._ports: dict[str, dict[Yni, tuple[Node, Link, bool]]] = {}
        self._crashed: set[str] = set()
        self._build()

    # -- environment services (the NodeEnv contract) ---------------------------

    def rng(self, label: str) -> random.Random:
        if label not in self._rngs:
            digest = hashlib.sha256(
                f"{self.config.seed}:{label}".encode()).digest()
            self._rngs[label] = random.Random(int.from_bytes(digest, "big"))
        return self._rngs[label]

    def now(self) -> int:
        return self._now

    def next_serial(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(self, tick: int, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (tick, self._seq, fn))

    def transmit(self, src: Node, pairs: list[tuple[Yni, YodelMessage]],
                 mcast: bool = False) -> None:
        if not pairs:
            return
        now, label, emit = self._now, src.label, self.trace.emit
        if mcast and pairs[0][1].kind is not MessageKind.CONTROL_YPP:
            # one underlay transmission covers the whole batch
            self.metrics.transmission(src.domain, True)
        ports = self._ports[label]
        crashed = label in self._crashed
        # the kind and, on parseable data, the serial: one tuple shared by
        # the SEND and RECV lines of every copy of one kind and metadata;
        # copies popped from one parent share their metadata object
        wire_kind = wire_metadata = wire = None
        for dst_yni, msg in pairs:
            port = ports.get(dst_yni) or self._port(src, dst_yni)
            if port is None:
                emit(now, label, "DROP", ("reason", "unknown_destination"),
                     ("to", str(dst_yni)))
                self.metrics.dropped(label, "unknown_destination")
                continue
            dst, link, overlay = port
            kind = msg.kind
            if overlay and not mcast and kind is not MessageKind.CONTROL_YPP:
                self.metrics.transmission(src.domain, src.domain == dst.domain)
                link.unicast += 1
            metadata = msg.floating.metadata
            if kind is not wire_kind or metadata is not wire_metadata:
                wire_kind, wire_metadata = kind, metadata
                wire = (("k", _KIND_NAMES[kind]),)
                if kind is not MessageKind.CONTROL_YPP:
                    try:
                        serial, _ = parse_data_metadata(kind, metadata)
                        wire += (("serial", serial),)
                    except YodelError:
                        pass
            emit(now, label, "SEND", ("to", dst.label), *wire)
            link.sent += 1
            if not link.up or crashed:
                link.lost += 1
                emit(now, label, "DROP", ("reason", "link_down"),
                     ("to", dst.label))
                self.metrics.dropped(label, "link_down")
                continue
            link.in_flight += 1
            self.schedule(now + link.latency,
                          partial(self._arrive, link, src, dst, msg, wire))

    def _port(self, src: Node, dst_yni: Yni
              ) -> Optional[tuple[Node, Link, bool]]:
        """The node `dst_yni` names, the record of the wire from `src` to
        it, and whether both ends are infrastructure nodes; cached per
        sender. None for an id no node has, which is never cached."""
        dst = self.by_yni.get(dst_yni)
        if dst is None:
            return None
        link = self.links[src.label].get(dst.label)
        if link is None:
            # no wire between the two: every copy is sent and lost
            link = self.links[src.label][dst.label] = self.metrics.link(
                src.label, dst.label, 0, up=False)
        # transmission efficiency is measured on the overlay between
        # infrastructure nodes; host access lines don't count
        overlay = (not isinstance(src, HostNode)
                   and not isinstance(dst, HostNode))
        port = self._ports[src.label][dst_yni] = dst, link, overlay
        return port

    def _arrive(self, link: Link, src: Node, dst: Node, msg: YodelMessage,
                wire: tuple[tuple[str, object], ...]) -> None:
        if not self._lands(link, src, dst):
            return
        self.trace.emit(self._now, dst.label, "RECV", ("from", src.label),
                        *wire)
        dst.on_message(msg)

    def _lands(self, link: Link, src: Node, dst: Node) -> bool:
        """Count a copy reaching the far end of `link`: received, or lost
        to a down link or a crashed receiver."""
        link.in_flight -= 1
        if not link.up or dst.label in self._crashed:
            link.lost += 1
            self.trace.emit(self._now, dst.label, "DROP",
                            ("reason", "link_down"), ("from", src.label))
            self.metrics.dropped(dst.label, "link_down")
            return False
        link.received += 1
        return True

    def sync_hosts(self, edge: EdgeNode, hosts: list[Yni]) -> None:
        """One twin sweep's keepalives from `edge`: one event carries the
        queries to every host in `hosts`, one more carries the replies
        back. Each copy counts on its link like any other message but gets
        no SEND or RECV line."""
        queries = [(edge, self.by_yni[host]) for host in hosts]
        self._send_batch(queries, self._answer_sync)

    def _send_batch(self, batch: list[tuple[Node, Node]],
                    land: Callable[[list[tuple[Node, Node]]], None]) -> None:
        """Send one copy per (src, dst) pair over their access line; one
        event lands them all and hands the pairs that arrived to `land`."""
        links = tuple(self.links[src.label][dst.label] for src, dst in batch)
        for link in links:
            link.sent += 1
            link.in_flight += 1

        def arrive():
            land([(src, dst) for (src, dst), link in zip(batch, links)
                  if self._lands(link, src, dst)])
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
            yni = generate_yni(self.rng(f"yni:{spec.name}"), 0)
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
            self._connect(link.a, link.b, link.latency)
            a, b = self.nodes[link.a], self.nodes[link.b]
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
            yni = generate_yni(self.rng(f"yni:{spec.name}"), 0)
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
        if self.edges and cfg.twin_period <= cfg.until:
            self.schedule(cfg.twin_period, self._sweep_twins)
        for cmd in self.scen.commands:
            self.schedule(cmd.tick, partial(self._run_command, cmd))

    def _connect(self, a: str, b: str, latency: int) -> None:
        self.links[a][b] = self.metrics.link(a, b, latency)
        self.links[b][a] = self.metrics.link(b, a, latency)

    def _set_link(self, a: str, b: str, up: bool) -> None:
        self.links[a][b].up = up
        self.links[b][a].up = up

    def _sweep_twins(self) -> None:
        for label in sorted(self.edges):
            if label not in self._crashed:
                self.edges[label].twin.sweep()
        nxt = self._now + self.config.twin_period
        if nxt <= self.config.until:
            self.schedule(nxt, self._sweep_twins)

    # -- event loop ------------------------------------------------------------

    def run(self) -> "Simulation":
        """Run every event up to `config.until`, then count what is still
        in flight. The cycle collector is off meanwhile; the caller's
        setting is back when this returns or raises. A run must create no
        reference cycle, or the cycle lives until the next collection
        after it: see the module docstring for the tests that pin this."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            while self._heap:
                tick, _, fn = self._heap[0]
                if tick > self.config.until:
                    break
                heapq.heappop(self._heap)
                self._now = tick
                fn()
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
        elif verb == "withdraw":
            host = self.hosts[a[0]]
            valley = self.directory.valley(a[1])
            ns = self.directory.namespace(a[1], a[2])
            host.withdraw(valley.id, ns.id, a[3], a[4], a[5])
        elif verb == "send":
            host = self.hosts[a[0]]
            valley = self.directory.valley(a[1])
            host.send_data(valley.id, a[2], a[3], a[4])
        elif verb in ("lock", "unlock"):
            host = self.hosts[a[0]]
            valley = self.directory.valley(a[1])
            try:
                host.set_consumer_lock(valley.id, a[2], a[3], verb == "lock")
            except KeyError:
                raise UnknownFlow(
                    f"{a[0]} has no consumer registration for {a[2]!r}") \
                    from None
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


def build(topo: TopologySpec, scen: ScenarioSpec,
          seed: int) -> Simulation:
    return Simulation(topo, scen, SimConfig.from_scenario(scen, seed))


def run_world(topo: TopologySpec, scen: ScenarioSpec, seed: int) -> Simulation:
    return build(topo, scen, seed).run()
