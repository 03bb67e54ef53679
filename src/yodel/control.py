"""The split controller.

One half (provisioning) owns users, host placement and the infrastructure
topology; the other half (flow management) owns the per-valley information
bases, flows, channels and path computation. They share a process and call
each other directly; nothing about their split is externally visible.

Nodes reach the controller through typed request payloads and receive typed
replies; path advertisements additionally carry a fully encoded control
message so the wire contract is exercised end to end. Every decision here is
deterministic: ties break on 10-byte node-id order, iteration is sorted, and
ids come from monotone counters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .codec import FloatingHeader, MessageKind, PathTree, YodelMessage, encode
from .errors import (
    AccessDenied,
    NoEligibleEdge,
    UnknownFlow,
    UnknownNode,
    UnreachableConsumer,
)
from .model import Directory, NamespaceRecord
from .services import (
    ServiceModel,
    balance_consumers,
    next_producer_edge,
    role_rows,
    roles_for_join,
)
from .trace import CONTROLLER_NODE, Metrics, Trace
from .ynid import Yni

__all__ = [
    "CONTROLLER_YNI",
    "NodeInfo",
    "TopologyGraph",
    "compute_path",
    "HostPrefs",
    "Partition",
    "FlowObject",
    "ChannelObject",
    "JoinRequest",
    "JoinReply",
    "RemoveRole",
    "PathAdvertisement",
    "PathWithdraw",
    "ActivateProducerEdge",
    "ChannelIdUpdate",
    "Controller",
]

# Reserved id the controller signs control messages with.
CONTROLLER_YNI = Yni(b"\x00" * 6, 0)


# ---------------------------------------------------------------------------
# topology


def _search(adjacency: dict[Yni, dict[Yni, int]], source: Yni
            ) -> tuple[dict[Yni, tuple[int, int]], dict[Yni, Yni]]:
    """(dist, parent) of the shortest-path tree from a source node; `dist`
    holds exactly the nodes reached.

    Cost is (hop count, total latency); remaining ties collapse onto the
    parent with the lowest node id. Each neighbor is relaxed on its own and
    heap entries are totally ordered, so the order a row is read in does not
    matter.
    """
    dist: dict[Yni, tuple[int, int]] = {source: (0, 0)}
    parent: dict[Yni, Yni] = {}
    done: set[Yni] = set()
    heap = [(0, 0, source)]
    while heap:
        hops, lat, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        hops += 1
        for nb, edge_lat in adjacency[node].items():
            cand = (hops, lat + edge_lat)
            best = dist.get(nb)
            if best is None or cand < best:
                dist[nb] = cand
                parent[nb] = node
                heapq.heappush(heap, (hops, cand[1], nb))
            elif cand == best and node < parent[nb]:
                parent[nb] = node
    return dist, parent


def _build_tree(node: Yni, children: dict[Yni, list[Yni]]) -> PathTree:
    """The subtree under `node` with its children in id order. A module
    function rather than a closure, so building a tree leaves no reference
    cycle behind for the collector."""
    kids = children[node]
    if not kids:
        return PathTree(node)
    kids.sort()
    return PathTree(node, tuple([_build_tree(c, children) for c in kids]))


@dataclass
class NodeInfo:
    yni: Yni
    role: str  # "edge" | "connector"
    domain: str
    stats: dict[str, float] = field(default_factory=dict)


class TopologyGraph:
    """Controller-side view of the infrastructure.

    Each node's registration replaces its previous neighbor report wholesale.
    A link materializes only when both endpoints are registered and both
    currently declare each other; its latency is the smaller declared value.
    Earlier one-sided mentions stay pending until the far end confirms.
    `adjacency` holds every confirmed link from both ends; `register` keeps
    it current and returns the links it changed.

    Three results that depend only on the nodes and `adjacency` are
    cached: the shortest-path tree from each source (`shortest_paths`), the
    path tree from a source to each set of targets (`path_tree`) and the
    distance of every node to each domain (`domain_distances`). `register`
    drops all three caches when the registering node is new, changes role
    or domain, or ends with a different adjacency row. Links are symmetric,
    so when that node's row is unchanged no other row changed either.

    `placement` holds `Controller.provision_host`'s heaps, one per host
    preference pair. Their keys read node stats, which the rule above
    ignores, so every `register` drops them, even one that changes nothing
    but stats.
    """

    def __init__(self):
        self.nodes: dict[Yni, NodeInfo] = {}
        self.declared: dict[Yni, dict[Yni, int]] = {}
        self.adjacency: dict[Yni, dict[Yni, int]] = {}
        self._paths: dict[Yni, tuple[dict[Yni, tuple[int, int]],
                                     dict[Yni, Yni]]] = {}
        self._trees: dict[tuple[Yni, frozenset[Yni]],
                          PathTree | tuple[Yni, ...]] = {}
        self._domain_dist: dict[str, dict[Yni, int]] = {}
        self.placement: dict[HostPrefs, list[tuple]] = {}

    def register(self, yni: Yni, role: str, domain: str,
                 neighbors: dict[Yni, int],
                 stats: Optional[dict[str, float]] = None
                 ) -> tuple[list[tuple[Yni, Yni]], list[tuple[Yni, Yni, int]]]:
        """Record a node's registration; returns the links it removed, as
        (yni, other), and the links it added, as (yni, other, latency). A
        latency change is one of each."""
        if role not in ("edge", "connector"):
            raise UnknownNode(f"bad infrastructure role {role!r}")
        old = self.nodes.get(yni)
        old_links = self.adjacency.get(yni)
        self.placement.clear()
        self.nodes[yni] = NodeInfo(yni, role, domain, dict(stats or {}))
        self.declared[yni] = dict(neighbors)
        for other in self.adjacency.get(yni, ()):
            del self.adjacency[other][yni]
        links = self.adjacency[yni] = {}
        for other, lat in neighbors.items():
            lat_back = self.declared.get(other, {}).get(yni)
            if other == yni or lat_back is None:
                continue  # a self-mention, or pending until declared back
            links[other] = self.adjacency[other][yni] = min(lat, lat_back)
        if (old is None or old.role != role or old.domain != domain
                or links != old_links):
            self._paths.clear()
            self._trees.clear()
            self._domain_dist.clear()
        old_links = old_links or {}
        removed = [(yni, other) for other, lat in old_links.items()
                   if links.get(other) != lat]
        added = [(yni, other, lat) for other, lat in links.items()
                 if old_links.get(other) != lat]
        return removed, added

    def shortest_paths(self, source: Yni
                       ) -> tuple[dict[Yni, tuple[int, int]], dict[Yni, Yni]]:
        """`_search` from a source node over the current links, cached;
        callers must not modify the result."""
        cached = self._paths.get(source)
        if cached is None:
            cached = self._paths[source] = _search(self.adjacency, source)
        return cached

    def path_tree(self, source: Yni, targets: frozenset[Yni]
                  ) -> PathTree | tuple[Yni, ...]:
        """The union of shortest paths from `source` to every target, or
        the targets it cannot reach, in id order. Either is cached until
        the graph changes."""
        key = (source, targets)
        cached = self._trees.get(key)
        if cached is not None:
            return cached
        reached, parent = self.shortest_paths(source)
        missing = tuple(c for c in sorted(targets) if c not in reached)
        if missing:
            self._trees[key] = missing
            return missing
        needed: set[Yni] = {source}
        for c in targets:
            node = c
            while node not in needed:
                needed.add(node)
                node = parent[node]
        children: dict[Yni, list[Yni]] = {n: [] for n in needed}
        for node in needed - {source}:
            children[parent[node]].append(node)
        tree = self._trees[key] = _build_tree(source, children)
        return tree

    def domain_distances(self, domain: str) -> dict[Yni, int]:
        """Shortest-path latency from every reachable node to the nearest
        node of a domain: 0 inside it, absent when cut off. Cached like
        `shortest_paths`; callers must not modify the result."""
        cached = self._domain_dist.get(domain)
        if cached is not None:
            return cached
        dist = {y: 0 for y, info in self.nodes.items() if info.domain == domain}
        heap = [(0, y) for y in dist]
        heapq.heapify(heap)
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for nb, lat in self.adjacency[node].items():
                nd = d + lat
                if nb not in dist or nd < dist[nb]:
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, nb))
        self._domain_dist[domain] = dist
        return dist

    def change_test(self, removed: list[tuple[Yni, Yni]],
                    added: Optional[tuple[Yni, Yni, int]]
                    ) -> Callable[[PathTree], bool]:
        """Whether a path tree built before a registration can differ now.

        `removed` and `added` are what `register` returned, with at most
        one added link; the tree must have reached all its targets. A tree
        keeps the lowest-id parent among equal-cost predecessors, so it is
        unchanged when a link it does not use goes away (a link with both
        ends among its members counts as used). It is also unchanged when a
        link (a, b, l) comes whose paths cost strictly more than the tree's
        own path to each of its nodes. The test for a tree from s with path
        cost c(x) to node x is d(s, a) + (1, l) + d(b, x) <= c(x), or the
        same with a and b swapped, with d searched from a and from b over
        the current links minus the added one. `<=`, because an equal-cost
        path can change the lowest-id parent. Two added links can make a
        shortcut neither makes alone, so more than one is not handled here.
        """
        if added is not None:
            a, b, lat = added
            without = dict(self.adjacency)
            without[a] = {n: l for n, l in without[a].items() if n != b}
            without[b] = {n: l for n, l in without[b].items() if n != a}
            from_a, _ = _search(without, a)
            from_b, _ = _search(without, b)

        def touches(tree: PathTree) -> bool:
            members = tree.members
            if any(x in members and y in members for x, y in removed):
                return True
            if added is None:
                return False
            # per direction: the cost from the tree's source across the new
            # link, and the distances onward from its far end
            ways = []
            for near, far in ((from_a, from_b), (from_b, from_a)):
                to_link = near.get(tree.yni)
                if to_link is not None:
                    ways.append((to_link[0] + 1, to_link[1] + lat, far))
            stack = [(tree, 0, 0)]
            while stack:
                node, hops, dist = stack.pop()
                for h, d, far in ways:
                    rest = far.get(node.yni)
                    if (rest is not None
                            and (h + rest[0], d + rest[1]) <= (hops, dist)):
                        return True
                row = self.adjacency[node.yni]
                stack += [(c, hops + 1, dist + row[c.yni]) for c in node.children]
            return False

        return touches


def compute_path(graph: TopologyGraph, source: Yni,
                 consumers: Iterable[Yni]) -> PathTree:
    """Union of shortest paths from the source edge to every consumer edge.

    Paths come from `graph.shortest_paths(source)`, so the result is a
    function of the graph alone, not of registration order. Children are
    stored in id order. Raises UnreachableConsumer listing every cut-off
    edge. Results are memoised by `TopologyGraph.path_tree`.
    """
    targets = frozenset(consumers) - {source}
    if source not in graph.nodes:
        raise UnknownNode(f"unknown source {source}")
    for c in sorted(targets):
        if c not in graph.nodes:
            raise UnknownNode(f"unknown consumer edge {c}")
    tree = graph.path_tree(source, targets)
    if isinstance(tree, tuple):
        raise UnreachableConsumer(source, tree)
    return tree


# ---------------------------------------------------------------------------
# provisioning


@dataclass(frozen=True)
class HostPrefs:
    preferred_domain: Optional[str] = None
    max_latency: Optional[int] = None


# ---------------------------------------------------------------------------
# flows


@dataclass
class Partition:
    channel_id: int
    producer_edge: Yni
    consumer_edges: list[Yni] = field(default_factory=list)


@dataclass
class FlowObject:
    valley_id: int
    namespace_id: int
    community: str
    model: ServiceModel
    current_channel_id: int
    producer_edges: dict[Yni, bool] = field(default_factory=dict)  # yni -> active
    consumer_edges: set[Yni] = field(default_factory=set)
    partitions: Optional[list[Partition]] = None
    advertised: dict[tuple[Yni, int], PathTree] = field(default_factory=dict)
    precomputed: dict[Yni, PathTree] = field(default_factory=dict)
    retired_channel_ids: set[int] = field(default_factory=set)
    # the last reconcile, its precompute included, left a consumer cut off
    cut_off: bool = False

    def active_edges(self) -> list[Yni]:
        return sorted(e for e, active in self.producer_edges.items() if active)

    def member_channel(self, edge: Yni) -> int:
        """The channel id this edge currently works under."""
        if self.partitions is not None:
            for p in self.partitions:
                if edge == p.producer_edge or edge in p.consumer_edges:
                    return p.channel_id
        return self.current_channel_id


@dataclass(frozen=True)
class ChannelObject:
    """Derived per-channel view: members plus the connector subgraph, the
    latter being the union of the advertised trees' interior nodes."""

    channel_id: int
    source_type: str  # "single" | "multi"
    producer_edges: tuple[Yni, ...]
    consumer_edges: tuple[Yni, ...]
    connectors: tuple[Yni, ...]


# ---------------------------------------------------------------------------
# controller <-> node payloads


@dataclass(frozen=True)
class JoinRequest:
    edge: Yni
    valley_id: int
    namespace_id: int
    community: str
    role: str  # "producer" | "consumer" | "member"
    host: Yni
    app_id: int


@dataclass(frozen=True)
class JoinReply:
    valley_id: int
    namespace_id: int
    community: str
    role: str
    host: Yni
    app_id: int
    channel_id: int
    lock_edge: bool
    service_model: ServiceModel
    anycast_randomized: bool
    anycast_q: int  # p_deliver scaled to /65535


@dataclass(frozen=True)
class RemoveRole:
    edge: Yni
    valley_id: int
    namespace_id: int
    community: str
    role: str


@dataclass(frozen=True)
class PathAdvertisement:
    message: bytes  # encoded control message with valley, channel and tree


@dataclass(frozen=True)
class PathWithdraw:
    valley_id: int
    channel_id: int


@dataclass(frozen=True)
class ActivateProducerEdge:
    valley_id: int
    namespace_id: int
    community: str
    channel_id: int


@dataclass(frozen=True)
class ChannelIdUpdate:
    valley_id: int
    old_channel_id: int
    new_channel_id: int


# ---------------------------------------------------------------------------
# the controller proper


class Controller:
    """Single logical event loop; both halves run inside it.

    `transport(dest, payload)` delivers a reply to a node (the simulator
    schedules it after the configured RPC latency; unit tests collect it).
    `clock()` supplies the tick for trace records.
    """

    def __init__(self, directory: Directory, trace: Trace, metrics: Metrics,
                 transport: Callable[[Yni, object], None],
                 clock: Callable[[], int]):
        self.directory = directory
        self.graph = TopologyGraph()
        self.trace = trace
        self.metrics = metrics
        self.transport = transport
        self.clock = clock
        self.flows: dict[tuple[int, int, str], FlowObject] = {}
        self.placed: dict[Yni, int] = {}  # edge -> hosts placed there

    # -- plumbing ------------------------------------------------------------

    def _emit(self, event: str, *fields: tuple[str, object]) -> None:
        self.trace.emit(self.clock(), CONTROLLER_NODE, event, *fields)

    def handle(self, payload: object) -> None:
        """Entry point for simulator-delivered requests."""
        if isinstance(payload, JoinRequest):
            self.handle_edge_join(payload)
        elif isinstance(payload, RemoveRole):
            self.remove_edge_role(payload.valley_id, payload.namespace_id,
                                  payload.community, payload.edge, payload.role)
        else:
            raise TypeError(f"controller cannot handle {type(payload).__name__}")

    # -- topology half ---------------------------------------------------------

    def register_infrastructure_node(self, yni: Yni, role: str, domain: str,
                                     neighbors: dict[Yni, int],
                                     stats: Optional[dict[str, float]] = None) -> None:
        """Record the node, then reconcile, in flow order, each flow whose
        trees its link change can touch (`TopologyGraph.change_test`), and
        each flow with a cut-off consumer, whose UNREACHABLE lines so repeat
        on every registration. A new node, or more than one added link,
        touches every flow."""
        new = yni not in self.graph.nodes
        removed, added = self.graph.register(yni, role, domain, neighbors, stats)
        every = new or len(added) > 1
        touches = None if every else self.graph.change_test(
            removed, added[0] if added else None)
        for key in sorted(self.flows):
            flow = self.flows[key]
            if (every or flow.cut_off
                    or any(map(touches, flow.advertised.values()))
                    or any(map(touches, flow.precomputed.values()))):
                self.reconcile(flow)

    def provision_host(self, host: Yni, user: str,
                       prefs: HostPrefs = HostPrefs()) -> Yni:
        """Place a host on the edge with the least `_placement_key`.

        The edges wait in a min-heap per preference pair, kept in
        `graph.placement`: built for the pair's first host and dropped by
        every `TopologyGraph.register`. In between, the only part of a key
        that moves is the remaining capacity, and it only falls as hosts are
        placed, so a key can only grow. The top entry is scored again: if
        its key grew (a host with other preferences went there), it goes
        back with the new key and the next top is tried; if not, no edge
        can beat it. The winner goes back keyed for the next host.
        """
        self.directory.check_credentials(user)
        self.metrics.provision_visit()
        graph = self.graph
        heap = graph.placement.get(prefs)
        if heap is None:
            heap = graph.placement[prefs] = [
                self._placement_key(info, prefs)
                for info in graph.nodes.values() if info.role == "edge"]
            heapq.heapify(heap)
        if not heap:
            raise NoEligibleEdge("no edges registered")
        while True:
            info = graph.nodes[heap[0][-1]]
            key = self._placement_key(info, prefs)
            if not key > heap[0]:  # `<=` would never hold for a NaN compute
                break
            heapq.heapreplace(heap, key)
        self.placed[info.yni] = self.placed.get(info.yni, 0) + 1
        heapq.heapreplace(heap, self._placement_key(info, prefs))
        self._emit("PROVISION", ("host", host), ("user", user), ("edge", info.yni))
        return info.yni

    def _placement_key(self, info: NodeInfo, prefs: HostPrefs) -> tuple:
        """An edge's placement key, lexicographically minimized: (misses
        preferences, latency estimate to the preferred domain, negated
        remaining capacity, node id). Capacity is the edge's compute stat
        minus hosts already placed there."""
        est = self._domain_distance(info.yni, prefs.preferred_domain)
        meets = ((prefs.preferred_domain is None
                  or info.domain == prefs.preferred_domain)
                 and (prefs.max_latency is None or est <= prefs.max_latency))
        remaining = info.stats.get("compute", 0.0) - self.placed.get(info.yni, 0)
        return (0 if meets else 1, est, -remaining, info.yni)

    def _domain_distance(self, start: Yni, domain: Optional[str]) -> float:
        """Shortest-path latency from a node to the nearest node of a domain."""
        if domain is None:
            return 0
        return self.graph.domain_distances(domain).get(start, float("inf"))

    # -- flow half -------------------------------------------------------------

    def _flow_key(self, valley_id: int, namespace_id: int, community: str):
        return (valley_id, namespace_id, community)

    def flow(self, valley_id: int, namespace_id: int, community: str) -> FlowObject:
        try:
            return self.flows[self._flow_key(valley_id, namespace_id, community)]
        except KeyError:
            raise UnknownFlow(f"no flow for community {community!r}") from None

    def create_community(self, valley_id: int, namespace_id: int,
                         community: str) -> FlowObject:
        """Fetch-or-create the community record plus its flow; the flow's
        first channel id is allocated immediately, channels or not."""
        record = self.directory.ensure_community(valley_id, namespace_id, community)
        if record.flow is None:
            ns = self.directory.namespace_by_id(valley_id, namespace_id)
            cid = self.directory.vib(valley_id).allocate_channel_id()
            record.flow = FlowObject(valley_id, namespace_id, community,
                                     ns.service_model, cid)
            self.flows[self._flow_key(valley_id, namespace_id, community)] = record.flow
        return record.flow

    def handle_edge_join(self, req: JoinRequest) -> None:
        ns = self.directory.namespace_by_id(req.valley_id, req.namespace_id)
        flow = self.create_community(req.valley_id, req.namespace_id, req.community)
        roles = roles_for_join(ns.service_model, req.role)

        lock_edge = False
        if "consumer" in roles:
            self._add_consumer_edge(flow, req.edge)
        if "producer" in roles:
            lock_edge = self._add_producer_edge(flow, ns, req.edge)

        self._emit("JOIN", ("edge", req.edge), ("valley", req.valley_id),
                   ("ns", req.namespace_id), ("community", req.community),
                   ("role", req.role), ("host", req.host), ("app", req.app_id))
        self.metrics.join_visit(str(req.edge), req.valley_id, req.community, req.role)

        self.reconcile(flow)
        reply = JoinReply(
            req.valley_id, req.namespace_id, req.community, req.role,
            req.host, req.app_id,
            channel_id=flow.member_channel(req.edge),
            lock_edge=lock_edge,
            service_model=ns.service_model,
            anycast_randomized=ns.anycast.randomized,
            anycast_q=int(round(ns.anycast.p_deliver * 65535)),
        )
        self.transport(req.edge, reply)

    def _add_consumer_edge(self, flow: FlowObject, edge: Yni) -> None:
        if edge in flow.consumer_edges:
            return
        flow.consumer_edges.add(edge)
        if flow.partitions is not None and not any(
                edge in p.consumer_edges for p in flow.partitions):
            # incremental balance: pin to its own partition if it produces
            # (so a later merge carries the consumer role along), otherwise
            # fewest consumers, ties to the lowest producer edge
            own = [p for p in flow.partitions if p.producer_edge == edge]
            target = own[0] if own else min(
                flow.partitions, key=lambda p: (len(p.consumer_edges),
                                                p.producer_edge))
            target.consumer_edges.append(edge)

    def _add_producer_edge(self, flow: FlowObject, ns: NamespaceRecord,
                           edge: Yni) -> bool:
        """Returns the edge-level lock directive for the join reply."""
        if edge in flow.producer_edges:
            return not flow.producer_edges[edge]
        if not flow.model.single_source:
            flow.producer_edges[edge] = True
            return False
        has_active = bool(flow.active_edges())
        if not has_active:
            flow.producer_edges[edge] = True
            return False
        if flow.model.attributes.partitioning and ns.auto_partition:
            flow.producer_edges[edge] = True
            self.partition_flow(flow)
            return False
        flow.producer_edges[edge] = False  # on hold
        return True

    # -- partitioning ----------------------------------------------------------

    def partition_flow(self, flow: FlowObject) -> None:
        """(Re)split a partitionable flow: one partition per producer edge.

        Existing partitions keep their channel ids; on the first split the
        partition of the already-active edge keeps the flow's current id;
        every new partition draws a fresh monotone id. Consumers are
        rebalanced wholesale and moved edges follow their new partition's id.
        """
        if not flow.model.attributes.partitioning:
            raise UnknownFlow(f"{flow.model.value} flows do not partition")
        if not flow.producer_edges:
            return
        vib = self.directory.vib(flow.valley_id)
        before = {e: flow.member_channel(e)
                  for e in set(flow.producer_edges) | flow.consumer_edges}
        old = {p.producer_edge: p.channel_id for p in (flow.partitions or [])}
        keeper = None
        if flow.partitions is None:
            active = flow.active_edges()
            keeper = active[0] if active else sorted(flow.producer_edges)[0]
        assignment = balance_consumers(sorted(flow.producer_edges),
                                       flow.consumer_edges)
        parts = []
        for producer_edge in sorted(assignment):
            if producer_edge in old:
                cid = old[producer_edge]
            elif producer_edge == keeper:
                cid = flow.current_channel_id
            else:
                cid = vib.allocate_channel_id()
            parts.append(Partition(cid, producer_edge, assignment[producer_edge]))
        flow.partitions = parts
        self._emit("PARTITION", ("valley", flow.valley_id),
                   ("community", flow.community), ("partitions", len(parts)),
                   ("channels", ",".join(str(p.channel_id) for p in parts)))
        # every partition's producer edge runs active
        for p in parts:
            if not flow.producer_edges[p.producer_edge]:
                flow.producer_edges[p.producer_edge] = True
                self.transport(p.producer_edge, ActivateProducerEdge(
                    flow.valley_id, flow.namespace_id, flow.community,
                    p.channel_id))
        self._push_channel_updates(flow, before)
        self.reconcile(flow)

    def _push_channel_updates(self, flow: FlowObject,
                              before: dict[Yni, int]) -> None:
        for edge in sorted(before):
            now_cid = flow.member_channel(edge)
            if now_cid != before[edge]:
                self.transport(edge, ChannelIdUpdate(flow.valley_id,
                                                     before[edge], now_cid))

    def merge_partition(self, flow: FlowObject, dying: Partition) -> None:
        rest = [p for p in flow.partitions if p is not dying]
        flow.partitions = rest if rest else None
        if rest:
            survivor = min(rest, key=lambda p: p.producer_edge)
            moved = [e for e in dying.consumer_edges if e in flow.consumer_edges]
            for e in moved:
                if e != survivor.producer_edge and e not in survivor.consumer_edges:
                    survivor.consumer_edges.append(e)
                self.transport(e, ChannelIdUpdate(flow.valley_id,
                                                  dying.channel_id,
                                                  survivor.channel_id))
            flow.retired_channel_ids.add(dying.channel_id)
            self._emit("MERGE", ("valley", flow.valley_id),
                       ("community", flow.community),
                       ("from_channel", dying.channel_id),
                       ("into_channel", survivor.channel_id))
        else:
            # last partition: its id simply becomes the flow's current id
            flow.current_channel_id = dying.channel_id

    # -- membership removal ----------------------------------------------------

    def remove_edge_role(self, valley_id: int, namespace_id: int,
                         community: str, edge: Yni, role: str) -> None:
        flow = self.flow(valley_id, namespace_id, community)
        for r in role_rows(role):
            if r == "consumer":
                self._remove_consumer_edge(flow, edge)
            else:
                self._remove_producer_edge(flow, edge)
        self._emit("ROLE_REMOVED", ("edge", edge), ("valley", valley_id),
                   ("community", community), ("role", role))
        self.reconcile(flow)

    def _remove_consumer_edge(self, flow: FlowObject, edge: Yni) -> None:
        flow.consumer_edges.discard(edge)
        if flow.partitions is not None:
            for p in flow.partitions:
                if edge in p.consumer_edges:
                    p.consumer_edges.remove(edge)

    def _remove_producer_edge(self, flow: FlowObject, edge: Yni) -> None:
        if edge not in flow.producer_edges:
            return
        was_active = flow.producer_edges.pop(edge)
        flow.precomputed.pop(edge, None)
        if flow.partitions is not None:
            dying = [p for p in flow.partitions if p.producer_edge == edge]
            if dying:
                self.merge_partition(flow, dying[0])
            return
        if flow.model.single_source and was_active:
            self._activate_next(flow)

    def _activate_next(self, flow: FlowObject) -> None:
        """Single-source failover: bring up the lowest on-hold producer edge,
        advertising its pre-computed path before the activation signal."""
        candidates = [e for e, active in flow.producer_edges.items() if not active]
        nxt = next_producer_edge(candidates)
        if nxt is None:
            return
        flow.producer_edges[nxt] = True
        leaves = flow.consumer_edges - {nxt}
        if leaves:
            # the precomputed store is refreshed on every reconcile, so a hit
            # here is current; compute on the spot only when one is missing
            tree = flow.precomputed.get(nxt)
            if tree is None:
                tree = self._tree_or_partial(flow, nxt, leaves)
            if tree is not None:
                self._advertise(flow, nxt, flow.current_channel_id, tree)
        self.transport(nxt, ActivateProducerEdge(
            flow.valley_id, flow.namespace_id, flow.community,
            flow.current_channel_id))

    # -- paths -----------------------------------------------------------------

    def _partial_tree(self, source: Yni, leaves: set[Yni]
                      ) -> tuple[Optional[PathTree], tuple[Yni, ...]]:
        """Strict computation first; on cut-off consumers, cover the
        reachable remainder (None when there is none). Also returns the
        cut-off consumers."""
        try:
            return compute_path(self.graph, source, leaves), ()
        except UnreachableConsumer as exc:
            rest = leaves - set(exc.cut_off)
            tree = compute_path(self.graph, source, rest) if rest else None
            return tree, exc.cut_off

    def _tree_or_partial(self, flow: FlowObject, source: Yni,
                         leaves: set[Yni]) -> Optional[PathTree]:
        """`_partial_tree`, logging any cut-off consumers."""
        tree, cut = self._partial_tree(source, leaves)
        if cut:
            flow.cut_off = True
            self._emit("UNREACHABLE", ("valley", flow.valley_id),
                       ("community", flow.community), ("edge", source),
                       ("cut", ",".join(str(c) for c in cut)))
        return tree

    def _desired_trees(self, flow: FlowObject) -> list[tuple[int, Yni, set[Yni]]]:
        out = []
        if flow.model.single_source and flow.partitions is None:
            active = flow.active_edges()
            if active:
                leaves = flow.consumer_edges - {active[0]}
                if leaves:
                    out.append((flow.current_channel_id, active[0], leaves))
        elif flow.partitions is not None:
            for p in flow.partitions:
                leaves = set(p.consumer_edges) - {p.producer_edge}
                if leaves:
                    out.append((p.channel_id, p.producer_edge, leaves))
        else:
            for e in sorted(flow.producer_edges):
                leaves = flow.consumer_edges - {e}
                if leaves:
                    out.append((flow.current_channel_id, e, leaves))
        return out

    def _advertise(self, flow: FlowObject, edge: Yni, channel_id: int,
                   tree: PathTree) -> None:
        flow.advertised[(edge, channel_id)] = tree
        msg = YodelMessage(MessageKind.CONTROL_YPP, CONTROLLER_YNI, edge,
                           FloatingHeader(valley_id=flow.valley_id,
                                          channel_id=channel_id,
                                          path_tree=tree))
        self._emit("PATH_ADV", ("edge", edge), ("valley", flow.valley_id),
                   ("channel", channel_id), ("nodes", tree.size()))
        self.transport(edge, PathAdvertisement(encode(msg)))

    def reconcile(self, flow: FlowObject) -> None:
        """Drive advertised state to match desired trees; withdraw the rest."""
        flow.cut_off = False
        desired: dict[tuple[Yni, int], PathTree] = {}
        for channel_id, source, leaves in self._desired_trees(flow):
            tree = self._tree_or_partial(flow, source, leaves)
            if tree is not None:
                desired[(source, channel_id)] = tree
        for key in sorted(flow.advertised.keys() - desired.keys(),
                          key=lambda k: (k[0], k[1])):
            edge, channel_id = key
            del flow.advertised[key]
            self._emit("PATH_WITHDRAW", ("edge", edge),
                       ("valley", flow.valley_id), ("channel", channel_id))
            self.transport(edge, PathWithdraw(flow.valley_id, channel_id))
        for key in sorted(desired, key=lambda k: (k[0], k[1])):
            if flow.advertised.get(key) != desired[key]:
                self._advertise(flow, key[0], key[1], desired[key])
        self._refresh_precomputed(flow)

    def _refresh_precomputed(self, flow: FlowObject) -> None:
        # proactive path computation is an SSM feature; other variants
        # compute on demand at activation time
        if flow.model is not ServiceModel.SSM or flow.partitions is not None:
            return
        flow.precomputed = {}
        for edge, active in sorted(flow.producer_edges.items()):
            if active:
                continue
            leaves = flow.consumer_edges - {edge}
            if not leaves:
                continue
            tree, cut = self._partial_tree(edge, leaves)
            if cut:
                flow.cut_off = True
            if tree is not None:
                flow.precomputed[edge] = tree

    # -- derived views ---------------------------------------------------------

    def channels(self, flow: FlowObject) -> list[ChannelObject]:
        """Channel objects as currently spawned, including the connector
        subgraph derived from advertised trees."""
        groups: dict[int, list[tuple[Yni, PathTree]]] = {}
        for (edge, channel_id), tree in flow.advertised.items():
            groups.setdefault(channel_id, []).append((edge, tree))
        out = []
        source_type = "single" if flow.model.single_source else "multi"
        for channel_id in sorted(groups):
            producers = sorted({e for e, _ in groups[channel_id]})
            consumers: set[Yni] = set()
            connectors: set[Yni] = set()
            for _, tree in groups[channel_id]:
                for node in tree.walk():
                    info = self.graph.nodes.get(node.yni)
                    if info is not None and info.role == "connector":
                        connectors.add(node.yni)
                    elif node.yni in flow.consumer_edges:
                        consumers.add(node.yni)
            out.append(ChannelObject(channel_id, source_type, tuple(producers),
                                     tuple(sorted(consumers)),
                                     tuple(sorted(connectors))))
        return out
