"""The split controller.

One half (provisioning) owns users, host placement and the infrastructure
topology; the other half (flow management) owns flows, channels and path
computation. A community is its flow, and `Controller.flows` is the one
store of flows, keyed by (valley id, namespace id, community name). Channel
ids come from the per-valley counters in the directory's information bases
(yodel.model). The halves share a process and call each other directly;
nothing about their split is externally visible.

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
from .errors import AccessDenied, NoEligibleEdge, UnknownFlow, UnknownNode
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
    parent with the lowest node id. Hops come first, so the search goes by
    hop layers with no heap: a node first reached at hop h has its least
    cost through some node at hop h - 1, and every path to it through a
    node of that layer costs (h, latency there + link latency). So each
    node of the next layer takes the least (latency + link latency, parent
    id) over its neighbours in the current layer: the `dist` of a search
    that pops costs in order, and among the parents of equal cost the
    lowest id. Each neighbour is compared on its own and the keys are
    totally ordered, so the order a row is read in does not matter.
    """
    dist: dict[Yni, tuple[int, int]] = {source: (0, 0)}
    parent: dict[Yni, Yni] = {}
    layer = [(source, 0)]
    hops = 0
    while layer:
        hops += 1
        best: dict[Yni, tuple[int, Yni]] = {}  # next layer: (latency, parent)
        for node, lat in layer:
            for nb, edge_lat in adjacency[node].items():
                if nb in dist:
                    continue
                cand = (lat + edge_lat, node)
                old = best.get(nb)
                if old is None or cand < old:
                    best[nb] = cand
        layer = []
        for nb, cand in best.items():
            dist[nb] = (hops, cand[0])
            parent[nb] = cand[1]
            layer.append((nb, cand[0]))
    return dist, parent


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

    Two results that depend only on the nodes and `adjacency` are cached:
    the shortest-path searches (`shortest_paths`) and the distance of every
    node to each domain (`domain_distances`). `register` drops both caches
    when the registering node is new, changes role or domain, or ends with
    a different adjacency row. Links are symmetric, so when that node's row
    is unchanged no other row changed either.

    A leaf, a node with one neighbour `c` that has a neighbour besides it,
    has no search of its own: its paths follow from `c`'s. Every cost from
    the leaf is `c`'s plus (1, latency of the link), which keeps the order
    of costs and so every lowest-id tie, and each node's parent is its
    parent from `c`, except that `c`'s parent is the leaf. So the cache
    holds one search per node that is not such a leaf; two nodes linked
    only to each other each search for themselves.

    Every search runs over `adjacency` and is kept in the cache. After a
    link change, `builds_again` reads the search serving a tree's root to
    tell whether `compute_path` would build that tree again.

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
            self._domain_dist.clear()
        old_links = old_links or {}
        removed = [(yni, other) for other, lat in old_links.items()
                   if links.get(other) != lat]
        added = [(yni, other, lat) for other, lat in links.items()
                 if old_links.get(other) != lat]
        return removed, added

    def shortest_paths(self, source: Yni
                       ) -> tuple[dict[Yni, tuple[int, int]], dict[Yni, Yni]]:
        """(dist, parent) of `_search` from a source node over the current
        links; callers must not modify the result. A leaf's pair is derived
        from its neighbour's cached search on each call, not cached."""
        hub, dist, parent = self.search_serving(source)
        if hub == source:
            return dist, parent
        lat = self.adjacency[source][hub]
        leaf_dist = {x: (hops + 1, d + lat) for x, (hops, d) in dist.items()}
        leaf_dist[source] = (0, 0)
        leaf_parent = dict(parent)
        del leaf_parent[source]
        leaf_parent[hub] = source
        return leaf_dist, leaf_parent

    def search_serving(self, source: Yni
                       ) -> tuple[Yni, dict[Yni, tuple[int, int]],
                                  dict[Yni, Yni]]:
        """(hub, dist, parent): the cached search that serves a source,
        from the source itself or, for a leaf, from its one neighbour `hub`
        (see the class docstring); callers must not modify the result."""
        row = self.adjacency[source]
        if len(row) == 1:
            (hub,) = row
            if len(self.adjacency[hub]) > 1:
                source = hub
        cached = self._paths.get(source)
        if cached is None:
            cached = self._paths[source] = _search(self.adjacency, source)
        return source, *cached

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

    def builds_again(self, tree: PathTree) -> bool:
        """Whether `compute_path` from the tree's root would build this
        tree again over the current links; the tree must be one it built
        that reached all its targets.

        Every (parent, child) pair of a tree it builds is the child's
        parent in the search serving the root, except that a leaf root is
        the parent of its hub. So a tree is built again exactly when each
        of its nodes keeps its parent: then every target's path up is the
        same, and if one node's parent moved, no tree built now holds the
        old pair. This holds whatever changed since the tree was built:
        links lost, added or re-latencied, several at once, new nodes, or
        the root becoming or ceasing to be a leaf.
        """
        root = tree.yni
        hub, _, parent = self.search_serving(root)
        ids, counts = tree.preorder()
        above = [[root, counts[0]]]  # [node, children still to read]
        for child, count in zip(ids[1:], counts[1:]):
            top = above[-1]
            if (root if child == hub else parent.get(child)) != top[0]:
                return False
            top[1] -= 1
            if not top[1]:
                above.pop()
            if count:
                above.append([child, count])
        return True


def compute_path(graph: TopologyGraph, source: Yni, consumers: Iterable[Yni]
                 ) -> tuple[Optional[PathTree], tuple[Yni, ...]]:
    """(tree, cut): the union of shortest paths from the source edge to
    every consumer edge it reaches (None when it reaches none), and the
    consumer edges it cannot reach, in id order.

    Paths come from the search `graph.search_serving(source)` returns, so
    the result is a function of the graph alone, not of registration order.
    For a leaf source that is its neighbour's search: the walk up stops at
    the neighbour, and the tree hangs under the source. The tree is built
    by `PathTree.from_preorder`, children in id order. The source is never
    a consumer of its own tree.
    """
    if source not in graph.nodes:
        raise UnknownNode(f"unknown source {source}")
    hub, reached, parent = graph.search_serving(source)
    children: dict[Yni, list[Yni]] = {hub: []}
    targets = set(consumers) - {source}
    cut = []
    for c in sorted(targets):
        if c not in reached:
            if c not in graph.nodes:
                raise UnknownNode(f"unknown consumer edge {c}")
            cut.append(c)
            continue
        # add the path up to the first node already in the tree
        node, below = c, []
        while node not in children:
            children[node] = below
            below = [node]
            node = parent[node]
        children[node] += below
    if len(cut) == len(targets):
        return None, tuple(cut)
    # preorder ids and child counts; a leaf source is the root above its hub
    ids, counts = ([], []) if hub == source else ([source], [1])
    stack = [hub]
    while stack:
        node = stack.pop()
        kids = children[node]
        ids.append(node)
        counts.append(len(kids))
        kids.sort(reverse=True)
        stack += kids
    return PathTree.from_preorder(ids, counts), tuple(cut)


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
        """Record the node, then reconcile, in flow order, each flow with a
        cut-off consumer, whose UNREACHABLE lines so repeat on every
        registration, and, when a link was removed or added, each flow with
        a tree `compute_path` would not build again
        (`TopologyGraph.builds_again`): its advertised trees and the ones
        precomputed for its edges on hold. A registration that changes no
        link changes no search, so it leaves every other flow as it is."""
        removed, added = self.graph.register(yni, role, domain, neighbors, stats)
        changed = removed or added
        builds_again = self.graph.builds_again
        for key in sorted(self.flows):
            flow = self.flows[key]
            if flow.cut_off or changed and not (
                    all(map(builds_again, flow.advertised.values()))
                    and all(map(builds_again, flow.precomputed.values()))):
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

    def flow(self, valley_id: int, namespace_id: int, community: str) -> FlowObject:
        try:
            return self.flows[(valley_id, namespace_id, community)]
        except KeyError:
            raise UnknownFlow(f"no flow for community {community!r}") from None

    def create_community(self, valley_id: int, namespace_id: int,
                         community: str) -> FlowObject:
        """Fetch-or-create the community's flow; a new flow's first channel
        id is allocated immediately, channels or not."""
        key = (valley_id, namespace_id, community)
        flow = self.flows.get(key)
        if flow is None:
            ns = self.directory.namespace_by_id(valley_id, namespace_id)
            cid = self.directory.vib(valley_id).allocate_channel_id()
            flow = self.flows[key] = FlowObject(valley_id, namespace_id,
                                                community, ns.service_model, cid)
        return flow

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
        Raises UnknownFlow for a model that does not partition; a split
        reconciles the flow once.
        """
        if not flow.model.attributes.partitioning:
            raise UnknownFlow(f"{flow.model.value} communities do not partition")
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

    def _tree_or_partial(self, flow: FlowObject, source: Yni,
                         leaves: set[Yni]) -> Optional[PathTree]:
        """`compute_path`, logging any cut-off consumers."""
        tree, cut = compute_path(self.graph, source, leaves)
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
        for key in sorted(flow.advertised.keys() - desired.keys()):
            edge, channel_id = key
            del flow.advertised[key]
            self._emit("PATH_WITHDRAW", ("edge", edge),
                       ("valley", flow.valley_id), ("channel", channel_id))
            self.transport(edge, PathWithdraw(flow.valley_id, channel_id))
        for key in sorted(desired):
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
            tree, cut = compute_path(self.graph, edge, leaves)
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
                for yni in map(Yni.from_bytes, tree.preorder()[0]):
                    info = self.graph.nodes.get(yni)
                    if info is not None and info.role == "connector":
                        connectors.add(yni)
                    elif yni in flow.consumer_edges:
                        consumers.add(yni)
            out.append(ChannelObject(channel_id, source_type, tuple(producers),
                                     tuple(sorted(consumers)),
                                     tuple(sorted(connectors))))
        return out
