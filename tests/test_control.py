"""Controller behavior: topology view, path trees, provisioning, flows."""

import gc
import heapq
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yodel import control
from yodel.codec import MessageKind, PathTree, decode
from yodel.control import (
    ActivateProducerEdge,
    ChannelIdUpdate,
    Controller,
    HostPrefs,
    JoinReply,
    JoinRequest,
    PathAdvertisement,
    PathWithdraw,
    RemoveRole,
    TopologyGraph,
    _search,
    compute_path,
)
from yodel.errors import (
    InvariantViolation,
    NoEligibleEdge,
    UnknownNamespace,
    UnknownNode,
    UnknownValley,
)
from yodel.model import Directory, Visibility
from yodel.services import ServiceModel
from yodel.trace import Metrics, Trace
from yodel.ynid import Yni

from textworld import build_text


def nid(n: int) -> Yni:
    return Yni(n.to_bytes(6, "big"), 0)


E1, E2, E3, E4 = nid(0x11), nid(0x22), nid(0x33), nid(0x44)
C1, C2 = nid(0xA1), nid(0xA2)
H1, H2 = nid(0xF1), nid(0xF2)


def register_mesh(graph, nodes, links):
    """nodes: {yni: (role, domain[, stats])}; links: {(a, b): latency}."""
    neigh = {y: {} for y in nodes}
    for (a, b), lat in links.items():
        neigh[a][b] = lat
        neigh[b][a] = lat
    for y, spec in nodes.items():
        role, domain = spec[0], spec[1]
        stats = spec[2] if len(spec) > 2 else None
        graph.register(y, role, domain, neigh[y], stats)


class TestTopologyGraph:
    def test_link_needs_both_declarations(self):
        g = TopologyGraph()
        g.register(E1, "edge", "d1", {E2: 3})
        assert g.adjacency[E1] == {}
        g.register(E2, "edge", "d1", {E1: 5})
        assert g.adjacency == {E1: {E2: 3}, E2: {E1: 3}}

    def test_latency_is_min_of_declared(self):
        g = TopologyGraph()
        g.register(E1, "edge", "d1", {E2: 9})
        g.register(E2, "edge", "d1", {E1: 2})
        assert g.adjacency[E1][E2] == g.adjacency[E2][E1] == 2

    def test_reregistration_replaces_declarations(self):
        g = TopologyGraph()
        g.register(E1, "edge", "d1", {E2: 1})
        g.register(E2, "edge", "d1", {E1: 1})
        g.register(E1, "edge", "d1", {})  # dropped its neighbor
        assert g.adjacency == {E1: {}, E2: {}}

    def test_unregistered_endpoint_stays_pending(self):
        g = TopologyGraph()
        g.register(E1, "edge", "d1", {E3: 1})
        assert g.adjacency == {E1: {}}

    def test_far_side_withdrawal_removes_links(self):
        g = TopologyGraph()
        g.register(E1, "edge", "d1", {E2: 1})
        g.register(E2, "edge", "d1", {E1: 1})
        g.register(E2, "edge", "d1", {})  # the far end drops the link
        assert g.adjacency[E1] == {}
        assert g.adjacency[E2] == {}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 5),
        st.sampled_from(["d1", "d2"]),
        st.dictionaries(st.integers(0, 7), st.integers(1, 9), max_size=5)),
        max_size=20))
    def test_adjacency_matches_link_rule(self, calls):
        """Nodes 6 and 7 never register; node n may name itself.

        After every registration, paths and domain distances from every
        node match a graph registered afresh from the same declarations,
        so no cached result outlives the topology it came from."""
        ctrl, *_ = build_controller()
        g = ctrl.graph
        for n, domain, decl in calls:
            g.register(nid(n), "edge", domain,
                       {nid(m): lat for m, lat in decl.items()})
            assert g.adjacency == confirmed_links(g.declared)
            fresh, *_ = build_controller()
            for y, declared in g.declared.items():
                fresh.graph.register(y, "edge", g.nodes[y].domain, declared)
            for y in g.nodes:
                # the tree to every other node it reaches, and the cut
                assert compute_path(g, y, g.nodes) \
                    == compute_path(fresh.graph, y, fresh.graph.nodes)
                for d in (None, "d1", "d2"):
                    assert ctrl._domain_distance(y, d) \
                        == fresh._domain_distance(y, d)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.integers(0, 2**16), min_size=n, max_size=n, unique=True),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=2 * n))))
def test_shortest_path_parent_is_lowest_id_among_equal_cost(case):
    """Against Bellman-Ford and a scan of every predecessor: each node's
    parent is the lowest id among the neighbors it is reached through at
    its least (hops, latency) cost, whatever order anything was built in."""
    order, labels, pairs = case
    ids = [nid(label) for label in labels]
    links = {frozenset((ids[a], ids[b])): lat
             for (a, b), lat in pairs.items() if a != b}
    neigh = {y: {} for y in ids}
    for pair, lat in links.items():
        a, b = sorted(pair)
        neigh[a][b] = neigh[b][a] = lat
    g = TopologyGraph()
    for i in order:
        g.register(ids[i], "edge", "d", neigh[ids[i]])
    for source in ids:
        dist = {source: (0, 0)}
        for _ in ids:
            for pair, lat in links.items():
                for u, v in itertools.permutations(pair):
                    if u in dist:
                        cand = (dist[u][0] + 1, dist[u][1] + lat)
                        if v not in dist or cand < dist[v]:
                            dist[v] = cand
        parent = {x: min(p for p, lat in neigh[x].items() if p in dist
                         and (dist[p][0] + 1, dist[p][1] + lat) == dist[x])
                  for x in dist if x != source}
        assert g.shortest_paths(source) == (dist, parent)


def heap_search(adjacency, source):
    """The heap search that `_search` replaced, kept as its reference: a
    node is settled when its least (hops, latency) cost leaves the heap, and
    an equal-cost relaxation keeps the lower parent id."""
    dist = {source: (0, 0)}
    parent = {}
    done = set()
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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2**16), min_size=n, max_size=n, unique=True),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=3 * n))))
def test_layered_search_matches_the_heap_search(case):
    """Random graphs, some cut in parts, with latencies 1-3 so that many
    nodes have equal-cost parents: from every node, the search by hop
    layers gives the heap search's `dist` and `parent`."""
    labels, pairs = case
    ids = [nid(label) for label in labels]
    adjacency = {y: {} for y in ids}
    for (a, b), lat in pairs.items():
        if a != b:
            adjacency[ids[a]][ids[b]] = adjacency[ids[b]][ids[a]] = lat
    for source in ids:
        assert _search(adjacency, source) == heap_search(adjacency, source)


graph_steps = st.lists(st.one_of(
    # declare a link from both ends: a new link, or a new latency
    st.tuples(st.just("link"), st.integers(0, 7), st.integers(0, 7),
              st.integers(1, 3)),
    # one end stops declaring it
    st.tuples(st.just("unlink"), st.integers(0, 7), st.integers(0, 7)),
    # a node registers again, maybe with another role or domain
    st.tuples(st.just("node"), st.integers(0, 7),
              st.sampled_from(["edge", "connector"]),
              st.sampled_from(["d1", "d2"]))),
    min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(graph_steps)
def test_cached_searches_equal_a_fresh_search_after_any_change(steps):
    """After every registration of a random sequence that adds, removes
    and re-latencies links, adds nodes and changes a node's role or domain:
    each search left in the cache, and `shortest_paths` from every node,
    equals the heap search over the current links. The cache is read
    before `shortest_paths` fills it again, so a search that outlived a
    change it should have been dropped for is seen."""
    g = TopologyGraph()
    declared, kinds = {}, {}

    def register(n):
        kinds.setdefault(n, ("edge", "d1"))
        g.register(nid(n), *kinds[n], {nid(m): lat for m, lat
                                       in declared.setdefault(n, {}).items()})
        for y, cached in g._paths.items():
            assert cached == heap_search(g.adjacency, y)
        for y in g.nodes:
            assert g.shortest_paths(y) == heap_search(g.adjacency, y)

    for step in steps:
        if step[0] == "link":
            _, a, b, lat = step
            declared.setdefault(a, {})[b] = lat
            declared.setdefault(b, {})[a] = lat
            register(a)
            register(b)
        elif step[0] == "unlink":
            _, a, b = step
            declared.setdefault(a, {}).pop(b, None)
            register(a)
        else:
            _, a, role, domain = step
            kinds[a] = (role, domain)
            register(a)


def confirmed_links(declared):
    """Reference rule: a link between two registered nodes that declare each
    other, at the smaller declared latency; nobody links to itself."""
    out = {a: {} for a in declared}
    for a, decl in declared.items():
        for b, lat_a in decl.items():
            lat_b = declared.get(b, {}).get(a)
            if b != a and lat_b is not None:
                out[a][b] = min(lat_a, lat_b)
    return out


class TestComputePath:
    def test_path_tree_leaves_no_garbage_cycle(self):
        g = TopologyGraph()
        register_mesh(g, STAR_NODES, STAR_LINKS)
        gc.collect()
        gc.disable()
        try:
            tree, cut = compute_path(g, E1, [E2, E3])
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert tree.edges() == [(E1, C1), (C1, E2), (C1, E3)] and cut == ()

    def test_chain(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), C1: ("connector", "d"),
                          E2: ("edge", "d")},
                      {(E1, C1): 1, (C1, E2): 1})
        tree, cut = compute_path(g, E1, [E2])
        assert tree.yni == E1
        assert tree.edges() == [(E1, C1), (C1, E2)]
        assert cut == ()

    def test_fewer_hops_beat_lower_latency(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), C1: ("connector", "d"),
                          E2: ("edge", "d")},
                      {(E1, E2): 50, (E1, C1): 1, (C1, E2): 1})
        tree, _ = compute_path(g, E1, [E2])
        assert tree.edges() == [(E1, E2)]

    def test_diamond_collapses_to_lowest_parent(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), C1: ("connector", "d"),
                          C2: ("connector", "d"), E2: ("edge", "d")},
                      {(E1, C1): 1, (E1, C2): 1, (C1, E2): 1, (C2, E2): 1})
        tree, _ = compute_path(g, E1, [E2])
        # C1 < C2, so the path runs through C1 and C2 is absent
        assert tree.edges() == [(E1, C1), (C1, E2)]

    def test_registration_order_is_irrelevant(self):
        nodes = {E1: ("edge", "d"), C1: ("connector", "d"),
                 C2: ("connector", "d"), E2: ("edge", "d"), E3: ("edge", "d")}
        links = {(E1, C1): 1, (E1, C2): 1, (C1, E2): 1, (C2, E2): 1,
                 (C2, E3): 2, (C1, E3): 2}
        trees = set()
        for order in itertools.permutations(nodes):
            g = TopologyGraph()
            neigh = {y: {} for y in nodes}
            for (a, b), lat in links.items():
                neigh[a][b] = lat
                neigh[b][a] = lat
            for y in order:
                g.register(y, nodes[y][0], nodes[y][1], neigh[y])
            tree, cut = compute_path(g, E1, [E2, E3])
            assert cut == ()
            trees.add(tree.records)
        assert len(trees) == 1

    def test_union_shares_common_prefix(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), C1: ("connector", "d"),
                          E2: ("edge", "d"), E3: ("edge", "d")},
                      {(E1, C1): 1, (C1, E2): 1, (C1, E3): 1})
        tree, _ = compute_path(g, E1, [E2, E3])
        assert tree.edges() == [(E1, C1), (C1, E2), (C1, E3)]
        assert tree.size() == 4

    def test_source_never_appears_as_leaf(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), E2: ("edge", "d")}, {(E1, E2): 1})
        tree, cut = compute_path(g, E1, [E1, E2])
        assert tree.edges() == [(E1, E2)] and cut == ()
        # with nothing else to reach there is no tree, not a lone root
        assert compute_path(g, E1, [E1]) == (None, ())
        assert compute_path(g, E1, []) == (None, ())

    def test_unreachable_lists_cut_off_edges(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), E2: ("edge", "d"),
                          E3: ("edge", "d"), E4: ("edge", "d")},
                      {(E1, E2): 1, (E3, E4): 1})
        tree, cut = compute_path(g, E1, [E4, E3, E2])
        assert tree.edges() == [(E1, E2)]
        assert cut == (E3, E4)
        # every consumer cut off: no tree at all
        assert compute_path(g, E1, [E4, E3]) == (None, (E3, E4))

    def test_result_is_reused_until_the_graph_changes(self):
        g = TopologyGraph()
        nodes = {E1: ("edge", "d"), C1: ("connector", "d"),
                 E2: ("edge", "d"), E3: ("edge", "d")}
        register_mesh(g, nodes, {(E1, C1): 1, (C1, E2): 1})
        tree, _ = compute_path(g, E1, [E2])
        assert compute_path(g, E1, (E2, E1)) == (tree, ())
        for _ in range(2):
            assert compute_path(g, E1, [E3, E2]) == (tree, (E3,))
        # a registration that changes nothing keeps the same answer
        g.register(E2, "edge", "d", {C1: 1})
        assert compute_path(g, E1, [E2]) == (tree, ())
        # a new link reaches the cut-off edge and leaves the rest alone
        g.register(E3, "edge", "d", {C1: 1})
        g.register(C1, "connector", "d", {E1: 1, E2: 1, E3: 1})
        assert compute_path(g, E1, [E2]) == (tree, ())
        new, cut = compute_path(g, E1, [E3, E2])
        assert new.edges() == [(E1, C1), (C1, E2), (C1, E3)] and cut == ()

    def test_unknown_source_or_consumer_is_rejected(self):
        g = TopologyGraph()
        register_mesh(g, {E1: ("edge", "d"), E2: ("edge", "d"),
                          E3: ("edge", "d")}, {(E1, E2): 1})
        with pytest.raises(UnknownNode, match="unknown source"):
            compute_path(g, E4, [E1])
        # named even beside reachable and cut-off consumers
        with pytest.raises(UnknownNode, match=f"unknown consumer edge {E4}"):
            compute_path(g, E1, [E2, E3, E4])


def reference_path(graph, source, consumers):
    """(tree, cut) assembled from the `shortest_paths` parents: every edge
    on the way up from each reached consumer, children in id order."""
    reached, parent = graph.shortest_paths(source)
    targets = set(consumers) - {source}
    cut = tuple(sorted(c for c in targets if c not in reached))
    kids = {}
    for c in targets - set(cut):
        while c != source:
            kids.setdefault(parent[c], set()).add(c)
            c = parent[c]

    def build(node):
        return PathTree(node, tuple(build(k) for k in sorted(kids.get(node, ()))))

    return (build(source) if kids else None), cut


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2**16), min_size=n, max_size=n, unique=True),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=n + 2),
    st.integers(0, n - 1),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))))
@example(([1, 2, 3], {(0, 1): 1}, 0, []))  # no consumers: (None, ())
def test_compute_path_matches_parent_walk(case):
    """Sparse random graphs, so many have parts cut off from the source
    (about a third of the draws cut a consumer off, and one in eight cuts
    one off beside a reached one); consumers come in any order, with repeats
    and sometimes the source."""
    labels, pairs, source, consumers = case
    ids = [nid(label) for label in labels]
    neigh = {y: {} for y in ids}
    for (a, b), lat in pairs.items():
        if a != b:
            neigh[ids[a]][ids[b]] = neigh[ids[b]][ids[a]] = lat
    g = TopologyGraph()
    for y in ids:
        g.register(y, "edge", "d", neigh[y])
    got = compute_path(g, ids[source], [ids[c] for c in consumers])
    assert got == reference_path(g, ids[source], [ids[c] for c in consumers])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2**16), min_size=n, max_size=n, unique=True),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=n + 2),
    st.integers(0, n - 1),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
              st.integers(0, 3)))))
def test_builds_again_is_exactly_whether_compute_path_builds_the_tree(case):
    """A tree `compute_path` built that reached all its consumers is built
    again over the same links, and after one link is added, re-latencied
    or removed (latency 0), `builds_again` holds exactly when
    `compute_path` builds the same tree."""
    labels, pairs, source, consumers, (a, b, lat) = case
    ids = [nid(label) for label in labels]
    neigh = {y: {} for y in ids}
    for (x, y), weight in pairs.items():
        if x != y:
            neigh[ids[x]][ids[y]] = neigh[ids[y]][ids[x]] = weight
    g = TopologyGraph()
    for y in ids:
        g.register(y, "edge", "d", neigh[y])
    targets = [ids[c] for c in consumers]
    tree, cut = compute_path(g, ids[source], targets)
    if tree is None or cut:
        return
    assert g.builds_again(tree)
    if a == b:
        return
    a, b = ids[a], ids[b]
    neigh[a].pop(b, None), neigh[b].pop(a, None)
    if lat:
        neigh[a][b] = neigh[b][a] = lat
    g.register(a, "edge", "d", neigh[a])
    g.register(b, "edge", "d", neigh[b])
    assert g.builds_again(tree) == (compute_path(g, ids[source], targets)
                                    == (tree, ()))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 2**16), min_size=n + 6, max_size=n + 6,
             unique=True),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=2 * n),
    st.lists(st.tuples(st.integers(0, n + 3), st.integers(1, 3)),
             min_size=1, max_size=4),
    st.integers(1, 3))))
def test_a_leaf_source_shares_its_neighbours_search(case):
    """A core graph with leaves hung on it (a leaf may hang on an earlier
    leaf, or be the only neighbour of its core node) and a two-node
    component: from every node, `shortest_paths` equals a search from the
    node itself, and no node served by its neighbour's search has an entry
    of its own in the cache."""
    n, labels, pairs, leaves, pair_lat = case
    ids = [nid(label) for label in labels]
    neigh = {y: {} for y in ids}

    def link(a, b, lat):
        neigh[a][b] = neigh[b][a] = lat

    for (a, b), lat in pairs.items():
        if a != b:
            link(ids[a], ids[b], lat)
    for i, (hub, lat) in enumerate(leaves):
        link(ids[n + i], ids[min(hub, n + i - 1)], lat)
    link(ids[-2], ids[-1], pair_lat)
    g = TopologyGraph()
    for y in ids:
        if neigh[y] or y in ids[:n]:
            g.register(y, "edge", "d", neigh[y])
    for y in g.nodes:
        assert g.shortest_paths(y) == _search(g.adjacency, y)
    for y in g._paths:
        row = g.adjacency[y]
        assert len(row) != 1 or len(g.adjacency[next(iter(row))]) == 1
    # two nodes linked only to each other each search for themselves
    assert {ids[-2], ids[-1]} <= g._paths.keys()
    assert g.shortest_paths(ids[-1]) == (
        {ids[-1]: (0, 0), ids[-2]: (1, pair_lat)}, {ids[-2]: ids[-1]})


def test_a_removed_link_touches_only_the_trees_that_use_it():
    """e1's tree reaches e2 and e3 through c1 and does not use the link
    e2-e3 between two of its nodes: losing that link, reported from
    either end, leaves the tree as it was, and `builds_again` says so.
    Losing a link of the tree, reported from either end, changes it.

    Other link changes go through the same test: a root that becomes a
    leaf served by its neighbour's search, and stops being one, keeps its
    tree; an added link that opens an equal-cost path through a lower id
    changes it."""
    links = {**STAR_LINKS, (E2, E3): 1}
    for yni, keep, used in ((E2, {C1: 1}, False), (E3, {C1: 2}, False),
                            (C1, {E1: 1, E3: 2}, True), (E2, {E3: 1}, True)):
        g = TopologyGraph()
        register_mesh(g, STAR_NODES, links)
        tree, _ = compute_path(g, E1, [E2, E3])
        assert tree.edges() == [(E1, C1), (C1, E2), (C1, E3)]
        removed, added = g.register(yni, *STAR_NODES[yni], keep)
        assert len(removed) == 1 and added == []
        assert g.builds_again(tree) is not used
        assert (compute_path(g, E1, [E2, E3]) == (tree, ())) is not used

    # with a second link e1-e4, e1 searches for itself; dropping that link
    # makes it a leaf served by c1's search, and the link coming back
    # undoes that, with the same tree each time
    nodes = {**STAR_NODES, E4: ("edge", "d1")}
    g = TopologyGraph()
    register_mesh(g, nodes, {**links, (E1, E4): 5})
    tree, _ = compute_path(g, E1, [E2, E3])
    assert tree.edges() == [(E1, C1), (C1, E2), (C1, E3)]
    assert g.search_serving(E1)[0] == E1
    for keep, hub, change in (({C1: 1}, C1, ([(E1, E4)], [])),
                              ({C1: 1, E4: 5}, E1, ([], [(E1, E4, 5)]))):
        assert g.register(E1, *nodes[E1], keep) == change
        assert g.search_serving(E1)[0] == hub
        assert g.builds_again(tree)
        assert compute_path(g, E1, [E2, E3]) == (tree, ())

    # the reconcile soak's example: e0's tree reaches e2 over e0-c4-c6-e2
    # at (3 hops, latency 5); a link e2-e3 of latency 1 opens e0-c4-e3-e2
    # at the same cost through the lower id e3
    e0, _, e2, e3, c4, _, c6 = ring = CHURN_NODES[:7]
    g = TopologyGraph()
    register_mesh(g, {y: ("edge" if i in CHURN_EDGES else "connector", "d")
                      for i, y in enumerate(ring)},
                  {(ring[a], ring[b]): lat for (a, b), lat in CHURN_BASE.items()})
    tree, _ = compute_path(g, e0, [e2])
    assert tree.edges() == [(e0, c4), (c4, c6), (c6, e2)]
    g.register(e2, "edge", "d", {c6: 2, e3: 1})
    assert g.register(e3, "edge", "d", {c4: 2, e2: 1}) == ([], [(e3, e2, 1)])
    assert not g.builds_again(tree)
    assert compute_path(g, e0, [e2])[0].edges() \
        == [(e0, c4), (c4, e3), (e3, e2)]


def test_searches_on_a_bench_world_are_at_most_its_non_leaf_nodes(
        monkeypatch):
    """On the join-churn world, where every edge hangs on one connector:
    between two drops of the cache, the controller searches from at most
    as many sources as there are nodes with two or more links. Every
    search runs over `graph.adjacency` itself, so none escapes the count:
    a search over any other graph is counted apart and must not happen."""
    import test_replay_golden as golden
    world = golden._bench_worlds().generate("join-churn", 1)
    sim = build_text(world.topology, world.scenario, 1)
    graph = sim.controller.graph

    class Epochs(dict):
        epoch = 0

        def clear(self):
            self.epoch += 1
            super().clear()

    graph._paths = Epochs(graph._paths)
    cached, apart, non_leaf = Counter(), [], {}
    search = control._search

    def counting(adjacency, source):
        if adjacency is graph.adjacency:
            cached[graph._paths.epoch] += 1
            non_leaf[graph._paths.epoch] = sum(
                len(row) > 1 for row in adjacency.values())
        else:
            apart.append(source)
        return search(adjacency, source)

    monkeypatch.setattr(control, "_search", counting)
    sim.run()
    assert sim.metrics.deliveries
    assert len(cached) > 1 and not apart
    assert all(cached[e] <= non_leaf[e] for e in cached), (cached, non_leaf)


def build_controller(nodes=None, links=None, cls=Controller):
    directory = Directory()
    directory.register_user("alice")
    valley = directory.create_valley("alice", "vale")
    trace = Trace()
    metrics = Metrics()
    sent = []
    ctrl = cls(directory, trace, metrics,
               transport=lambda dest, payload: sent.append((dest, payload)),
               clock=lambda: 0)
    if nodes:
        register_mesh(ctrl.graph, nodes, links or {})
    return ctrl, directory, valley, trace, sent


def make_namespace(directory, valley, model, **kwargs):
    return directory.create_namespace("alice", valley.name, "svc",
                                      Visibility.OPEN, model, **kwargs)


def join(ctrl, ns, edge, role, host=H1, app=7, community="room"):
    ctrl.handle(JoinRequest(edge, ns.valley_id, ns.id, community, role, host, app))


def replies(sent, dest=None, kind=JoinReply):
    return [p for d, p in sent if isinstance(p, kind)
            and (dest is None or d == dest)]


def test_communities_appear_on_first_contact():
    """A community is its flow, made on first contact with one channel id;
    the flow store holds nothing for an unknown namespace."""
    ctrl, directory, valley, trace, sent = build_controller()
    ns = make_namespace(directory, valley, ServiceModel.SSM)
    f1 = ctrl.create_community(valley.id, ns.id, "weather")
    f2 = ctrl.create_community(valley.id, ns.id, "weather")
    assert f1 is f2 is ctrl.flow(valley.id, ns.id, "weather")
    assert f1.current_channel_id == 1
    with pytest.raises(UnknownNamespace, match="^unknown namespace id 99$"):
        ctrl.create_community(valley.id, 99, "weather")
    with pytest.raises(UnknownValley, match="^unknown valley id 9$"):
        ctrl.create_community(9, ns.id, "weather")
    assert list(ctrl.flows) == [(valley.id, ns.id, "weather")]
    # one id drawn for the flow, none for the rejected calls
    assert directory.vib(valley.id).allocate_channel_id() == 2


STAR_NODES = {E1: ("edge", "d1"), E2: ("edge", "d1"), E3: ("edge", "d2"),
              C1: ("connector", "d1")}
STAR_LINKS = {(E1, C1): 1, (E2, C1): 1, (E3, C1): 2}


class TestSingleSourceFlows:
    def test_first_producer_active_second_on_hold(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "producer", host=H2)
        first, second = replies(sent)
        assert first.lock_edge is False
        assert second.lock_edge is True
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert flow.producer_edges == {E1: True, E2: False}

    def test_consumer_join_triggers_advertisement(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        assert replies(sent, kind=PathAdvertisement) == []  # no consumers yet
        join(ctrl, ns, E3, "consumer", host=H2)
        adverts = replies(sent, dest=E1, kind=PathAdvertisement)
        assert len(adverts) == 1
        msg = decode(adverts[0].message)
        assert msg.kind is MessageKind.CONTROL_YPP
        assert msg.floating.channel_id == ctrl.flow(ns.valley_id, ns.id, "room").current_channel_id
        assert msg.floating.path_tree.edges() == [(E1, C1), (C1, E3)]

    def test_join_reply_carries_service_profile(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.AC)
        join(ctrl, ns, E1, "consumer")
        (reply,) = replies(sent)
        assert reply.service_model is ServiceModel.AC
        assert reply.anycast_q == 65535
        assert reply.channel_id >= 1

    def test_on_hold_edge_gets_precomputed_tree(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "producer", host=H2)
        join(ctrl, ns, E3, "consumer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert E2 in flow.precomputed
        assert flow.precomputed[E2].edges() == [(E2, C1), (C1, E3)]

    def test_failover_advertises_before_activating(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "producer", host=H2)
        join(ctrl, ns, E3, "consumer", host=H2)
        sent.clear()
        ctrl.handle(RemoveRole(E1, ns.valley_id, ns.id, "room", "producer"))
        to_e2 = [p for d, p in sent if d == E2]
        kinds = [type(p).__name__ for p in to_e2]
        assert kinds.index("PathAdvertisement") < kinds.index("ActivateProducerEdge")
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert flow.producer_edges == {E2: True}
        assert trace.count("ROLE_REMOVED", edge=str(E1)) == 1

    def test_last_consumer_leaving_withdraws_path(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E3, "consumer", host=H2)
        sent.clear()
        ctrl.handle(RemoveRole(E3, ns.valley_id, ns.id, "room", "consumer"))
        withdraws = replies(sent, dest=E1, kind=PathWithdraw)
        assert len(withdraws) == 1
        assert ctrl.flow(ns.valley_id, ns.id, "room").advertised == {}

    def test_unreachable_consumer_logged_and_rest_covered(self):
        nodes = dict(STAR_NODES)
        nodes[E4] = ("edge", "d3")  # never linked
        ctrl, directory, valley, trace, sent = build_controller(nodes, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E4, "consumer", host=H2)
        join(ctrl, ns, E3, "consumer", host=H2)
        assert trace.count("UNREACHABLE") >= 1
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        tree = flow.advertised[(E1, flow.current_channel_id)]
        leaf_ids = {t.yni for t in tree.walk()}
        assert E3 in leaf_ids and E4 not in leaf_ids

    @pytest.mark.xfail(strict=True, raises=InvariantViolation,
                       reason="a tree too large for the 64 KiB floating "
                       "header stops the controller")
    def test_a_tree_too_large_to_advertise_cuts_the_consumer_off(self):
        """e1 and e2 at the ends of a chain of 5 955 connectors: the tree
        from e1 has 5 957 nodes of 11 bytes, one more than a floating header
        holds. The join still returns, with the flow marked cut off."""
        chain = [E1, *(nid(0x10000 + i) for i in range(5955)), E2]
        nodes = {y: ("connector", "d") for y in chain}
        nodes[E1] = nodes[E2] = ("edge", "d")
        ctrl, directory, valley, trace, sent = build_controller(
            nodes, {pair: 1 for pair in zip(chain, chain[1:])})
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "consumer", host=H2)
        assert ctrl.flow(ns.valley_id, ns.id, "room").cut_off


class TestMultiSourceFlows:
    def test_every_producer_edge_runs_active(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.MSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "producer", host=H2)
        r1, r2 = replies(sent)
        assert r1.lock_edge is False and r2.lock_edge is False
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert flow.producer_edges == {E1: True, E2: True}

    def test_one_tree_per_producer_edge(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.MSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "producer", host=H2)
        join(ctrl, ns, E3, "consumer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert set(flow.advertised) == {(E1, flow.current_channel_id),
                                        (E2, flow.current_channel_id)}

    def test_member_join_registers_both_roles(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.MMM)
        join(ctrl, ns, E1, "member")
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert flow.producer_edges == {E1: True}
        assert flow.consumer_edges == {E1}
        assert trace.count("JOIN") == 1

    def test_member_role_removal_clears_both_sides(self):
        ctrl, directory, valley, trace, sent = build_controller(STAR_NODES, STAR_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.MMM)
        join(ctrl, ns, E1, "member")
        join(ctrl, ns, E2, "member", host=H2)
        ctrl.handle(RemoveRole(E1, ns.valley_id, ns.id, "room", "member"))
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert flow.producer_edges == {E2: True}
        assert flow.consumer_edges == {E2}


MESH_NODES = {E1: ("edge", "d1"), E2: ("edge", "d1"), E3: ("edge", "d2"),
              E4: ("edge", "d2"), C1: ("connector", "d1"),
              C2: ("connector", "d2")}
MESH_LINKS = {(E1, C1): 1, (E2, C1): 1, (C1, C2): 1, (E3, C2): 1, (E4, C2): 1}


class TestPartitioning:
    def setup_flow(self):
        ctrl, directory, valley, trace, sent = build_controller(MESH_NODES, MESH_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SLSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E2, "consumer", host=H2)
        join(ctrl, ns, E3, "consumer", host=H2)
        join(ctrl, ns, E4, "consumer", host=H2)
        return ctrl, ns, trace, sent

    def test_second_producer_splits_one_partition_per_source(self):
        ctrl, ns, trace, sent = self.setup_flow()
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        initial = flow.current_channel_id
        join(ctrl, ns, E3, "producer", host=H2)
        assert trace.count("PARTITION") == 1
        parts = {p.producer_edge: p for p in flow.partitions}
        assert set(parts) == {E1, E3}
        assert parts[E1].channel_id == initial  # already-active edge keeps it
        assert parts[E3].channel_id > initial

    def test_consumers_balance_and_dual_role_edges_stay_home(self):
        ctrl, ns, trace, sent = self.setup_flow()
        join(ctrl, ns, E3, "producer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        parts = {p.producer_edge: set(p.consumer_edges) for p in flow.partitions}
        assert E3 in parts[E3]  # produces there, consumes there
        assert len(parts[E1]) + len(parts[E3]) == 3
        assert abs(len(parts[E1]) - len(parts[E3])) <= 1

    def test_moved_consumers_get_channel_updates(self):
        ctrl, ns, trace, sent = self.setup_flow()
        sent.clear()
        join(ctrl, ns, E3, "producer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        updates = {d: p for d, p in sent if isinstance(p, ChannelIdUpdate)}
        moved = {p.producer_edge: p for p in flow.partitions}[E3]
        for edge in {moved.producer_edge, *moved.consumer_edges}:
            assert updates[edge].new_channel_id == moved.channel_id

    def test_merge_keeps_lowest_surviving_producer(self):
        ctrl, ns, trace, sent = self.setup_flow()
        join(ctrl, ns, E3, "producer", host=H2)
        join(ctrl, ns, E4, "producer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        dying = {p.producer_edge: p for p in flow.partitions}[E1]
        sent.clear()
        ctrl.handle(RemoveRole(E1, ns.valley_id, ns.id, "room", "producer"))
        assert trace.count("MERGE") == 1
        survivor = {p.producer_edge: p for p in flow.partitions}
        assert set(survivor) == {E3, E4}
        # orphans go to the lowest surviving producer edge
        target = survivor[E3]
        for orphan in dying.consumer_edges:
            if orphan in flow.consumer_edges:
                assert orphan == target.producer_edge \
                    or orphan in target.consumer_edges

    def test_retired_channel_ids_never_return(self):
        ctrl, ns, trace, sent = self.setup_flow()
        join(ctrl, ns, E3, "producer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        dying_cid = {p.producer_edge: p for p in flow.partitions}[E3].channel_id
        ctrl.handle(RemoveRole(E3, ns.valley_id, ns.id, "room", "producer"))
        join(ctrl, ns, E4, "producer", host=H2)
        seen = {p.channel_id for p in flow.partitions}
        assert dying_cid not in seen

    def test_explicit_repartition_keeps_existing_ids(self):
        ctrl, ns, trace, sent = self.setup_flow()
        join(ctrl, ns, E3, "producer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        before = {p.producer_edge: p.channel_id for p in flow.partitions}
        ctrl.partition_flow(flow)
        after = {p.producer_edge: p.channel_id for p in flow.partitions}
        assert after == before


class TestProvisioning:
    def test_requires_registered_edges(self):
        ctrl, *_ = build_controller()
        with pytest.raises(NoEligibleEdge):
            ctrl.provision_host(H1, "alice")

    def test_domain_preference_wins(self):
        ctrl, *_ = build_controller(MESH_NODES, MESH_LINKS)
        assert ctrl.provision_host(H1, "alice",
                                   HostPrefs(preferred_domain="d2")) == E3

    def test_capacity_breaks_ties_then_id(self):
        nodes = {E1: ("edge", "d1", {"compute": 1}),
                 E2: ("edge", "d1", {"compute": 2})}
        ctrl, *_ = build_controller(nodes, {(E1, E2): 1})
        first = ctrl.provision_host(H1, "alice")
        second = ctrl.provision_host(H2, "alice")
        assert first == E2          # more headroom
        assert second == E1         # now tied at 1, lower id wins

    def test_placement_matches_exhaustive_scoring(self):
        nodes = {E1: ("edge", "d1", {"compute": 3}),
                 E2: ("edge", "d1", {"compute": 1}),
                 E3: ("edge", "d2", {"compute": 2}),
                 E4: ("edge", "d3", {"compute": 5})}
        links = {(E1, E2): 2, (E2, E3): 1, (E3, E4): 4}
        prefs = HostPrefs(preferred_domain="d2", max_latency=3)
        ctrl, *_ = build_controller(nodes, links)
        placed = {}
        for i in range(6):
            host = nid(0xE00 + i)
            # oracle: re-derive the winner by brute force over every edge
            def oracle_score(e):
                est = ctrl._domain_distance(e, prefs.preferred_domain)
                meets = (ctrl.graph.nodes[e].domain == "d2") and est <= 3
                rem = ctrl.graph.nodes[e].stats.get("compute", 0) - placed.get(e, 0)
                return (0 if meets else 1, est, -rem, e)
            expect = min((oracle_score(e) for e in [E1, E2, E3, E4]))[3]
            got = ctrl.provision_host(host, "alice", prefs)
            assert got == expect
            placed[got] = placed.get(got, 0) + 1

    def test_placement_under_other_preferences_is_seen(self):
        nodes = {E1: ("edge", "d1", {"compute": 2}),
                 E2: ("edge", "d1", {"compute": 1.5})}
        ctrl, *_ = build_controller(nodes, {(E1, E2): 1})
        near = HostPrefs(preferred_domain="d1", max_latency=5)
        assert ctrl.provision_host(H1, "alice", near) == E1  # 1 vs 1.5 left
        assert ctrl.provision_host(H2, "alice") == E2        # 1 vs 0.5 left
        # E2 tops the first pair's heap with the 1.5 it had then
        assert ctrl.provision_host(nid(0xF3), "alice", near) == E1

    def test_stats_only_reregistration_changes_the_next_pick(self):
        nodes = {E1: ("edge", "d1", {"compute": 1}),
                 E2: ("edge", "d1", {"compute": 3})}
        ctrl, *_ = build_controller(nodes, {(E1, E2): 1})
        assert ctrl.provision_host(H1, "alice") == E2
        # same role, domain and neighbors; only the capacity grows
        ctrl.graph.register(E1, "edge", "d1", {E2: 1}, {"compute": 9})
        assert ctrl.provision_host(H2, "alice") == E1

    def test_large_world_scores_each_edge_once_per_preference_pair(
            self, monkeypatch):
        """16 domains, each of 3 chained connectors with 32 edges of
        compute 4 hung off them, joined in a ring; 2 048 hosts each prefer
        their own domain. A scan of every edge per host scores 1 048 576
        times. The heaps score each edge once per preference pair, then
        twice per host: the check of the top entry and its re-push."""
        domains, connectors, edges, hosts_per_edge = 16, 3, 32, 4
        nodes, links = {}, {}
        for d in range(domains):
            conn = [nid(0x10000 + 0x100 * d + c) for c in range(connectors)]
            for c, y in enumerate(conn):
                nodes[y] = ("connector", f"d{d}")
                if c:
                    links[(conn[c - 1], y)] = 1
            for e in range(edges):
                y = nid(0x20000 + 0x100 * d + e)
                nodes[y] = ("edge", f"d{d}", {"compute": hosts_per_edge})
                links[(y, conn[e % connectors])] = 1
            links[(conn[-1], nid(0x10000 + 0x100 * ((d + 1) % domains)))] = 3
        ctrl, *_ = build_controller(nodes, links)
        calls = 0
        score = Controller._placement_key

        def counted(self, info, prefs):
            nonlocal calls
            calls += 1
            return score(self, info, prefs)

        monkeypatch.setattr(Controller, "_placement_key", counted)
        hosts = domains * edges * hosts_per_edge
        for h in range(hosts):
            prefs = HostPrefs(preferred_domain=f"d{h % domains}")
            edge = ctrl.provision_host(nid(0x30000 + h), "alice", prefs)
            assert ctrl.graph.nodes[edge].domain == prefs.preferred_domain
        assert set(ctrl.placed.values()) == {hosts_per_edge}
        pairs, all_edges = domains, domains * edges
        assert calls <= pairs * all_edges + 2 * hosts


def nearest(graph, start, domain):
    """Reference latency from a node to the closest node of a domain: a
    search from the node itself, over the current links."""
    if domain is None:
        return 0
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if graph.nodes[node].domain == domain:
            return d
        if d > dist[node]:
            continue
        for nb, lat in graph.adjacency[node].items():
            if nb not in dist or d + lat < dist[nb]:
                dist[nb] = d + lat
                heapq.heappush(heap, (d + lat, nb))
    return float("inf")


def scan_pick(graph, placed, prefs):
    """Reference placement: the least score over every registered edge."""
    def score(info):
        est = nearest(graph, info.yni, prefs.preferred_domain)
        meets = (prefs.preferred_domain in (None, info.domain)
                 and (prefs.max_latency is None or est <= prefs.max_latency))
        remaining = info.stats.get("compute", 0.0) - placed.get(info.yni, 0)
        return (0 if meets else 1, est, -remaining, info.yni)
    edges = [info for info in graph.nodes.values() if info.role == "edge"]
    return min(edges, key=score).yni if edges else None


# the first four register before anything else; the last two arrive as
# new nodes when a later step first names them
PLACE_NODES = [nid(0x70 + i) for i in range(6)]
PLACE_FIRST = 4
_compute = st.one_of(st.none(), st.integers(0, 3),
                     st.sampled_from([0.5, 1.25, 2.75]))


@st.composite
def placement_steps(draw):
    """Registrations (new nodes, link changes, new roles), stats-only
    re-registrations and runs of placements, over 1 to 4 domains."""
    domains = [f"d{i}" for i in range(draw(st.integers(1, 4)))]
    node = st.integers(0, len(PLACE_NODES) - 1)

    def register(i):
        return st.tuples(
            st.just("register"), i, st.sampled_from(["edge", "connector"]),
            st.sampled_from(domains),
            st.dictionaries(node, st.integers(1, 3), max_size=3), _compute)

    restat = st.tuples(st.just("stats"), node, _compute)
    # a few preference pairs, so one pair's hosts often land on the edge
    # at the top of another pair's heap
    pairs = draw(st.lists(st.tuples(
        st.sampled_from([None, "nowhere"] + domains),
        st.one_of(st.none(), st.integers(0, 6))), min_size=1, max_size=3))
    place = st.tuples(st.just("place"),
                      st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
    start = [draw(register(st.just(i))) for i in range(PLACE_FIRST)]
    return start + draw(st.lists(st.one_of(register(node), restat, place),
                                 max_size=20))


@settings(max_examples=300, deadline=None)
@given(placement_steps())
def test_placement_matches_a_scan_of_every_edge(steps):
    """The placement heaps pick what a scan of every edge picks, however
    placements and registrations made straight on the graph interleave."""
    ctrl, *_ = build_controller()
    g = ctrl.graph
    placed = {}
    hosts = map(nid, itertools.count(0xE00))
    for op, *args in steps:
        if op == "register":
            i, role, domain, decl, compute = args
            stats = None if compute is None else {"compute": compute}
            g.register(PLACE_NODES[i], role, domain,
                       {PLACE_NODES[m]: lat for m, lat in decl.items()}, stats)
        elif op == "stats":
            i, compute = args
            y = PLACE_NODES[i]
            if y in g.nodes:
                stats = {} if compute is None else {"compute": compute}
                g.register(y, g.nodes[y].role, g.nodes[y].domain,
                           g.declared[y], stats)
        else:
            for pair in args[0]:
                prefs = HostPrefs(*pair)
                host = next(hosts)
                expect = scan_pick(g, placed, prefs)
                if expect is None:
                    with pytest.raises(NoEligibleEdge):
                        ctrl.provision_host(host, "alice", prefs)
                    continue
                assert ctrl.provision_host(host, "alice", prefs) == expect
                placed[expect] = placed.get(expect, 0) + 1


class TestDerivedChannels:
    def test_connector_subgraph_comes_from_adverts(self):
        ctrl, directory, valley, trace, sent = build_controller(MESH_NODES, MESH_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        join(ctrl, ns, E3, "consumer", host=H2)
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        (channel,) = ctrl.channels(flow)
        assert channel.source_type == "single"
        assert channel.producer_edges == (E1,)
        assert channel.consumer_edges == (E3,)
        assert channel.connectors == (C1, C2)

    def test_no_channel_until_distinct_consumer_exists(self):
        ctrl, directory, valley, trace, sent = build_controller(MESH_NODES, MESH_LINKS)
        ns = make_namespace(directory, valley, ServiceModel.SSM)
        join(ctrl, ns, E1, "producer")
        flow = ctrl.flow(ns.valley_id, ns.id, "room")
        assert ctrl.channels(flow) == []
        join(ctrl, ns, E1, "consumer")  # same edge: still no distinct pair
        assert ctrl.channels(flow) == []


class FullReconcile(Controller):
    """Reference: every registration reconciles every flow, in flow order."""

    def register_infrastructure_node(self, yni, role, domain, neighbors,
                                     stats=None):
        self.graph.register(yni, role, domain, neighbors, stats)
        for key in sorted(self.flows):
            self.reconcile(self.flows[key])


# nodes 0-3 are edges and 4-8 connectors; each edge hangs off the ring of
# connectors 4-6 to begin with, and 7 and 8 register only when a step first
# names them, so they arrive as new nodes
CHURN_NODES = [nid(0x50 + i) for i in range(9)]
CHURN_EDGES = range(4)
CHURN_LATE = (7, 8)
CHURN_BASE = {(0, 4): 2, (1, 5): 2, (2, 6): 2, (3, 4): 2,
              (4, 5): 1, (5, 6): 1, (6, 4): 1}
# SSM holds second producers (precomputed trees), SLSM partitions, MSM
# runs one tree per producer; two communities each
CHURN_MODELS = (ServiceModel.SSM, ServiceModel.SLSM, ServiceModel.MSM)
CHURN_FLOWS = [(m, c) for m in range(len(CHURN_MODELS)) for c in ("r1", "r2")]

_node = st.integers(0, len(CHURN_NODES) - 1)
_lat = st.integers(1, 3)
_edge = st.sampled_from(CHURN_EDGES)
_flow = st.integers(0, len(CHURN_FLOWS) - 1)
_role = st.sampled_from(["producer", "consumer"])
_join = st.tuples(st.just("join"), _edge, _flow, _role)
churn_steps = st.lists(st.one_of(
    _join,
    st.tuples(st.just("leave"), _edge, _flow, _role),
    # both ends declare the link, a first: one link added when b
    # registers, or a latency change
    st.tuples(st.just("link"), _node, _node, _lat),
    # both ends drop it, a first: one link removed
    st.tuples(st.just("unlink"), _node, _node),
    # the node declares no neighbor: all its links removed
    st.tuples(st.just("cut"), _node),
    # each named neighbor declares the node, then the node declares them
    # all and no other: several links added and removed at once
    st.tuples(st.just("declare"), _node,
              st.dictionaries(_node, _lat, max_size=4)),
), min_size=1, max_size=30)
# links beside the base ones, and the joins made before the first step
churn_start = st.tuples(
    st.dictionaries(st.tuples(st.integers(0, 6), _node), _lat, max_size=8),
    st.lists(_join, min_size=4, max_size=16))


@settings(max_examples=300, deadline=None)
@given(churn_start, churn_steps)
# e0's tree reaches e2 over e0-c4-c6-e2 at (3 hops, latency 5); a link e2-e3
# of latency 1 opens e0-c4-e3-e2 at the same cost through the lower id e3,
# made from either end
@example(({}, [("join", 0, 0, "producer"), ("join", 2, 0, "consumer")]),
         [("link", 2, 3, 1)])
@example(({}, [("join", 0, 0, "producer"), ("join", 2, 0, "consumer")]),
         [("link", 3, 2, 1)])
def test_registration_reconciles_as_if_every_flow_were(start, steps):
    """Joins, withdrawals and registrations fed to the controller and to a
    full-reconcile reference leave the same trace, the same messages sent
    and the same advertised and precomputed trees after every step."""
    sides = [build_controller(cls=cls) for cls in (Controller, FullReconcile)]
    namespaces = [[directory.create_namespace("alice", valley.name, model.value,
                                              Visibility.OPEN, model)
                   for _, directory, valley, _, _ in sides]
                  for model in CHURN_MODELS]

    def same():
        (real, _, _, real_trace, real_sent), (ref, _, _, ref_trace, ref_sent) \
            = sides
        assert real_trace.text() == ref_trace.text()
        assert real_sent == ref_sent
        assert real.flows.keys() == ref.flows.keys()
        for key, flow in real.flows.items():
            assert flow.advertised == ref.flows[key].advertised
            assert flow.precomputed == ref.flows[key].precomputed

    def register(i):
        for ctrl, *_ in sides:
            ctrl.register_infrastructure_node(
                CHURN_NODES[i], "edge" if i in CHURN_EDGES else "connector",
                "d", {CHURN_NODES[m]: lat for m, lat in declared[i].items()})
        same()

    # the starting links; a declaration of a late node waits for it
    links, joins = start
    declared = {i: {} for i in range(len(CHURN_NODES))}
    for (a, b), lat in {**CHURN_BASE, **links}.items():
        if a != b:
            declared[a][b] = lat
            if b not in CHURN_LATE:
                declared[b][a] = lat
    for i in range(7):
        register(i)
    for verb, *args in joins + steps:
        if verb in ("join", "leave"):
            edge, f, role = args
            model, community = CHURN_FLOWS[f]
            for (ctrl, *_), ns in zip(sides, namespaces[model]):
                if verb == "join":
                    join(ctrl, ns, CHURN_NODES[edge], role, community=community)
                elif (ns.valley_id, ns.id, community) in ctrl.flows:
                    ctrl.handle(RemoveRole(CHURN_NODES[edge], ns.valley_id,
                                           ns.id, community, role))
            same()
        elif verb == "cut":
            declared[args[0]] = {}
            register(args[0])
        elif verb == "declare":
            n, new = args[0], {m: lat for m, lat in args[1].items()
                               if m != args[0]}
            for m, lat in new.items():
                declared[m][n] = lat
                register(m)
            declared[n] = new
            register(n)
        elif args[0] != args[1]:
            a, b = args[:2]
            for x, y in ((a, b), (b, a)):
                if verb == "link":
                    declared[x][y] = args[2]
                else:
                    declared[x].pop(y, None)
                register(x)
