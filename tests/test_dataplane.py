"""Node state machine tests, each on a `Simulation` built from a few lines of
world text and stepped by raising `config.until` (tests/textworld.py).

A test asserts what a run shows: trace lines, report counters and the
nodes' tables between steps. Malformed input (a mis-rooted tree, bad
metadata, an unknown channel or kind, a foreign-rooted advertisement, a
forged sender) is hand-crafted and handed to the node between steps, or
sent to it over the wire with `Simulation.transmit`. The op codec, the
strategy table and its reference `plan` and `route` are tested as pure
functions.
"""

import inspect
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yodel.codec import (FloatingHeader, MessageKind, PathTree, YodelMessage,
                         encode)
from yodel.control import (CONTROLLER_YNI, ChannelIdUpdate, PathAdvertisement,
                           RemoveRole)
from yodel.dataplane import (
    AcTable,
    ConnectorNode,
    NodeEnv,
    OP_CHANNEL_UPDATE,
    OP_HELLO,
    OP_HELLO_ACK,
    OP_HOST_CONSUMER_LOCK,
    OP_JOIN_REPLY,
    OP_JOIN_REQUEST,
    OP_UNLOCK_PRODUCER,
    data_metadata,
    op_channel_update,
    op_hello,
    op_hello_ack,
    op_host_consumer_lock,
    op_join_reply,
    op_join_request,
    op_unlock_producer,
    op_withdraw,
    parse_data_metadata,
    parse_op,
)
from yodel.errors import (
    MalformedFloating,
    ServiceForbidsSelfLock,
    UncoverableNeighbor,
)
from yodel.services import ServiceModel
from yodel.ynid import Yni

import test_replay_golden as golden
from textworld import build_text, step


def nid(n: int) -> Yni:
    return Yni(n.to_bytes(6, "big"), 0)


H1 = nid(0xF1)
H2 = nid(0xF2)
H3 = nid(0xF3)
STRANGER = nid(0xB1)    # an id no node of any world below has

ONE_EDGE = """\
domain d
node e1 edge d
host h1 alice
host h2 alice
host h3 alice
"""

# e1 -- c1 -- e2 -- e3: e2 is the only edge of d2, so h2 and h3 sit there
LINE = """\
domain d1
domain d2
domain d3
node e1 edge d1
node c1 connector d2
node e2 edge d2
node e3 edge d3
link e1 c1 1
link c1 e2 1
link e2 e3 1
host h1 alice domain=d1
host h2 alice domain=d2
host h3 alice domain=d2
host h4 alice domain=d3
"""

# c1 fans out to e2 and e3; h2 and h3 are placed one on each
FORK = """\
domain d1
domain d2
node e1 edge d1
node c1 connector d2
node e2 edge d2
node e3 edge d2
link e1 c1 1
link c1 e2 1
link c1 e3 1
host h1 alice domain=d1
host h2 alice domain=d2
host h3 alice domain=d2
"""

# h1 produces, h2 consumes; both replies have landed by tick 6
JOINED = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
"""

# JOINED plus a second consumer, h3
TRIO = JOINED + "at 2 join h3 vale chat room consumer 1\n"

# twin sweeps run at 5, 10, ...: h2 misses those at 10, 15 and 20, and its
# twin goes active at 20
AWAY = "at 8 fault host-down h2\n"

# h3 on e2 waits on hold as producer behind h1 on e1; the split at 30 gives
# e2 a channel of its own
SPLIT = """\
at 2 join h1 vale chat room producer 1
at 2 join h3 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 30 partition-now vale chat room
"""

ROOM = (1, 1, "room")   # an edge's row key: (valley, namespace, community)


def record(sim, host, community="room"):
    """The host's record of `community` in namespace chat of vale."""
    return sim.hosts[host].communities[(1, 1, community)]


def producer(sim, host, app):
    return record(sim, host).producers[app]


def consumer(sim, host, app):
    return record(sim, host).consumers[app]


def consumer_apps(host):
    """Each of the host's records by community name: its consumer apps, in
    the record's order."""
    return {name: list(rec.consumers)
            for (_, _, name), rec in host.communities.items()}


def world(body, model="ssm", topo=ONE_EDGE, seed=1, until=None):
    """`topo` with valley vale, whose namespace chat runs `model`, under the
    config and `at` lines of `body`; run to `until` if given."""
    sim = build_text(topo, "at 0 valley alice vale\n"
                     f"at 1 namespace alice vale chat {model}\n" + body, seed)
    return sim if until is None else step(sim, until)


def send_lines(count, first, host="h1"):
    """`count` send lines of `host`, one a tick from `first`, with payloads
    m0, m1, ..."""
    return "".join(f"at {first + i} send {host} vale room 1 m{i}\n"
                   for i in range(count))


def row(sim, edge="e1"):
    return sim.edges[edge].rows[ROOM]


def delivered(sim, label):
    """(app, serial) of each DELIVER line `label` emitted, in order.
    `Simulation` numbers data sends from 1, so a world's n-th send has
    serial n."""
    return [(int(f["app"]), int(f["serial"])) for f in
            (dict(r.fields) for r in sim.trace.select("DELIVER", n=label))]


def sent_to(sim, label, kind):
    """The `to` of each SEND line `label` emitted for a copy of `kind`."""
    return [dict(r.fields)["to"]
            for r in sim.trace.select("SEND", n=label, k=kind)]


def serial_of(msg):
    return parse_data_metadata(msg.kind, msg.floating.metadata)[0]


def watch_data(host):
    """The data messages `host` receives from now on, in order; each is
    handled as before."""
    seen = []
    handle = host.on_message

    def on_message(msg, meta=None, tree=None):
        if msg.kind is not MessageKind.CONTROL_YPP:
            seen.append(msg)
        handle(msg, meta, tree)
    host.on_message = on_message
    return seen


def roles_removed(sim):
    return [dict(r.fields)["role"] for r in sim.trace.select("ROLE_REMOVED")]


def data(kind, sender, receiver, channel, metadata):
    """A data message; a sync copy's tree goes beside it, to `on_message`
    or `transmit`."""
    return YodelMessage(kind, sender, receiver,
                        FloatingHeader(valley_id=1, channel_id=channel,
                                       metadata=metadata),
                        b"p")


def test_simulation_provides_every_node_env_member():
    methods = [name for name in vars(NodeEnv) if not name.startswith("_")]
    assert {"host_attached", "label_of"} <= set(methods)
    assert "config" in NodeEnv.__annotations__
    sim = world("")
    for name in NodeEnv.__annotations__:
        assert hasattr(sim, name), name
    for name in methods:
        declared = list(inspect.signature(getattr(NodeEnv, name))
                        .parameters)[1:]
        given = list(inspect.signature(getattr(sim, name)).parameters)
        assert given == declared, name


# ---------------------------------------------------------------------------
# op and metadata codecs


class TestOps:
    def test_join_request_round_trip(self):
        got = parse_op(op_join_request("producer", "room", ttl=44))
        assert got == {"op": OP_JOIN_REQUEST, "role": "producer",
                       "ttl": 44, "community": "room"}

    def test_join_request_no_ttl(self):
        assert parse_op(op_join_request("member", "room"))["ttl"] is None

    def test_join_reply_round_trip(self):
        raw = op_join_reply("consumer", "room", lock_host=True,
                            model=ServiceModel.SLAC, randomized=True, q=1234)
        got = parse_op(raw)
        assert got["op"] == OP_JOIN_REPLY
        assert got["role"] == "consumer"
        assert got["lock_host"] is True
        assert got["randomized"] is True
        assert got["model"] is ServiceModel.SLAC
        assert got["q"] == 1234
        assert got["community"] == "room"

    def test_withdraw_and_locks(self):
        assert parse_op(op_withdraw("producer", "x"))["role"] == "producer"
        assert parse_op(op_unlock_producer("x")) == {
            "op": OP_UNLOCK_PRODUCER, "community": "x"}
        assert parse_op(op_hello())["op"] == OP_HELLO
        assert parse_op(op_hello_ack())["op"] == OP_HELLO_ACK

    def test_channel_update_round_trip(self):
        got = parse_op(op_channel_update("room"))
        assert got == {"op": OP_CHANNEL_UPDATE, "community": "room"}

    def test_host_consumer_lock(self):
        got = parse_op(op_host_consumer_lock("room", locked=True))
        assert got == {"op": OP_HOST_CONSUMER_LOCK, "locked": True,
                       "community": "room"}

    def test_rejects_empty_and_unknown(self):
        with pytest.raises(MalformedFloating):
            parse_op(b"")
        with pytest.raises(MalformedFloating):
            parse_op(b"\xee rest")
        # 0x04 was a producer lock that no node sent
        with pytest.raises(MalformedFloating, match="unknown op byte 0x04"):
            parse_op(b"\x04room")

    def test_data_metadata(self):
        assert parse_data_metadata(MessageKind.DATA_YPP,
                                   data_metadata(9)) == (9, None)
        assert parse_data_metadata(MessageKind.ANYCAST_DATA_YPP,
                                   data_metadata(9, 500)) == (9, 500)
        with pytest.raises(MalformedFloating):
            parse_data_metadata(MessageKind.DATA_YPP, b"\x01")
        with pytest.raises(MalformedFloating):
            parse_data_metadata(MessageKind.ANYCAST_DATA_YPP, None)


# ---------------------------------------------------------------------------
# strategy table


class TestAcTable:
    def test_unicast_only_one_per_neighbor(self):
        t = AcTable()
        for y in (H1, H2, H3):
            t.add_neighbor(y, 1)
        plan = t.plan([H1, H2, H3])
        assert len(plan) == 3
        assert all(s.kind == "unicast" for s, _ in plan)

    def test_group_covers_in_one(self):
        t = AcTable()
        for y in (H1, H2, H3):
            t.add_neighbor(y, 1)
        t.add_group([H1, H2, H3], 1)
        plan = t.plan([H1, H2, H3])
        assert len(plan) == 1
        assert plan[0][0].kind == "local-multicast"
        assert plan[0][1] == {H1, H2, H3}

    def test_greedy_mix(self):
        t = AcTable()
        for y in (H1, H2, H3):
            t.add_neighbor(y, 1)
        t.add_group([H1, H2], 1)
        plan = t.plan([H1, H2, H3])
        kinds = sorted(s.kind for s, _ in plan)
        assert kinds == ["local-multicast", "unicast"]
        covered = [c for s, c in plan if s.kind == "unicast"]
        assert covered == [frozenset((H3,))]

    def test_disjoint_coverage(self):
        t = AcTable()
        for y in (H1, H2, H3):
            t.add_neighbor(y, 1)
        t.add_group([H1, H2], 1)
        t.add_group([H2, H3], 1)
        plan = t.plan([H1, H2, H3])
        seen = set()
        for _, covered in plan:
            assert not (covered & seen)
            seen |= covered
        assert seen == {H1, H2, H3}

    def test_latency_breaks_ties(self):
        t = AcTable()
        t.add_neighbor(H1, 5)
        fast = AcTable()
        fast.add_neighbor(H1, 5)
        fast.add_neighbor(H1, 1)
        plan = fast.plan([H1])
        assert plan[0][0].latency == 1

    def test_uncoverable_raises(self):
        t = AcTable()
        t.add_neighbor(H1, 1)
        with pytest.raises(UncoverableNeighbor) as e:
            t.plan([H1, H2])
        assert e.value.neighbors == (H2,)

    def test_group_strategy_shared_by_member_rows(self):
        t = AcTable()
        for y in (H1, H2, H3):
            t.add_neighbor(y, 1)
        t.add_group([H1, H2, H3], 1)
        (group,) = [s for s in t.rows[H1] if s.kind == "local-multicast"]
        for y in (H2, H3):
            assert [s for s in t.rows[y] if s.kind == "local-multicast"] \
                == [group]
        assert t.plan([H1, H2, H3]) == [(group, frozenset((H1, H2, H3)))]

    def test_group_needs_two_members(self):
        t = AcTable()
        with pytest.raises(ValueError):
            t.add_group([H1], 1)

    def test_route_follows_table_changes(self):
        t = AcTable()
        t.add_neighbor(H1, 1)
        assert t.route((H2, H1)) == ((H2,), ((False, (1,)),))
        t.add_neighbor(H2, 1)
        assert t.route((H2, H1)) == ((), ((False, (1,)), (False, (0,))))
        t.add_group([H1, H2], 1)
        assert t.route((H2, H1)) == ((), ((True, (0, 1)),))


def reference_plan(table: AcTable, required) -> list:
    """The greedy cover as first written: every round re-collects the
    candidates over the sorted uncovered ids, keys them by 10-byte strings
    and sorts the whole list."""
    uncovered = set(required)
    missing = sorted(y for y in uncovered if y not in table.rows)
    if missing:
        raise UncoverableNeighbor(missing)
    plan = []
    while uncovered:
        candidates = []
        seen: set[int] = set()
        for neighbor in sorted(uncovered):
            for s in table.rows[neighbor]:
                if id(s) in seen:
                    continue
                seen.add(id(s))
                gain = s.covers & uncovered
                candidates.append(
                    ((-len(gain), s.latency, min(gain).to_bytes(), s.kind,
                      tuple(sorted(y.to_bytes() for y in s.covers))),
                     s, frozenset(gain)))
        candidates.sort(key=lambda c: c[0])
        _, strategy, gain = candidates[0]
        plan.append((strategy, gain))
        uncovered -= gain
    return plan


# ids that differ in the MAC half, the time half, or both
_PLAN_IDS = [Yni(bytes([0, 0, 0, 0, 0, m]), t)
             for m in (1, 2, 0xF0) for t in (0, 7, 2**32 - 1)]


@st.composite
def strategy_tables(draw):
    """Rows for an AcTable over 2-7 neighbors, in insertion order: one or
    two unicast rows each (latency 1-3) and up to five possibly overlapping
    groups of 2-4 members; plus the required ids to plan for."""
    neighbors = draw(st.lists(st.sampled_from(_PLAN_IDS), min_size=2,
                              max_size=7, unique=True))
    latency = st.integers(1, 3)
    rows = [("unicast", (y,), draw(latency)) for y in neighbors
            for _ in range(draw(st.integers(1, 2)))]
    groups = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(neighbors), min_size=2,
                           max_size=4, unique=True), latency),
        max_size=5))
    rows += [("local-multicast", tuple(members), lat) for members, lat in groups]
    required = draw(st.lists(st.sampled_from(neighbors), unique=True))
    return draw(st.permutations(rows)), required


def table_of(rows) -> AcTable:
    table = AcTable()
    for kind, members, latency in rows:
        if kind == "unicast":
            table.add_neighbor(members[0], latency)
        else:
            table.add_group(members, latency)
    return table


@given(strategy_tables())
@settings(max_examples=400, deadline=None)
def test_plan_matches_reference(case):
    rows, required = case
    table = table_of(rows)
    got = table.plan(required)
    want = reference_plan(table, required)
    assert len(got) == len(want)
    for (s, gain), (ref_s, ref_gain) in zip(got, want):
        assert s is ref_s and gain == ref_gain


def reference_route(table: AcTable, children) -> tuple:
    """The split `Node.strategic_send` made on every call before routes
    were memoised: children with a row go to `plan`, each strategy's batch
    keeps them in input order, and the rest are dropped in id order."""
    routed, unrouted = [], set()
    for i, y in enumerate(children):
        if y in table.rows:
            routed.append((i, y))
        else:
            unrouted.add(y)
    batches = []
    if routed:
        for strategy, covered in table.plan(y for _, y in routed):
            batches.append((strategy.kind == "local-multicast",
                            tuple(i for i, y in routed if y in covered)))
    return tuple(sorted(unrouted)), tuple(batches)


@given(strategy_tables(), st.lists(st.sampled_from(_PLAN_IDS), max_size=8))
@settings(max_examples=400, deadline=None)
def test_route_matches_reference(case, children):
    """Children are drawn from every test id, so some have no row and some
    repeat; the second call reads the memo."""
    table = table_of(case[0])
    children = tuple(children)
    want = reference_route(table, children)
    assert table.route(children) == want
    assert table.route(children) == want


# ---------------------------------------------------------------------------
# host behavior


class TestHostNode:
    def test_join_request_goes_to_edge(self):
        sim = world("at 2 join h1 vale chat room producer 4 ttl=9\n", until=6)
        h1, e1 = sim.nodes["h1"].yni, sim.nodes["e1"].yni
        assert "t=2 n=h1 ev=SEND to=e1 k=CONTROL_YPP" in sim.trace.lines()
        (join,) = sim.trace.select("JOIN")
        assert dict(join.fields) == {
            "edge": str(e1), "valley": "1", "ns": "1", "community": "room",
            "role": "producer", "host": str(h1), "app": "4"}
        assert (h1, 4) in row(sim).producer_apps
        # the reply lands at 6: the row lives 9 ticks from there
        assert producer(sim, "h1", 4).timer == 6 + 9

    def test_join_reply_installs_rows(self):
        # h3's producer join is answered from e1's cache with a host lock
        sim = world(JOINED + "at 8 join h3 vale chat room producer 1\n",
                    until=12)
        channel = row(sim).channel_id
        rec = record(sim, "h3")
        assert rec.producers[1].locked and rec.channel_id == channel
        assert sim.hosts["h3"].by_channel == {(1, channel): rec}

    def test_member_reply_fills_both_tables(self):
        sim = world("at 2 join h1 vale chat room member 1\n", model="mmm",
                    until=6)
        rec = record(sim, "h1")
        assert list(rec.producers) == list(rec.consumers) == [1]

    def test_send_without_registration_drops(self):
        sim = world("at 2 send h1 vale room 1 x\n", until=4)
        assert sim.trace.count("DROP", n="h1", reason="no_registration") == 1

    def test_locked_producer_drops(self):
        sim = world(JOINED + "at 8 join h3 vale chat room producer 1\n"
                    "at 12 send h3 vale room 1 x\n", until=14)
        assert sim.trace.count("DROP", n="h3", reason="producer_locked") == 1
        assert sim.trace.count("SEND", k="DATA_YPP") == 0

    def test_send_reaches_edge_and_local_consumer(self):
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 2 join h1 vale chat room consumer 2\n"
                    "at 10 send h1 vale room 1 hi\n", until=14)
        # one copy on the wire, of the plain kind: its metadata is the
        # serial alone, or the SEND line could not print it
        assert sent_to(sim, "h1", "DATA_YPP") == ["e1"]
        assert "t=10 n=h1 ev=SEND to=e1 k=DATA_YPP serial=1" \
            in sim.trace.lines()
        assert delivered(sim, "h1") == [(2, 1)]

    def test_no_echo_to_sending_member(self):
        sim = world("at 2 join h1 vale chat room member 1\n"
                    "at 10 send h1 vale room 1 hi\n", model="mmm", until=14)
        assert sent_to(sim, "h1", "DATA_YPP") == ["e1"]
        assert delivered(sim, "h1") == []

    def test_randomized_send_uses_anycast_kind(self):
        # h2 is away, so e1 buffers the copies its draw keeps for h2 as
        # they came off the wire: each carries h1's q, 0.45777 * 65535
        sim = world(JOINED + AWAY + send_lines(8, 21),
                    model="ac randomized=on q=0.45777", until=30)
        assert sent_to(sim, "h1", "ANYCAST_DATA_YPP") == ["e1"] * 8
        assert sent_to(sim, "h1", "DATA_YPP") == []
        buffered = sim.edges["e1"].twin.records[sim.nodes["h2"].yni].buffer
        assert buffered
        for msg, meta in buffered:
            assert msg.kind is MessageKind.ANYCAST_DATA_YPP
            _, q = parse_data_metadata(msg.kind, msg.floating.metadata)
            assert q == 30000
            assert meta == (serial_of(msg), q)

    def test_incoming_data_delivers_all_unlocked(self):
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 2 join h2 vale chat room consumer 1\n"
                    "at 2 join h2 vale chat room consumer 2\n"
                    "at 8 lock h2 vale room 2\n"
                    "at 10 send h1 vale room 1 d\n", model="slac", until=14)
        assert delivered(sim, "h2") == [(1, 1)]

    def test_unknown_channel_drops(self):
        sim = world("", until=2)
        sim.hosts["h1"].on_message(data(
            MessageKind.DATA_YPP, sim.nodes["e1"].yni, sim.nodes["h1"].yni,
            999, data_metadata(1)))
        assert sim.trace.count("DROP", n="h1", reason="unknown_channel") == 1

    def test_anycast_incoming_picks_one_app(self):
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 2 join h2 vale chat room consumer 1\n"
                    "at 2 join h2 vale chat room consumer 2\n"
                    "at 2 join h2 vale chat room consumer 3\n"
                    "at 10 send h1 vale room 1 d\n",
                    model="ac randomized=on q=1", until=14)
        assert sim.trace.count("RECV", n="h2", k="ANYCAST_DATA_YPP") == 1
        assert len(delivered(sim, "h2")) == 1

    def test_self_lock_needs_anycast_family(self):
        sim = world(JOINED, until=6)
        with pytest.raises(ServiceForbidsSelfLock):
            sim.hosts["h2"].set_consumer_lock(1, "room", 1, True)

    def test_all_locked_sends_host_lock_op(self):
        # the op's flag takes effect in e1's per-community lock table: one
        # line per op, LOCK only while every app of h2 is locked
        sim = world(JOINED + "at 2 join h2 vale chat room consumer 2\n"
                    "at 10 lock h2 vale room 1\n"
                    "at 20 lock h2 vale room 2\n"
                    "at 30 unlock h2 vale room 1\n", model="ac", until=25)
        h2 = sim.nodes["h2"].yni
        assert row(sim).locked_hosts == {h2}
        step(sim, 35)
        assert row(sim).locked_hosts == set()
        pct = [(r.tick, r.event) for r in sim.trace.records
               if r.node == "e1" and ("table", "pct") in r.fields]
        assert pct == [(11, "UNLOCK"), (21, "LOCK"), (31, "UNLOCK")]

    def test_ttl_expires_registration(self):
        # the reply lands at 6, so the row lives through tick 11
        sim = world("at 2 join h1 vale chat room producer 1 ttl=5\n"
                    "at 11 send h1 vale room 1 x\n"
                    "at 12 send h1 vale room 1 x\n", until=14)
        assert record(sim, "h1").producers == {}
        assert [line for line in sim.trace.lines()
                if line.startswith(("t=11 n=h1", "t=12 n=h1"))] == [
            "t=11 n=h1 ev=SEND k=data community=room app=1 serial=1",
            "t=11 n=h1 ev=SEND to=e1 k=DATA_YPP serial=1",
            "t=12 n=h1 ev=EXPIRE community=room app=1",
            "t=12 n=h1 ev=DROP reason=no_registration community=room"]
        assert sim.trace.count("EXPIRE") == 1

    def test_delivery_reads_one_community_in_app_order(self):
        # h2's room apps join as 3, 1, 2, and 3 and 1 lapse together; so
        # does its hall consumer, which room's delivery leaves alone until
        # h2's own hall send delivers in the host
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 2 join h2 vale chat room consumer 3 ttl=5\n"
                    "at 2 join h2 vale chat hall producer 9\n"
                    "at 2 join h2 vale chat hall consumer 4 ttl=5\n"
                    "at 3 join h2 vale chat room consumer 1 ttl=5\n"
                    "at 3 join h2 vale chat room consumer 2\n"
                    "at 20 send h1 vale room 1 x\n"
                    "at 30 send h2 vale hall 9 y\n", until=25)
        h2 = sim.hosts["h2"]
        assert consumer_apps(h2) == {"room": [2], "hall": [4]}
        step(sim, 35)
        assert [line for line in sim.trace.lines()
                if line.startswith(("t=22 n=h2", "t=30 n=h2"))] == [
            "t=22 n=h2 ev=RECV from=e1 k=DATA_YPP serial=1",
            "t=22 n=h2 ev=EXPIRE community=room app=1",
            "t=22 n=h2 ev=EXPIRE community=room app=3",
            "t=22 n=h2 ev=DELIVER app=2 community=room serial=1",
            "t=30 n=h2 ev=SEND k=data community=hall app=9 serial=2",
            "t=30 n=h2 ev=EXPIRE community=hall app=4",
            "t=30 n=h2 ev=SEND to=e1 k=DATA_YPP serial=2"]
        assert consumer_apps(h2) == {"room": [2], "hall": []}

    def test_rejoin_renews_the_registration_ttl(self):
        # a re-join answered at 10 renews h2's row to 110 and clears h3's
        # timer; the resync reply after h2's return at 31 answers no join
        # and leaves the timer as it is
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 2 join h2 vale chat room consumer 1 ttl=10\n"
                    "at 2 join h3 vale chat room consumer 1 ttl=10\n"
                    "at 8 join h2 vale chat room consumer 1 ttl=100\n"
                    "at 8 join h3 vale chat room consumer 1\n"
                    "at 20 send h1 vale room 1 still here\n"
                    "at 30 fault host-down h2\n"
                    "at 31 fault host-up h2\n", until=40)
        assert sim.trace.count("EXPIRE") == 0
        assert delivered(sim, "h2") == delivered(sim, "h3") == [(1, 1)]
        assert consumer(sim, "h2", 1).timer == 110
        assert consumer(sim, "h3", 1).timer is None

    def test_channel_update_rekeys(self):
        sim = world(SPLIT, model="slsm partition=manual", topo=LINE,
                    until=29)
        old = row(sim, "e2").channel_id
        step(sim, 34)
        new = row(sim, "e2").channel_id
        assert new != old
        rec = record(sim, "h2")
        assert sim.hosts["h2"].by_channel == {(1, new): rec}
        assert rec.channel_id == new

    def test_resync_replaces_a_channel_missed_while_away(self):
        # h2 is away when the split at 30 moves room to channel 2, so the
        # update is lost; the resync after its return drops channel 1
        sim = world(SPLIT + AWAY + "at 40 fault host-up h2\n",
                    model="slsm partition=manual", topo=LINE, until=50)
        assert row(sim, "e2").channel_id == 2
        rec = record(sim, "h2")
        assert sim.hosts["h2"].by_channel == {(1, 2): rec}
        assert rec.channel_id == 2

    def test_gate_holds_sends_until_ack(self):
        # h1 returns at 9 and says hello; its send of that tick waits for
        # the ack, which lands at 11
        sim = world(JOINED + "at 8 fault host-down h1\n"
                    "at 9 fault host-up h1\n"
                    "at 9 send h1 vale room 1 queued\n", until=10)
        assert sim.hosts["h1"].gated
        assert "t=9 n=h1 ev=SEND to=e1 k=CONTROL_YPP" in sim.trace.lines()
        assert sim.trace.count("SEND", n="h1", k="DATA_YPP") == 0
        step(sim, 14)
        assert not sim.hosts["h1"].gated
        assert [r.tick for r in sim.trace.select("SEND", n="h1",
                                                  k="DATA_YPP")] == [11]
        assert delivered(sim, "h2") == [(1, 1)]

    def test_empty_control_message_is_a_proto_error(self):
        sim = world(JOINED, until=8)
        before = len(sim.trace)
        sim.hosts["h1"].on_message(YodelMessage(
            MessageKind.CONTROL_YPP, sim.nodes["e1"].yni, sim.nodes["h1"].yni,
            FloatingHeader()))
        assert sim.metrics.proto_errors == 1
        assert sim.trace.lines()[before:] == [
            f"t={sim.now()} n=h1 ev=PROTO_ERROR reason=empty op payload"]


# ---------------------------------------------------------------------------
# edge behavior


# the apps of h2 that consume in each namespace: no app joins one community
# name in two namespaces, which `validate` rejects
CONSUMER_APPS = {"chat": (1, 2), "talk": (3, 4)}
NAMESPACE_OF = {app: ns for ns, apps in CONSUMER_APPS.items() for app in apps}
# each sender (host, app) and the namespace it produces in
SENDERS = {("h1", 1): "chat", ("h1", 2): "talk", ("h2", 9): "chat"}

# (ticks after the op before, op); a join's reply lands 4 ticks after it
CONSUMER_OPS = st.lists(st.tuples(st.integers(1, 6), st.one_of(
    st.tuples(st.just("join"), st.sampled_from(["room", "hall"]),
              st.integers(1, 4), st.one_of(st.none(), st.integers(1, 8))),
    st.tuples(st.sampled_from(["withdraw", "lock", "unlock"]),
              st.sampled_from(["room", "hall"]), st.integers(1, 4)),
    st.tuples(st.just("send"), st.sampled_from(["h1 vale room 1",
                                                "h1 vale room 2",
                                                "h1 vale hall 2",
                                                "h2 vale hall 9"])))),
    max_size=16)


@given(CONSUMER_OPS)
@settings(max_examples=150, deadline=None)
def test_consumer_rows_live_in_their_namespace_record(ops):
    """Namespaces chat and talk both hold communities room and hall. h2's
    consumer apps, 1 and 2 in chat and 3 and 4 in talk, join (with and
    without a ttl, and again), withdraw, lapse, lock and unlock while h1
    sends in both namespaces and h2 in one. After every tick, each of h2's
    records keeps its consumer rows in app order, holds only apps of its
    own namespace and is the one its channel maps to; its live rows are
    its unexpired unlocked rows, with the same rows left behind. At the
    end, every delivery at h2 is to an app of the send's namespace."""
    lines = ["at 1 namespace alice vale talk ac\n",
             "at 2 join h1 vale chat room producer 1\n",
             "at 2 join h1 vale chat hall producer 1\n",
             "at 2 join h1 vale talk room producer 2\n",
             "at 2 join h1 vale talk hall producer 2\n",
             "at 2 join h2 vale chat hall producer 9\n"]
    tick = 2
    for gap, op in ops:
        tick += gap
        at = f"at {tick} "
        if op[0] == "send":
            lines.append(f"{at}send {op[1]} x\n")
            continue
        ns = NAMESPACE_OF[op[2]]
        if op[0] == "join":
            _, community, app, ttl = op
            lines.append(f"{at}join h2 vale {ns} {community} consumer {app}"
                         + (f" ttl={ttl}" if ttl else "") + "\n")
        elif op[0] == "withdraw":
            lines.append(f"{at}withdraw h2 vale {ns} {op[1]} consumer "
                         f"{op[2]}\n")
        else:
            lines.append(f"{at}{op[0]} h2 vale {op[1]} {op[2]}\n")
    sim = world("".join(lines), model="ac")
    h2 = sim.hosts["h2"]
    namespaces = {1: "chat", 2: "talk"}

    def ids(rows):
        return [id(row) for row in rows]
    for until in range(tick + 12):
        now = step(sim, until).now()
        for (_, ns, _), rec in list(h2.communities.items()):
            assert h2.by_channel[(1, rec.channel_id)] is rec
            apps = list(rec.consumers)
            assert apps == sorted(apps)
            assert {NAMESPACE_OF[app] for app in apps} <= {namespaces[ns]}
            rows = list(rec.consumers.values())
            left = [row for row in rows
                    if row.timer is None or now <= row.timer]
            live = [row for row in left if not row.locked]
            assert ids(h2._live_consumer_rows(rec)) == ids(live)
            assert ids(rec.consumers.values()) == ids(left)
    sends = {f["serial"]: (f["community"], SENDERS[(r.node, int(f["app"]))])
             for r in sim.trace.select("SEND", k="data")
             for f in (dict(r.fields),)}
    for r in sim.trace.select("DELIVER", n="h2"):
        f = dict(r.fields)
        assert sends[f["serial"]] == (f["community"],
                                      NAMESPACE_OF[int(f["app"])])


class TestEdgeJoins:
    def test_first_join_asks_controller(self):
        sim = world("at 2 join h1 vale chat room producer 1\n", until=6)
        (join,) = sim.trace.select("JOIN")
        fields = dict(join.fields)
        assert fields["edge"] == str(sim.nodes["e1"].yni)
        assert fields["role"] == "producer"
        assert sim.metrics.controller_visits["joins"] == 1

    def test_reply_creates_row_and_answers_host(self):
        sim = world(JOINED, until=6)
        h1, h2 = sim.nodes["h1"].yni, sim.nodes["h2"].yni
        r = row(sim)
        assert r.roles == {"producer", "consumer"}
        assert r.active and not r.edge_locked
        assert (h1, 1) in r.producer_apps
        assert (h2, 1) in r.consumer_apps
        assert list(record(sim, "h1").producers) == [1]
        assert list(record(sim, "h2").consumers) == [1]

    def test_cached_join_skips_controller(self):
        sim = world(JOINED + "at 8 join h3 vale chat room consumer 1\n",
                    until=12)
        assert sim.trace.count("JOIN") == 2
        assert list(record(sim, "h3").consumers) == [1]
        assert (sim.nodes["h3"].yni, 1) in row(sim).consumer_apps

    def test_cached_producer_join_gets_host_lock(self):
        sim = world(JOINED + "at 8 join h3 vale chat room producer 1\n",
                    until=12)
        h3 = sim.nodes["h3"].yni
        assert sim.trace.count("JOIN") == 2
        assert row(sim).producer_apps[(h3, 1)] is True
        assert f"t=9 n=e1 ev=LOCK table=ppt community=room host={h3} app=1" \
            in sim.trace.lines()
        assert producer(sim, "h3", 1).locked

    def test_concurrent_joins_share_one_request(self):
        sim = world("at 2 join h1 vale chat room consumer 1\n"
                    "at 2 join h2 vale chat room consumer 1\n", until=6)
        assert sim.trace.count("JOIN") == 1
        h1, h2 = sim.nodes["h1"].yni, sim.nodes["h2"].yni
        assert row(sim).consumer_apps == {(h1, 1), (h2, 1)}

    def test_on_hold_reply_locks_edge(self):
        # e1 already runs h1's producer: e2's producer goes on hold
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 8 join h2 vale chat room producer 1\n", topo=LINE,
                    until=12)
        h2 = sim.nodes["h2"].yni
        r = row(sim, "e2")
        assert r.edge_locked and not r.active
        assert r.producer_apps[(h2, 1)] is True
        assert "t=11 n=e2 ev=LOCK table=ppt scope=edge community=room" \
            in sim.trace.lines()
        assert producer(sim, "h2", 1).locked

    def test_activate_unlocks_edge_and_next_producer(self):
        # h1 leaves at 20: the controller activates e2 at 22, e2 unlocks
        # h2 at 23 and h2 hears it at 24
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 8 join h2 vale chat room producer 1\n"
                    "at 20 withdraw h1 vale chat room producer 1\n",
                    topo=LINE, until=24)
        h2 = sim.nodes["h2"].yni
        r = row(sim, "e2")
        assert r.active and not r.edge_locked
        assert r.producer_apps[(h2, 1)] is False
        assert [line for line in sim.trace.lines()
                if " ev=UNLOCK " in line] == [
            "t=23 n=e2 ev=UNLOCK table=ppt scope=edge community=room",
            f"t=23 n=e2 ev=UNLOCK table=ppt community=room host={h2} app=1",
            "t=24 n=h2 ev=UNLOCK table=prt community=room app=1"]
        assert not producer(sim, "h2", 1).locked

    def test_withdraw_last_consumer_releases_role(self):
        sim = world(JOINED + "at 8 withdraw h2 vale chat room consumer 1\n",
                    until=12)
        assert roles_removed(sim) == ["consumer"]
        assert row(sim).roles == {"producer"}

    @pytest.mark.xfail(strict=True, reason="e1 drops a withdraw that comes "
                       "before its row exists, and the pending join then "
                       "completes")
    def test_withdraw_while_the_join_is_pending_is_kept(self):
        # h2's withdraw reaches e1 at 7, before the controller's reply
        # admits h2's app there
        sim = world("at 2 join h1 vale chat room producer 1\n"
                    "at 4 join h2 vale chat room consumer 1\n"
                    "at 6 withdraw h2 vale chat room consumer 1\n"
                    "at 20 send h1 vale room 1 x\n", until=40)
        assert delivered(sim, "h2") == []

    def test_unlocked_producer_withdraw_fails_over_locally(self):
        sim = world(JOINED + "at 8 join h3 vale chat room producer 1\n"
                    "at 12 withdraw h1 vale chat room producer 1\n", until=11)
        assert producer(sim, "h3", 1).locked
        step(sim, 16)
        h3 = sim.nodes["h3"].yni
        assert row(sim).producer_apps == {(h3, 1): False}
        assert not producer(sim, "h3", 1).locked
        assert roles_removed(sim) == []

    def test_row_deleted_when_both_sides_empty(self):
        sim = world(JOINED + "at 8 withdraw h1 vale chat room producer 1\n"
                    "at 8 withdraw h2 vale chat room consumer 1\n", until=12)
        assert sim.edges["e1"].rows == {}
        assert sim.edges["e1"].channels == {}

    def test_member_withdraw_releases_member(self):
        sim = world("at 2 join h1 vale chat room member 1\n"
                    "at 2 join h2 vale chat room member 1\n"
                    "at 8 withdraw h1 vale chat room member 1\n"
                    "at 8 withdraw h2 vale chat room member 1\n",
                    model="mmm", until=12)
        assert roles_removed(sim) == ["member"]


class TestEdgeData:
    def test_producer_data_reaches_local_consumer(self):
        sim = world(JOINED + "at 10 send h1 vale room 1 pay\n", until=14)
        assert delivered(sim, "h2") == [(1, 1)]

    def test_no_echo_back_to_producer_host(self):
        sim = world(JOINED + "at 2 join h1 vale chat room consumer 2\n"
                    "at 10 send h1 vale room 1 pay\n", until=14)
        assert (sim.nodes["h1"].yni, 2) in row(sim).consumer_apps
        # app 2 on the producing host hears it in-host, not via the edge
        assert delivered(sim, "h1") == [(2, 1)]
        assert sent_to(sim, "e1", "DATA_YPP") == ["h2"]

    def test_unknown_channel_dropped(self):
        sim = world("", until=2)
        sim.edges["e1"].on_message(data(
            MessageKind.DATA_YPP, sim.nodes["h1"].yni, sim.nodes["e1"].yni,
            5, data_metadata(1)))
        assert sim.trace.count("DROP", n="e1", reason="unknown_channel") == 1

    def test_unregistered_sender_dropped(self):
        # a forged copy from h3, which holds no producer app
        sim = world(JOINED, until=8)
        sim.edges["e1"].on_message(data(
            MessageKind.DATA_YPP, sim.nodes["h3"].yni, sim.nodes["e1"].yni,
            row(sim).channel_id, data_metadata(1)))
        assert sim.trace.count("DROP", n="e1", reason="no_registration") == 1

    def test_locked_sender_dropped_at_edge(self):
        # h3's producer app is on hold; a copy it sends regardless
        sim = world(JOINED + "at 8 join h3 vale chat room producer 1\n",
                    until=12)
        sim.edges["e1"].on_message(data(
            MessageKind.DATA_YPP, sim.nodes["h3"].yni, sim.nodes["e1"].yni,
            row(sim).channel_id, data_metadata(1)))
        assert sim.trace.count("DROP", n="e1", reason="producer_locked") == 1

    def test_aft_tree_turns_data_into_sync(self):
        sim = world(JOINED + "at 10 send h1 vale room 1 pay\n", topo=LINE,
                    until=16)
        # the copy to c1 carries c1's subtree: c1 and e2 each pop their
        # own root
        assert sent_to(sim, "e1", "DATA_YSYNC") == ["c1"]
        assert sent_to(sim, "c1", "DATA_YSYNC") == ["e2"]
        assert sim.trace.count("PROTO_ERROR") == 0
        assert delivered(sim, "h2") == [(1, 1)]

    def test_network_sync_delivers_and_forwards(self):
        # e2 sits on the tree from e1 to e3: it delivers to h2 as a push
        # and forwards the sync to e3
        sim = world(JOINED + "at 2 join h4 vale chat room consumer 1\n"
                    "at 10 send h1 vale room 1 pay\n"
                    "at 19 fault host-down h2\n" + send_lines(3, 31),
                    topo=LINE, until=18)
        assert sent_to(sim, "e2", "DATA_YPP") == ["h2"]
        assert sent_to(sim, "e2", "DATA_YSYNC") == ["e3"]
        assert delivered(sim, "h2") == [(1, 1)]
        assert delivered(sim, "h4") == [(1, 1)]
        # h2 misses the sweeps at 20, 25 and 30, so its twin on e2 buffers
        # the later local copies as e2 made them: a push with no tree
        step(sim, 40)
        buffered = sim.edges["e2"].twin.records[sim.nodes["h2"].yni].buffer
        assert len(buffered) == 3
        for msg, meta in buffered:
            assert msg.kind is MessageKind.DATA_YPP
            assert msg.floating.path_tree is None
            assert meta == (serial_of(msg), None)
        assert delivered(sim, "h4") == [(1, 1), (1, 2), (1, 3), (1, 4)]
        assert sent_to(sim, "e2", "DATA_YSYNC") == ["e3"] * 4

    def test_root_mismatch_flags_protocol_error(self):
        sim = world(JOINED, until=8)
        e1 = sim.nodes["e1"].yni
        sim.edges["e1"].on_message(data(
            MessageKind.DATA_YSYNC, STRANGER, e1, row(sim).channel_id,
            data_metadata(7)), tree=PathTree(STRANGER, (PathTree(e1),)))
        # the codec's reason, as at a connector
        reason = f"path root is {STRANGER}, not {e1}"
        assert sim.trace.count("PROTO_ERROR", reason=reason) == 1
        assert sim.metrics.proto_errors == 1

    def test_pct_locked_host_not_delivered(self):
        sim = world(JOINED + "at 8 lock h2 vale room 1\n"
                    "at 12 send h1 vale room 1 pay\n", model="ac", until=11)
        assert sim.nodes["h2"].yni in row(sim).locked_hosts
        step(sim, 16)
        # filtered at e1, so nothing goes down h2's link
        assert sent_to(sim, "e1", "ANYCAST_DATA_YPP") == []
        assert sent_to(sim, "e1", "DATA_YPP") == []
        assert delivered(sim, "h2") == []

    def test_channel_update_renames_and_notifies(self):
        # the update is hand-crafted and delivered as the controller would
        sim = world(JOINED + "at 2 join h1 vale chat room consumer 2\n",
                    topo=LINE, until=8)
        e1 = sim.edges["e1"]
        old = row(sim).channel_id
        sim.schedule(10, lambda: e1.on_controller(
            ChannelIdUpdate(1, old, 250)))
        step(sim, 12)
        assert row(sim).channel_id == 250
        assert e1.channels == {(1, 250): e1.rows[ROOM]}
        assert "t=10 n=e1 ev=SEND to=h1 k=CONTROL_YPP" in sim.trace.lines()
        rec = record(sim, "h1")
        assert rec.channel_id == 250
        assert sim.hosts["h1"].by_channel == {(1, 250): rec}

    def test_path_advertisement_installs_tree(self):
        sim = world(JOINED, topo=LINE, until=6)
        e1, c1, e2 = (sim.nodes[n].yni for n in ("e1", "c1", "e2"))
        channel = row(sim).channel_id
        (adv,) = sim.trace.select("PATH_ADV")
        assert dict(adv.fields)["edge"] == str(e1)
        assert sim.edges["e1"].aft == {
            (1, channel): PathTree(e1, (PathTree(c1, (PathTree(e2),)),))}

    def test_foreign_rooted_advertisement_rejected(self):
        sim = world("", until=2)
        e1 = sim.nodes["e1"].yni
        sim.edges["e1"].on_controller(PathAdvertisement(encode(YodelMessage(
            MessageKind.CONTROL_YPP, STRANGER, e1,
            FloatingHeader(valley_id=1, channel_id=100,
                           path_tree=PathTree(STRANGER))))))
        assert sim.metrics.proto_errors == 1
        assert sim.edges["e1"].aft == {}


    @pytest.mark.parametrize("case", ["cut_short", "repeat", "trailing",
                                      "rooted_elsewhere"])
    def test_corrupted_advertisement_is_one_proto_error(self, case):
        """An advertisement whose tree element is cut short inside the tree,
        repeats a node, has bytes after the tree or is rooted at another
        node gives one PROTO_ERROR, with the text each case has always had,
        and leaves the installed path table as it was."""
        sim = world(JOINED, topo=LINE, until=6)
        edge = sim.edges["e1"]
        e1, c1, e2 = (sim.nodes[n].yni for n in ("e1", "c1", "e2"))
        channel = row(sim).channel_id
        installed = dict(edge.aft)
        assert installed == {
            (1, channel): PathTree(e1, (PathTree(c1, (PathTree(e2),)),))}
        tree, reason = {
            "cut_short": (e1 + b"\x01" + c1 + b"\x01",
                          "bad path advertisement: path tree cut short"),
            "repeat": (e1 + b"\x01" + c1 + b"\x01" + e1 + b"\x00",
                       "bad path advertisement: repeated node in path "
                       f"tree: {e1}"),
            "trailing": (e1 + b"\x01" + c1 + b"\x01" + e2 + b"\x00\x00",
                         "bad path advertisement: trailing bytes after path "
                         "tree"),
            "rooted_elsewhere": (c1 + b"\x01" + e2 + b"\x00",
                                 "path advertisement rooted elsewhere"),
        }[case]
        floating = (FloatingHeader(valley_id=1, channel_id=channel).encode()
                    + b"\x06" + len(tree).to_bytes(2, "big") + tree)
        raw = (bytes((MessageKind.CONTROL_YPP,)) + CONTROLLER_YNI + e1
               + len(floating).to_bytes(2, "big") + bytes(4) + floating)
        before = len(sim.trace.select("PROTO_ERROR"))
        edge.on_controller(PathAdvertisement(raw))
        errors = sim.trace.select("PROTO_ERROR")[before:]
        assert [(r.node, dict(r.fields)["reason"]) for r in errors] \
            == [("e1", reason)]
        assert sim.metrics.proto_errors == 1
        assert edge.aft == installed


# ---------------------------------------------------------------------------
# connector behavior


class TestConnectorNode:
    def test_only_sync_kinds_forwarded(self):
        sim = world("", topo=FORK, until=2)
        sim.nodes["c1"].on_message(data(
            MessageKind.DATA_YPP, sim.nodes["e1"].yni, sim.nodes["c1"].yni,
            1, data_metadata(1)))
        assert sim.trace.count("DROP", n="c1", reason="unhandled_kind") == 1

    def test_pops_and_forwards_children(self):
        sim = world(TRIO + "at 10 send h1 vale room 1 pay\n", topo=FORK,
                    until=16)
        assert sorted(sent_to(sim, "c1", "DATA_YSYNC")) == ["e2", "e3"]
        # each child gets its own leaf: it pops its root, delivers and
        # sends nothing on
        assert sim.trace.count("PROTO_ERROR") == 0
        assert sent_to(sim, "e2", "DATA_YSYNC") == []
        assert sent_to(sim, "e3", "DATA_YSYNC") == []
        assert delivered(sim, "h2") == delivered(sim, "h3") == [(1, 1)]

    def test_keeps_no_community_state(self):
        # a connector forwards by the tree each copy carries: after carrying
        # data it holds what every node holds and none of an edge's tables
        sim = world(TRIO + "at 10 send h1 vale room 1 pay\n", topo=FORK,
                    until=16)
        assert sorted(sent_to(sim, "c1", "DATA_YSYNC")) == ["e2", "e3"]
        conn = vars(sim.nodes["c1"])
        assert sorted(conn) == ["act", "domain", "env", "label", "yni"]
        assert not conn.keys() & {"rows", "channels", "aft", "twin"}

    def test_group_covers_both_children_in_one_transmission(self):
        sim = world(TRIO + "at 10 send h1 vale room 1 pay\n",
                    topo=FORK + "mcastgroup d2 c1 e2 e3\n", until=16)
        assert sorted(sent_to(sim, "c1", "DATA_YSYNC")) == ["e2", "e3"]
        # one unicast from e1 to c1, one group transmission from c1
        assert sim.metrics.transmissions_total == 2
        assert sim.metrics.unicast_by_link == {"e1>c1": 1}

    def test_missing_route_drops_only_that_child(self):
        sim = world("", topo=FORK, until=2)
        c1, e2 = sim.nodes["c1"].yni, sim.nodes["e2"].yni
        sim.nodes["c1"].on_message(data(
            MessageKind.DATA_YSYNC, sim.nodes["e1"].yni, c1, 1,
            data_metadata(1)),
            tree=PathTree(c1, (PathTree(e2), PathTree(STRANGER))))
        assert sim.trace.count("DROP", n="c1", reason="no_route") == 1
        assert sent_to(sim, "c1", "DATA_YSYNC") == ["e2"]

    def test_root_mismatch_is_protocol_error(self):
        sim = world("", topo=FORK, until=2)
        c1 = sim.nodes["c1"].yni
        sim.nodes["c1"].on_message(data(
            MessageKind.DATA_YSYNC, sim.nodes["e1"].yni, c1, 1,
            data_metadata(1)), tree=PathTree(STRANGER))
        reason = f"path root is {STRANGER}, not {c1}"
        assert sim.trace.count("PROTO_ERROR", reason=reason) == 1
        assert sim.metrics.proto_errors == 1

    def test_anycast_zero_share_forwards_nothing(self):
        sim = world(TRIO + "at 10 send h1 vale room 1 pay\n",
                    model="ac randomized=on q=0", topo=FORK, until=16)
        assert sim.trace.count("RECV", n="c1", k="ANYCAST_DATA_YSYNC") == 1
        assert sim.trace.count("SEND", n="c1") == 0
        assert sim.trace.count("DROP") == 0  # filtered, not dropped

    def test_anycast_full_share_forwards_all(self):
        sim = world(TRIO + "at 10 send h1 vale room 1 pay\n",
                    model="ac randomized=on q=1", topo=FORK, until=16)
        assert sorted(sent_to(sim, "c1", "ANYCAST_DATA_YSYNC")) \
            == ["e2", "e3"]


# ---------------------------------------------------------------------------
# what a node has no handler for


class Foreign(IntEnum):
    """A message kind the codec does not define, as a kind added to it but
    not to a node would be."""
    PROBE = 0x7F


class TestUnhandled:
    """Each kind, op or controller payload a node has no handler for is one
    DROP line naming it."""

    def drops(self, sim, before):
        """The DROP lines since `before`. In JOINED run to 8 the clock
        stands at 7, the last event's tick: a copy handed to a node is
        handled at 7, and one sent over the wire lands at 8."""
        return [line for line in sim.trace.lines()[before:]
                if " ev=DROP " in line]

    def test_host_drops_a_sync_copy(self):
        sim = world(JOINED, until=8)
        h1 = sim.nodes["h1"].yni
        before = len(sim.trace)
        sim.hosts["h1"].on_message(data(
            MessageKind.DATA_YSYNC, sim.nodes["e1"].yni, h1,
            row(sim).channel_id, data_metadata(1)), tree=PathTree(h1))
        assert self.drops(sim, before) == [
            "t=7 n=h1 ev=DROP reason=unhandled_kind k=DATA_YSYNC"]

    def test_host_drops_an_op_only_edges_read(self):
        # e1 sends h1 a withdraw, which hosts send and never receive
        sim = world(JOINED, until=8)
        before = len(sim.trace)
        sim.edges["e1"].send_op(sim.nodes["h1"].yni,
                                op_withdraw("consumer", "room"),
                                valley_id=1, namespace_id=1, app_id=1)
        step(sim, 10)
        assert self.drops(sim, before) == [
            "t=8 n=h1 ev=DROP reason=unhandled_op op=3"]
        assert list(record(sim, "h1").producers) == [1]

    def test_edge_drops_a_kind_the_codec_does_not_define(self):
        sim = world(JOINED, until=8)
        before = len(sim.trace)
        sim.edges["e1"].on_message(data(
            Foreign.PROBE, sim.nodes["h1"].yni, sim.nodes["e1"].yni,
            row(sim).channel_id, data_metadata(1)))
        assert self.drops(sim, before) == [
            "t=7 n=e1 ev=DROP reason=unhandled_kind k=PROBE"]

    def test_edge_drops_an_op_only_hosts_read(self):
        # h2 sends e1 a hello-ack, which edges send and never receive
        sim = world(JOINED, until=8)
        before = len(sim.trace)
        sim.hosts["h2"].send_op(sim.nodes["e1"].yni, op_hello_ack())
        step(sim, 10)
        assert self.drops(sim, before) == [
            "t=8 n=e1 ev=DROP reason=unhandled_op op=7"]
        assert sim.trace.count("TWIN_FLUSH") == 0

    def test_edge_drops_a_payload_only_the_controller_reads(self):
        sim = world(JOINED, until=8)
        before = len(sim.trace)
        sim.edges["e1"].on_controller(
            RemoveRole(sim.nodes["e1"].yni, 1, 1, "room", "consumer"))
        assert self.drops(sim, before) == [
            "t=7 n=e1 ev=DROP reason=unhandled_rpc k=RemoveRole"]
        assert row(sim).roles == {"producer", "consumer"}


# ---------------------------------------------------------------------------
# the data receive step every node kind shares: a well-formed copy of what
# each receiver gets in a LINE world where h1 on e1 sends to h2 on e2, sent
# over the wire by the node it would come from


# (receiver, sender, the labels down the message's path-tree branch); with
# a branch the message is of a sync kind, else of a push kind
RECEIVERS = {
    "host": ("h2", "e2", None),
    "edge-from-host": ("e1", "h1", None),
    "edge-from-network": ("e2", "c1", ("e2",)),
    "connector": ("c1", "e1", ("c1", "e2")),
}


def data_at(where, anycast, metadata):
    """A joined world, its receiver, its sender, a data message from the
    sender addressed to the receiver with the given metadata, and the
    receiver's branch of the tree (None on push kinds)."""
    sim = world(JOINED, topo=LINE, until=8)
    receiver, sender, branch = RECEIVERS[where]
    tree = None
    for label in reversed(branch or ()):
        tree = PathTree(sim.nodes[label].yni, () if tree is None else (tree,))
    if tree is None:
        kind = MessageKind.ANYCAST_DATA_YPP if anycast else MessageKind.DATA_YPP
    else:
        kind = MessageKind.ANYCAST_DATA_YSYNC if anycast \
            else MessageKind.DATA_YSYNC
    node, src = sim.nodes[receiver], sim.nodes[sender]
    msg = data(kind, src.yni, node.yni, row(sim).channel_id, metadata)
    return sim, node, src, msg, tree


def over_the_wire(sim, src, node, msg, tree):
    """Send `msg` with `tree` beside it from `src` to `node` and run until
    it lands; the events of the trace lines this adds."""
    before = len(sim.trace)
    sim.transmit(src, [(node.yni, msg, tree)])
    step(sim, sim.config.until + sim.links[src.label][node.label].latency)
    return [r.event for r in sim.trace.records[before:]]


@pytest.mark.parametrize("where", RECEIVERS)
@pytest.mark.parametrize("anycast,metadata", [
    (False, b"\x01"),              # serial cut short
    (True, data_metadata(1)),      # delivery fraction missing
], ids=["plain", "anycast"])
def test_malformed_data_metadata_is_one_protocol_error(where, anycast,
                                                       metadata):
    sim, node, src, msg, tree = data_at(where, anycast, metadata)
    with pytest.raises(MalformedFloating) as err:
        parse_data_metadata(msg.kind, metadata)
    assert over_the_wire(sim, src, node, msg, tree) \
        == ["SEND", "RECV", "PROTO_ERROR"]
    assert sim.trace.select("PROTO_ERROR", n=node.label)[0].fields \
        == (("reason", str(err.value)),)
    assert sim.metrics.proto_errors == 1
    assert sim.trace.count("DELIVER") == 0


@pytest.mark.parametrize("where", RECEIVERS)
@pytest.mark.parametrize("anycast,metadata", [
    (False, data_metadata(1)),
    (True, data_metadata(1, 65535)),
], ids=["plain", "anycast"])
def test_well_formed_data_is_delivered_or_forwarded(where, anycast, metadata):
    sim, node, src, msg, tree = data_at(where, anycast, metadata)
    events = over_the_wire(sim, src, node, msg, tree)
    assert events[:2] == ["SEND", "RECV"]
    events = events[2:]
    assert sim.metrics.proto_errors == 0
    assert events.count("DELIVER") + events.count("SEND") > 0


@pytest.mark.parametrize("name", ["hello", "mcast-fanout"])
def test_forwarding_builds_no_header_or_message(monkeypatch, name):
    """A copy in flight is one shared message with the receiver's subtree
    beside it, so no hop rebuilds a message: a connector builds no header
    or message at all, and the headers a run builds are at most one per
    host data send, one per control SEND line and two per path
    advertisement (the one the controller encodes and the one the edge
    decodes). The hello world's copies cross a connector."""
    from test_sim import _world_texts
    sim = build_text(*_world_texts(name))
    built = []              # (class, whether inside a connector's receive)
    inside = []

    def spy(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append((cls, bool(inside)))
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    receive = ConnectorNode.on_message

    def watched(self, *args):
        inside.append(self)
        try:
            receive(self, *args)
        finally:
            inside.pop()

    spy(FloatingHeader)
    spy(YodelMessage)
    monkeypatch.setattr(ConnectorNode, "on_message", watched)
    sim.run()
    connectors = [label for label, node in sim.nodes.items()
                  if isinstance(node, ConnectorNode)]
    assert sum(sim.trace.count("RECV", n=label) for label in connectors)
    assert [cls for cls, in_connector in built if in_connector] == []
    headers = sum(cls is FloatingHeader for cls, _ in built)
    trace = sim.trace
    assert headers <= (trace.count("SEND", k="data")
                       + trace.count("SEND", k="CONTROL_YPP")
                       + 2 * trace.count("PATH_ADV"))


@pytest.mark.parametrize("name", ["fanout-unicast", "fanout-group", "anycast",
                                  "mcast-fanout", "twin-outage", "twin"])
def test_a_run_parses_no_data_metadata(monkeypatch, name):
    """A data copy carries its metadata read, `(serial, q)`, from the host
    that wrote it to the last hop: no hop, no push or sync built on a
    copy's header, and no twin buffer flush parses it again. The count is
    taken where `_read_data` resolves the name, the one caller in the
    package. These worlds forward over several hops, on plain and anycast
    kinds; the twin worlds flush buffers."""
    import yodel.dataplane
    from test_sim import _world_texts
    if name.startswith("fanout-"):
        sim = build_text((golden.WORLDS / f"{name}.topo").read_text(),
                         (golden.WORLDS / "fanout.scen").read_text(), 0)
    else:
        sim = build_text(*_world_texts(name))
    parses = []

    def counted(kind, meta):
        parses.append(kind)
        return parse_data_metadata(kind, meta)
    monkeypatch.setattr(yodel.dataplane, "parse_data_metadata", counted)
    sim.run()
    trace = sim.trace
    sends = trace.count("SEND", k="data")
    hops = sum(trace.count("RECV", k=kind.name) for kind in MessageKind
               if kind is not MessageKind.CONTROL_YPP)
    assert 0 < sends < hops
    if name.startswith("twin"):
        assert trace.count("TWIN_FLUSH")
    assert parses == []
    assert sim.metrics.proto_errors == 0


@pytest.mark.parametrize("world", [topo for topo, _ in golden.PAIRS]
                         + list(golden.BENCH_WORKLOADS))
def test_every_copy_carries_the_parse_of_its_own_metadata(monkeypatch, world):
    """The metadata read a copy carries is its own: every arrival's `meta`
    is what `parse_data_metadata` reads from that copy's message (None on
    control), and so is every twin buffer entry's, against the entry's own
    message, as it is buffered and as it is flushed. The worlds are the
    replay gate's, the demos at their first seed and the benchmark worlds
    at seed 1."""
    from test_sim import _world_texts
    from yodel.sim import Simulation
    from yodel.twin import TwinManager

    def parse(msg):
        if msg.kind is MessageKind.CONTROL_YPP:
            return None
        return parse_data_metadata(msg.kind, msg.floating.metadata)

    checked, wrong = [], []

    def check(where, entries):
        for msg, meta in entries:
            checked.append(where)
            if meta != parse(msg):
                wrong.append((where, parse(msg), meta))

    land_copies = Simulation._land_copies

    def landed(self, batch):
        for port, rec, tree in batch:
            msg, _, meta = rec
            check(f"t={self.now()} n={port[0].label}", [(msg, meta)])
        land_copies(self, batch)

    buffer_message, on_hello = TwinManager.buffer_message, \
        TwinManager.on_hello

    def buffered(self, host, msg, meta):
        buffer_message(self, host, msg, meta)
        check(f"buffer at {self.edge.label}", self.records[host].buffer)

    def flushed(self, host):
        rec = self.records.get(host)
        check(f"flush at {self.edge.label}", rec.buffer if rec else ())
        on_hello(self, host)
    monkeypatch.setattr(Simulation, "_land_copies", landed)
    monkeypatch.setattr(TwinManager, "buffer_message", buffered)
    monkeypatch.setattr(TwinManager, "on_hello", flushed)
    scen = dict(golden.PAIRS).get(world)
    if scen is None:
        sim = build_text(*_world_texts(world))
    else:
        sim = build_text((golden.WORLDS / world).read_text(),
                         (golden.WORLDS / scen).read_text(), golden.SEEDS[0])
    sim.run()
    for edge in sim.edges.values():
        for rec in edge.twin.records.values():
            check(f"end at {edge.label}", rec.buffer)
    assert checked
    assert wrong == []


# ---------------------------------------------------------------------------
# twin records


class TestTwin:
    def test_create_mints_stand_in(self):
        sim = world(TRIO)
        assert sim.trace.count("TWIN_CREATE") == 3
        hosts = {sim.nodes[h].yni for h in ("h1", "h2", "h3")}
        recs = sim.edges["e1"].twin.records
        assert {r.host for r in recs.values()} == hosts
        alphorns = {r.alphorn for r in recs.values()}
        assert len(alphorns) == 3 and not (alphorns & hosts)

    def test_same_seed_same_stand_in(self):
        ids = []
        for _ in range(2):
            sim = world(TRIO, seed=13)
            ids.append(sorted(str(r.alphorn) for r
                              in sim.edges["e1"].twin.records.values()))
        assert ids[0] == ids[1]

    def test_sweep_queries_and_reply_refreshes(self):
        # the sweep at 5 is answered at 7
        sim = world(TRIO + "config twin_ttl 50\n", until=7)
        assert sim.trace.count("TWIN_SYNC", n="e1", queried="3",
                               missed="0") == 1
        rec = sim.edges["e1"].twin.records[sim.nodes["h1"].yni]
        assert rec.expire_at == 7 + 50
        # the sweeps at 10, 15 and 20 repeat that pair and trace nothing;
        # their rounds still count, and the last one's replies at 22 renew
        step(sim, 22)
        assert [r.tick for r in sim.trace.select("TWIN_SYNC")] == [5]
        assert rec.expire_at == 22 + 50
        # each way on each access line: the join op and four keepalives
        links = sim.metrics.conservation["links"]
        for host in ("h1", "h2", "h3"):
            for wire in (f"e1>{host}", f"{host}>e1"):
                assert links[wire]["sent"] == links[wire]["received"] == 1 + 4

    def test_empty_control_message_at_edge_is_a_proto_error(self):
        sim = world(TRIO + "config twin_ttl 50\n", until=8)
        h1, e1 = sim.nodes["h1"].yni, sim.edges["e1"]
        e1.on_message(YodelMessage(MessageKind.CONTROL_YPP, h1, e1.yni,
                                   FloatingHeader()))
        assert sim.metrics.proto_errors == 1
        assert sim.trace.count("PROTO_ERROR", n="e1",
                               reason="empty op payload") == 1
        # not a keepalive reply: the record keeps the lifetime the reply
        # at 7 gave it
        assert e1.twin.records[h1].expire_at == 7 + 50

    def test_missed_sweeps_activate(self):
        sim = world(TRIO + AWAY, until=15)
        assert sim.trace.count("TWIN_ACTIVE") == 0
        step(sim, 20)
        assert sim.trace.count("TWIN_ACTIVE", host="h2") == 1
        # the stand-in keeps the host's own id in the consumer table
        h2 = sim.nodes["h2"].yni
        assert (h2, 1) in row(sim).consumer_apps
        assert sim.edges["e1"].twin.is_active(h2)

    def test_traffic_buffers_while_active(self):
        sim = world(TRIO + AWAY + "at 21 send h1 vale room 1 m1\n"
                    "at 22 send h1 vale room 1 m2\n", until=25)
        rec = sim.edges["e1"].twin.records[sim.nodes["h2"].yni]
        assert [m.payload for m, _ in rec.buffer] == [b"m1", b"m2"]
        assert sim.metrics.buffered_total == 2
        assert sim.metrics.buffer_peaks["h2"] == 2
        # the healthy consumer still hears everything
        assert delivered(sim, "h3") == [(1, 1), (1, 2)]

    def test_buffer_cap_drops_oldest(self):
        sim = world(TRIO + AWAY + "config twin_buffer_max 2\n"
                    + send_lines(4, 21), until=26)
        rec = sim.edges["e1"].twin.records[sim.nodes["h2"].yni]
        assert [m.payload for m, _ in rec.buffer] == [b"m2", b"m3"]
        assert sim.metrics.buffer_dropped == 2

    @pytest.mark.parametrize("buffer_max, dropped, peaks, flushed", [
        (0, 4, {}, []),
        (1, 3, {"h2": 1}, [b"m3"]),
        (None, 0, {"h2": 4}, [b"m0", b"m1", b"m2", b"m3"]),
    ])
    def test_buffer_bound_counts_and_flushes_newest(self, buffer_max, dropped,
                                                    peaks, flushed):
        bound = "" if buffer_max is None \
            else f"config twin_buffer_max {buffer_max}\n"
        sim = world(SPLIT + AWAY + bound + send_lines(4, 21)
                    + "at 40 fault host-up h2\n",
                    model="slsm partition=manual", topo=LINE, until=29)
        old = row(sim, "e2").channel_id
        # a channel change while away rekeys what is buffered, in order
        step(sim, 35)
        new = row(sim, "e2").channel_id
        assert new != old
        assert sim.metrics.buffered_total == 4
        assert sim.metrics.buffer_dropped == dropped
        assert sim.metrics.buffer_peaks == peaks
        buffered = sim.edges["e2"].twin.records[sim.nodes["h2"].yni].buffer
        assert [m.payload for m, _ in buffered] == flushed
        assert all(m.floating.channel_id == new for m, _ in buffered)
        serials = [serial_of(m) for m, _ in buffered]
        # a rekeyed entry keeps its metadata read
        assert [meta for _, meta in buffered] \
            == [(serial, None) for serial in serials]
        step(sim, 45)
        assert delivered(sim, "h2") == [(1, serial) for serial in serials]
        assert sim.trace.count("TWIN_FLUSH", host="h2",
                               count=str(len(flushed))) == 1
        assert not sim.edges["e2"].twin.records[sim.nodes["h2"].yni].buffer

    def test_shared_buffered_message_rekeys_copy_by_copy(self):
        # e2 builds one push message per copy it receives, shared by the
        # copy to h6 and the buffers of h2 and h5, away from 8; the split
        # at 30 moves room to a new channel while they are away
        sim = world(SPLIT + "at 2 join h5 vale chat room consumer 1\n"
                    "at 2 join h6 vale chat room consumer 1\n"
                    "at 8 fault host-down h2\nat 8 fault host-down h5\n"
                    + send_lines(3, 21)
                    + "at 40 fault host-up h2\nat 40 fault host-up h5\n",
                    model="slsm partition=manual",
                    topo=LINE + "host h5 alice domain=d2\n"
                    "host h6 alice domain=d2\n")
        got = {label: watch_data(sim.hosts[label])
               for label in ("h2", "h5", "h6")}
        step(sim, 29)
        old = row(sim, "e2").channel_id
        records = sim.edges["e2"].twin.records
        h2_buffer, h5_buffer = (
            [m for m, _ in records[sim.nodes[h].yni].buffer]
            for h in ("h2", "h5"))
        assert len(got["h6"]) == len(h2_buffer) == len(h5_buffer) == 3
        assert all(a is b is c for a, b, c
                   in zip(got["h6"], h2_buffer, h5_buffer))
        step(sim, 45)
        new = row(sim, "e2").channel_id
        assert new != old
        for label in ("h2", "h5"):
            assert [(m.floating.channel_id, serial_of(m))
                    for m in got[label]] == [(new, 1), (new, 2), (new, 3)]
            assert delivered(sim, label) == [(1, 1), (1, 2), (1, 3)]
        # what h6 was handed is as it was
        assert [(m.floating.channel_id, serial_of(m))
                for m in got["h6"]] == [(old, 1), (old, 2), (old, 3)]
        assert delivered(sim, "h6") == [(1, 1), (1, 2), (1, 3)]

    def test_producer_loss_fails_over_to_locked_local(self):
        sim = world(TRIO + "at 2 join h3 vale chat room producer 2\n"
                    "at 8 fault host-down h1\n"
                    "at 25 fault host-up h1\n", until=19)
        assert producer(sim, "h3", 2).locked
        step(sim, 22)
        h1, h3 = sim.nodes["h1"].yni, sim.nodes["h3"].yni
        assert row(sim).producer_apps[(h1, 1)] is True
        assert row(sim).producer_apps[(h3, 2)] is False
        assert not producer(sim, "h3", 2).locked
        assert roles_removed(sim) == []
        # h1 comes back to the lock the edge gave it while it was away
        assert not producer(sim, "h1", 1).locked
        step(sim, 29)
        assert producer(sim, "h1", 1).locked

    def test_producer_loss_without_candidate_resigns(self):
        sim = world(TRIO + "at 8 fault host-down h1\n", until=22)
        assert roles_removed(sim) == ["producer"]
        r = row(sim)
        assert "producer" not in r.roles and not r.active
        # kept, locked
        assert r.producer_apps[(sim.nodes["h1"].yni, 1)] is True

    def test_return_flushes_in_order_then_acks(self):
        sim = world(TRIO + AWAY + send_lines(3, 21)
                    + "at 30 fault host-up h2\n", until=34)
        assert delivered(sim, "h2") == [(1, 1), (1, 2), (1, 3)]
        assert sim.trace.count("TWIN_FLUSH", host="h2", count="3") == 1
        assert not sim.hosts["h2"].gated
        h2 = sim.nodes["h2"].yni
        assert (h2, 1) in row(sim).consumer_apps
        rec = sim.edges["e1"].twin.records[h2]
        assert not rec.active and rec.buffer == []

    def test_corrections_precede_flush(self):
        # e2's channel changed while h2 was away; the correction must land
        # before the replay or h2 cannot map it
        sim = world(SPLIT + AWAY + "at 21 send h1 vale room 1 m\n"
                    "at 40 fault host-up h2\n",
                    model="slsm partition=manual", topo=LINE, until=45)
        assert delivered(sim, "h2") == [(1, 1)]
        assert record(sim, "h2").channel_id \
            == row(sim, "e2").channel_id != 1

    def test_quick_return_without_activation_just_resyncs(self):
        sim = world(TRIO + AWAY + "at 12 fault host-up h2\n", until=11)
        rec = sim.edges["e1"].twin.records[sim.nodes["h2"].yni]
        assert rec.missed == 1
        # the hello lands at 13, before the next sweep
        step(sim, 14)
        assert sim.trace.count("TWIN_FLUSH") == 0
        assert sim.trace.count("TWIN_ACTIVE") == 0
        assert not sim.hosts["h2"].gated
        assert rec.missed == 0

    def test_away_host_sends_reach_no_one(self):
        # a down host's access link is down both ways: a join request made
        # while away is sent but never reaches the edge, which neither
        # admits nor answers it
        sim = world(TRIO + AWAY + "at 21 join h2 vale chat room producer 2\n",
                    until=30)
        assert [r.line() for r in sim.trace.records
                if r.tick >= 21 and "h2" in r.line()] == [
            "t=21 n=h2 ev=SEND to=e1 k=CONTROL_YPP",
            "t=21 n=h2 ev=DROP reason=link_down to=e1"]
        assert (sim.nodes["h2"].yni, 2) not in row(sim).producer_apps
        assert sim.trace.count("JOIN", app="2") == 0

    def test_expiry_purges_registrations(self):
        # h2's last reply came at 7: its record outlives tick 22 and
        # expires at the sweep at 25
        sim = world(TRIO + AWAY + "config twin_ttl 15\n", until=25)
        assert [r.tick for r in
                sim.trace.select("TWIN_EXPIRE", host="h2")] == [25]
        h2 = sim.nodes["h2"].yni
        assert h2 not in sim.edges["e1"].twin.records
        assert all(h != h2 for h, _ in row(sim).consumer_apps)

    def test_expiry_of_last_consumer_releases_role(self):
        sim = world(TRIO + AWAY + "config twin_ttl 15\n"
                    "at 8 withdraw h3 vale chat room consumer 1\n", until=30)
        assert roles_removed(sim) == ["consumer"]

    def test_post_expiry_return_is_fresh(self):
        sim = world(TRIO + AWAY + "config twin_ttl 15\n"
                    "at 21 send h1 vale room 1 lost\n"
                    "at 30 fault host-up h2\n", until=29)
        assert sim.trace.count("TWIN_EXPIRE", host="h2", dropped="1") == 1
        creates = sim.trace.count("TWIN_CREATE")
        step(sim, 34)
        assert sim.trace.count("TWIN_CREATE") == creates + 1
        assert sim.trace.count("TWIN_FLUSH") == 0
        assert delivered(sim, "h2") == []
        assert not sim.hosts["h2"].gated

    def test_active_host_excluded_from_failover(self):
        # h2, the backup producer's host, goes silent first (active at 20);
        # then h1, the active producer's host (active at 35)
        sim = world(TRIO + "at 2 join h2 vale chat room producer 2\n" + AWAY
                    + "at 21 fault host-down h1\n", until=37)
        assert sim.trace.count("TWIN_ACTIVE", host="h1") == 1
        # h2 cannot take over while twin-active; the role is resigned
        assert row(sim).producer_apps[(sim.nodes["h2"].yni, 2)] is True
        assert roles_removed(sim) == ["producer"]


ANYCAST_CONSUMERS = ("h2", "h3", "h4", "h5", "h6")


def anycast_copies(seed, away):
    """(host, serial) of every copy edge e1 hands to a consumer host of a
    randomized anycast community, sent or buffered, over eight sends by h1
    with `away` (if any) twin-active."""
    body = "at 2 join h1 vale chat room producer 1\n" + "".join(
        f"at 2 join {h} vale chat room consumer 1\n"
        for h in ANYCAST_CONSUMERS)
    if away is not None:
        body += f"at 8 fault host-down {away}\n"
    sim = world(body + send_lines(8, 21), model="ac randomized=on q=0.5",
                topo=ONE_EDGE + "".join(f"host {h} alice\n"
                                        for h in ANYCAST_CONSUMERS[2:]),
                seed=seed, until=29)
    sent = {(dict(r.fields)["to"], int(dict(r.fields)["serial"]))
            for r in sim.trace.select("SEND", n="e1", k="ANYCAST_DATA_YPP")}
    buffered = {(sim.label_of(rec.host), serial_of(m))
                for rec in sim.edges["e1"].twin.records.values()
                for m, _ in rec.buffer}
    return sent | buffered


@given(st.integers(0, 2**32 - 1), st.sampled_from(ANYCAST_CONSUMERS))
@example(0, "h2")
@settings(max_examples=100, deadline=None)
def test_anycast_draw_ignores_which_host_is_away(seed, away):
    """An away host is drawn for in its own place: the edge's anycast draw
    picks the same consumer hosts whether one of them is away or not."""
    assert anycast_copies(seed, away) == anycast_copies(seed, None)
