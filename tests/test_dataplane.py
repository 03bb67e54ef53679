"""Node state machine tests over a synchronous fake environment."""

import inspect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yodel.codec import FloatingHeader, MessageKind, PathTree, YodelMessage
from yodel.control import (
    ActivateProducerEdge,
    ChannelIdUpdate,
    JoinReply,
    JoinRequest,
    PathAdvertisement,
    RemoveRole,
)
from yodel.dataplane import (
    AcTable,
    ConnectorNode,
    EdgeNode,
    HostNode,
    NodeEnv,
    OP_CHANNEL_UPDATE,
    OP_HELLO,
    OP_HELLO_ACK,
    OP_HOST_CONSUMER_LOCK,
    OP_JOIN_REPLY,
    OP_JOIN_REQUEST,
    OP_UNLOCK_PRODUCER,
    OP_WITHDRAW,
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
from yodel.scenario import load_world
from yodel.services import ServiceModel
from yodel.sim import SimConfig, Simulation
from yodel.trace import Metrics, Trace
from yodel.ynid import Yni


def nid(n: int) -> Yni:
    return Yni(n.to_bytes(6, "big"), 0)


E1 = nid(0x11)
H1 = nid(0xF1)
H2 = nid(0xF2)
H3 = nid(0xF3)
C1 = nid(0xA1)
X1 = nid(0xB1)
X2 = nid(0xB2)

ONE_HOST = """\
domain d
node e1 edge d
host h1 alice
"""


class FakeEnv:
    """Immediate-delivery link fabric for single-node and few-node tests."""

    def __init__(self, seed=7):
        self.trace = Trace()
        self.metrics = Metrics()
        self.config = SimConfig()
        self.tick = 0
        self.seed = seed
        self._rngs = {}
        self._serial = 0
        self.nodes = {}
        self.sent = []   # (src_label, dst_yni, msg, mcast)
        self.rpcs = []   # (src_label, payload)
        self.down = set()
        self.deliver = True

    def register(self, node):
        self.nodes[node.yni] = node
        return node

    def now(self):
        return self.tick

    def rng(self, label):
        if label not in self._rngs:
            self._rngs[label] = random.Random(f"{self.seed}:{label}")
        return self._rngs[label]

    def next_serial(self):
        self._serial += 1
        return self._serial

    def transmit(self, src, pairs, mcast=False):
        for dst, msg in list(pairs):
            self.sent.append((src.label, dst, msg, mcast))
            # a down host's access link is down both ways, as in
            # Simulation: its own sends are lost too
            if (self.deliver and dst not in self.down
                    and src.yni not in self.down):
                node = self.nodes.get(dst)
                if node is not None:
                    node.on_message(msg)

    def controller_rpc(self, src, payload):
        self.rpcs.append((src.label, payload))

    def sync_hosts(self, edge, hosts):
        for host in hosts:
            if host not in self.down:
                edge.twin.on_sync_reply(host)

    def host_attached(self, edge, host):
        return host not in self.down

    def label_of(self, yni):
        node = self.nodes.get(yni)
        return node.label if node is not None else str(yni)


def delivered(env, label):
    """(app, serial) of each DELIVER line `label` emitted, in order. The
    fake, like `Simulation`, numbers data sends from 1, so a test's n-th
    send has serial n."""
    return [(int(f["app"]), int(f["serial"])) for f in
            (dict(r.fields) for r in env.trace.select("DELIVER", n=label))]


def test_simulation_and_fake_provide_every_node_env_member():
    methods = [name for name in vars(NodeEnv) if not name.startswith("_")]
    assert {"host_attached", "label_of"} <= set(methods)
    assert "config" in NodeEnv.__annotations__
    topo, scen, errors = load_world(ONE_HOST, "")
    assert errors == []
    for env in (Simulation(topo, scen, SimConfig()), FakeEnv()):
        for name in NodeEnv.__annotations__:
            assert hasattr(env, name), (type(env).__name__, name)
        for name in methods:
            declared = list(inspect.signature(getattr(NodeEnv, name))
                            .parameters)[1:]
            given = list(inspect.signature(getattr(env, name)).parameters)
            assert given == declared, (type(env).__name__, name)


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
        got = parse_op(op_channel_update(77, "room"))
        assert got == {"op": OP_CHANNEL_UPDATE, "old_channel": 77,
                       "community": "room"}

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


def make_host(env, yni=H1, label="h1", user="alice"):
    host = HostNode(label, yni, env, user)
    host.attach(E1, "d1")
    return env.register(host)


def reply_msg(role, community="room", *, valley=1, ns=1, app=1, channel=100,
              lock_host=False, model=ServiceModel.SSM, randomized=False,
              q=65535):
    return YodelMessage(
        MessageKind.CONTROL_YPP, E1, H1,
        FloatingHeader(valley_id=valley, channel_id=channel, namespace_id=ns,
                       application_id=app,
                       metadata=op_join_reply(role, community,
                                              lock_host=lock_host, model=model,
                                              randomized=randomized, q=q)))


class TestHostNode:
    def test_join_request_goes_to_edge(self):
        env = FakeEnv()
        host = make_host(env)
        host.request_join(1, 1, "room", "producer", app_id=4, ttl=9)
        (_, dst, msg, _) = env.sent[-1]
        assert dst == E1
        op = parse_op(msg.floating.metadata)
        assert op["role"] == "producer" and op["ttl"] == 9
        assert msg.floating.application_id == 4

    def test_join_reply_installs_rows(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer", lock_host=True))
        row = host.prt[(1, "room", 1)]
        assert row.locked and row.channel_id == 100
        assert host.by_channel[(1, 100)] == "room"

    def test_member_reply_fills_both_tables(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("member", model=ServiceModel.MMM))
        assert (1, "room", 1) in host.prt
        assert (1, "room", 1) in host.crt

    def test_send_without_registration_drops(self):
        env = FakeEnv()
        host = make_host(env)
        host.send_data(1, "room", 1, b"x")
        assert env.trace.count("DROP", reason="no_registration") == 1

    def test_locked_producer_drops(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer", lock_host=True))
        host.send_data(1, "room", 1, b"x")
        assert env.trace.count("DROP", reason="producer_locked") == 1
        assert not [s for s in env.sent if s[2].kind is MessageKind.DATA_YPP]

    def test_send_reaches_edge_and_local_consumer(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer"))
        host.on_message(reply_msg("consumer", app=2))
        host.send_data(1, "room", 1, b"hi")
        wire = [s for s in env.sent if s[2].kind is MessageKind.DATA_YPP]
        assert len(wire) == 1 and wire[0][1] == E1
        serial, q = parse_data_metadata(MessageKind.DATA_YPP,
                                        wire[0][2].floating.metadata)
        assert q is None
        assert delivered(env, "h1") == [(2, serial)]

    def test_no_echo_to_sending_member(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("member", model=ServiceModel.MMM))
        host.send_data(1, "room", 1, b"hi")
        assert delivered(env, "h1") == []

    def test_randomized_send_uses_anycast_kind(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer", model=ServiceModel.AC,
                                  randomized=True, q=30000))
        host.send_data(1, "room", 1, b"x")
        wire = [s for s in env.sent
                if s[2].kind is MessageKind.ANYCAST_DATA_YPP]
        assert len(wire) == 1
        _, q = parse_data_metadata(MessageKind.ANYCAST_DATA_YPP,
                                   wire[0][2].floating.metadata)
        assert q == 30000

    def test_incoming_data_delivers_all_unlocked(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("consumer", app=1, model=ServiceModel.SLAC,
                                  randomized=False))
        host.on_message(reply_msg("consumer", app=2, model=ServiceModel.SLAC,
                                  randomized=False))
        host.set_consumer_lock(1, "room", 2, True)
        data = YodelMessage(MessageKind.DATA_YPP, E1, H1,
                            FloatingHeader(valley_id=1, channel_id=100,
                                           metadata=data_metadata(1)),
                            b"d")
        host.on_message(data)
        assert delivered(env, "h1") == [(1, 1)]

    def test_unknown_channel_drops(self):
        env = FakeEnv()
        host = make_host(env)
        data = YodelMessage(MessageKind.DATA_YPP, E1, H1,
                            FloatingHeader(valley_id=1, channel_id=999,
                                           metadata=data_metadata(1)),
                            b"d")
        host.on_message(data)
        assert env.trace.count("DROP", reason="unknown_channel") == 1

    def test_anycast_incoming_picks_one_app(self):
        env = FakeEnv()
        host = make_host(env)
        for app in (1, 2, 3):
            host.on_message(reply_msg("consumer", app=app,
                                      model=ServiceModel.AC, randomized=True))
        data = YodelMessage(MessageKind.ANYCAST_DATA_YPP, E1, H1,
                            FloatingHeader(valley_id=1, channel_id=100,
                                           metadata=data_metadata(1, 65535)),
                            b"d")
        host.on_message(data)
        assert len(delivered(env, "h1")) == 1

    def test_self_lock_needs_anycast_family(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("consumer", model=ServiceModel.SSM))
        with pytest.raises(ServiceForbidsSelfLock):
            host.set_consumer_lock(1, "room", 1, True)

    def test_all_locked_sends_host_lock_op(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("consumer", app=1, model=ServiceModel.AC))
        host.on_message(reply_msg("consumer", app=2, model=ServiceModel.AC))
        host.set_consumer_lock(1, "room", 1, True)
        op = parse_op(env.sent[-1][2].floating.metadata)
        assert op["op"] == OP_HOST_CONSUMER_LOCK and op["locked"] is False
        host.set_consumer_lock(1, "room", 2, True)
        op = parse_op(env.sent[-1][2].floating.metadata)
        assert op["locked"] is True
        host.set_consumer_lock(1, "room", 1, False)
        op = parse_op(env.sent[-1][2].floating.metadata)
        assert op["locked"] is False

    def test_ttl_expires_registration(self):
        env = FakeEnv()
        host = make_host(env)
        host.request_join(1, 1, "room", "producer", app_id=1, ttl=5)
        host.on_message(reply_msg("producer"))
        env.tick = 6
        host.send_data(1, "room", 1, b"x")
        assert env.trace.count("DROP", reason="no_registration") == 1
        assert env.trace.count("EXPIRE") == 1
        assert (1, "room", 1) not in host.prt

    def test_channel_update_rekeys(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("consumer"))
        upd = YodelMessage(
            MessageKind.CONTROL_YPP, E1, H1,
            FloatingHeader(valley_id=1, channel_id=200,
                           metadata=op_channel_update(100, "room")))
        host.on_message(upd)
        assert host.by_channel == {(1, 200): "room"}
        assert host.crt[(1, "room", 1)].channel_id == 200

    def test_gate_holds_sends_until_ack(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer"))
        host.begin_reconnect()
        assert parse_op(env.sent[-1][2].floating.metadata)["op"] == OP_HELLO
        host.send_data(1, "room", 1, b"queued")
        assert not [s for s in env.sent if s[2].kind is MessageKind.DATA_YPP]
        ack = YodelMessage(MessageKind.CONTROL_YPP, E1, H1,
                           FloatingHeader(metadata=op_hello_ack()))
        host.on_message(ack)
        wire = [s for s in env.sent if s[2].kind is MessageKind.DATA_YPP]
        assert len(wire) == 1 and wire[0][2].payload == b"queued"

    def test_empty_control_message_is_a_proto_error(self):
        env = FakeEnv()
        host = make_host(env)
        host.on_message(reply_msg("producer"))
        sent = len(env.sent)
        host.on_message(YodelMessage(MessageKind.CONTROL_YPP, E1, H1,
                                     FloatingHeader()))
        assert env.metrics.proto_errors == 1
        assert env.trace.count("PROTO_ERROR", n="h1",
                               reason="empty op payload") == 1
        assert len(env.sent) == sent


# ---------------------------------------------------------------------------
# edge behavior


def make_edge(env, label="e1", yni=E1):
    edge = EdgeNode(label, yni, "d1", env)
    return env.register(edge)


def joined_edge(env, *, model=ServiceModel.SSM, randomized=False, q=65535,
                lock_edge=False, channel=100):
    """Edge with H1 as producer and H2 as consumer in community 'room'."""
    edge = make_edge(env)
    h1 = make_host(env, H1, "h1")
    h2 = make_host(env, H2, "h2", user="bob")
    h2.attach(E1, "d1")
    edge.attach_host(H1)
    edge.attach_host(H2)
    role1 = "member" if model is ServiceModel.MMM else "producer"
    role2 = "member" if model is ServiceModel.MMM else "consumer"
    h1.request_join(1, 1, "room", role1, app_id=1)
    edge.on_controller(JoinReply(1, 1, "room", role1, H1, 1, channel,
                                 lock_edge, model, randomized, q))
    h2.request_join(1, 1, "room", role2, app_id=1)
    if model is ServiceModel.MMM:
        pass  # member covers both roles; cached join handled locally
    else:
        edge.on_controller(JoinReply(1, 1, "room", role2, H2, 1, channel,
                                     False, model, randomized, q))
    return edge, h1, h2


class TestEdgeJoins:
    def test_first_join_asks_controller(self):
        env = FakeEnv()
        edge = make_edge(env)
        host = make_host(env)
        edge.attach_host(H1)
        host.request_join(1, 1, "room", "producer", app_id=1)
        assert len(env.rpcs) == 1
        req = env.rpcs[0][1]
        assert isinstance(req, JoinRequest)
        assert req.edge == E1 and req.role == "producer"

    def test_reply_creates_row_and_answers_host(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        row = edge.fibs[1].rows[(1, "room")]
        assert row.roles == {"producer", "consumer"}
        assert row.active and not row.edge_locked
        assert (H1, 1) in row.producer_apps
        assert (H2, 1) in row.consumer_apps
        assert (1, "room", 1) in h1.prt
        assert (1, "room", 1) in h2.crt

    def test_cached_join_skips_controller(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        before = len(env.rpcs)
        h3 = make_host(env, H3, "h3", user="cara")
        h3.attach(E1, "d1")
        edge.attach_host(H3)
        h3.request_join(1, 1, "room", "consumer", app_id=1)
        assert len(env.rpcs) == before
        assert (1, "room", 1) in h3.crt
        assert (H3, 1) in edge.fibs[1].rows[(1, "room")].consumer_apps

    def test_cached_producer_join_gets_host_lock(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h3 = make_host(env, H3, "h3", user="cara")
        h3.attach(E1, "d1")
        edge.attach_host(H3)
        h3.request_join(1, 1, "room", "producer", app_id=1)
        row = edge.fibs[1].rows[(1, "room")]
        assert row.producer_apps[(H3, 1)] is True
        assert h3.prt[(1, "room", 1)].locked

    def test_concurrent_joins_share_one_request(self):
        env = FakeEnv()
        edge = make_edge(env)
        h1 = make_host(env, H1, "h1")
        h2 = make_host(env, H2, "h2", user="bob")
        edge.attach_host(H1)
        edge.attach_host(H2)
        h1.request_join(1, 1, "room", "consumer", app_id=1)
        h2.request_join(1, 1, "room", "consumer", app_id=1)
        assert len(env.rpcs) == 1
        edge.on_controller(JoinReply(1, 1, "room", "consumer", H1, 1, 100,
                                     False, ServiceModel.SSM, False, 65535))
        row = edge.fibs[1].rows[(1, "room")]
        assert row.consumer_apps == {(H1, 1), (H2, 1)}

    def test_on_hold_reply_locks_edge(self):
        env = FakeEnv()
        edge = make_edge(env)
        h1 = make_host(env, H1, "h1")
        edge.attach_host(H1)
        h1.request_join(1, 1, "room", "producer", app_id=1)
        edge.on_controller(JoinReply(1, 1, "room", "producer", H1, 1, 100,
                                     True, ServiceModel.SSM, False, 65535))
        row = edge.fibs[1].rows[(1, "room")]
        assert row.edge_locked and not row.active
        assert row.producer_apps[(H1, 1)] is True
        assert h1.prt[(1, "room", 1)].locked

    def test_activate_unlocks_edge_and_next_producer(self):
        env = FakeEnv()
        edge = make_edge(env)
        h1 = make_host(env, H1, "h1")
        edge.attach_host(H1)
        h1.request_join(1, 1, "room", "producer", app_id=1)
        edge.on_controller(JoinReply(1, 1, "room", "producer", H1, 1, 100,
                                     True, ServiceModel.SSM, False, 65535))
        edge.on_controller(ActivateProducerEdge(1, 1, "room", 100))
        row = edge.fibs[1].rows[(1, "room")]
        assert row.active and not row.edge_locked
        assert row.producer_apps[(H1, 1)] is False
        assert not h1.prt[(1, "room", 1)].locked

    def test_withdraw_last_consumer_releases_role(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h2.withdraw(1, 1, "room", "consumer", 1)
        removes = [p for _, p in env.rpcs if isinstance(p, RemoveRole)]
        assert len(removes) == 1 and removes[0].role == "consumer"
        assert edge.fibs[1].rows[(1, "room")].roles == {"producer"}

    def test_unlocked_producer_withdraw_fails_over_locally(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h3 = make_host(env, H3, "h3", user="cara")
        h3.attach(E1, "d1")
        edge.attach_host(H3)
        h3.request_join(1, 1, "room", "producer", app_id=1)
        assert h3.prt[(1, "room", 1)].locked
        h1.withdraw(1, 1, "room", "producer", 1)
        row = edge.fibs[1].rows[(1, "room")]
        assert row.producer_apps == {(H3, 1): False}
        assert not h3.prt[(1, "room", 1)].locked
        assert not [p for _, p in env.rpcs if isinstance(p, RemoveRole)]

    def test_row_deleted_when_both_sides_empty(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h1.withdraw(1, 1, "room", "producer", 1)
        h2.withdraw(1, 1, "room", "consumer", 1)
        assert edge.fibs[1].rows == {}
        assert edge.fibs[1].by_channel == {}

    def test_member_withdraw_releases_member(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env, model=ServiceModel.MMM)
        h1.withdraw(1, 1, "room", "member", 1)
        h2.withdraw(1, 1, "room", "member", 1)
        removes = [p for _, p in env.rpcs if isinstance(p, RemoveRole)]
        assert [r.role for r in removes] == ["member"]


class TestEdgeData:
    def tree(self, *leaves):
        return PathTree(E1, tuple(PathTree(y) for y in leaves))

    def test_producer_data_reaches_local_consumer(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h1.send_data(1, "room", 1, b"pay")
        assert delivered(env, "h2") == [(1, 1)]

    def test_no_echo_back_to_producer_host(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        h1.on_message(reply_msg("consumer", app=2))
        row = edge.fibs[1].rows[(1, "room")]
        row.consumer_apps.add((H1, 2))
        h1.send_data(1, "room", 1, b"pay")
        # app 2 on the producing host hears it in-host, not via the edge
        assert delivered(env, "h1") == [(2, 1)]
        wire_to_h1 = [s for s in env.sent
                      if s[1] == H1 and s[2].kind is MessageKind.DATA_YPP]
        assert not wire_to_h1

    def test_unknown_channel_dropped(self):
        env = FakeEnv()
        edge = make_edge(env)
        msg = YodelMessage(MessageKind.DATA_YPP, H1, E1,
                           FloatingHeader(valley_id=1, channel_id=5,
                                          metadata=data_metadata(1)),
                           b"p")
        edge.on_message(msg)
        assert env.trace.count("DROP", reason="unknown_channel") == 1

    def test_unregistered_sender_dropped(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        msg = YodelMessage(MessageKind.DATA_YPP, H3, E1,
                           FloatingHeader(valley_id=1, channel_id=100,
                                          metadata=data_metadata(1)),
                           b"p")
        edge.on_message(msg)
        assert env.trace.count("DROP", reason="no_registration") == 1

    def test_locked_sender_dropped_at_edge(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        row = edge.fibs[1].rows[(1, "room")]
        row.producer_apps[(H1, 1)] = True
        msg = YodelMessage(MessageKind.DATA_YPP, H1, E1,
                           FloatingHeader(valley_id=1, channel_id=100,
                                          metadata=data_metadata(1)),
                           b"p")
        edge.on_message(msg)
        assert env.trace.count("DROP", reason="producer_locked") == 1

    def test_aft_tree_turns_data_into_sync(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        edge.aft[(1, 100)] = PathTree(E1, (PathTree(X1),))
        edge.act.add_neighbor(X1, 1)
        msg = YodelMessage(MessageKind.DATA_YPP, H1, E1,
                           FloatingHeader(valley_id=1, channel_id=100,
                                          metadata=data_metadata(1)),
                           b"p")
        edge.on_message(msg)
        sync = [s for s in env.sent if s[2].kind is MessageKind.DATA_YSYNC]
        assert len(sync) == 1
        assert sync[0][1] == X1
        assert sync[0][2].floating.path_tree == PathTree(X1)

    def test_network_sync_delivers_and_forwards(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        edge.act.add_neighbor(X1, 1)
        tree = PathTree(E1, (PathTree(X1),))
        msg = YodelMessage(MessageKind.DATA_YSYNC, C1, E1,
                           FloatingHeader(valley_id=1, channel_id=100,
                                          metadata=data_metadata(7),
                                          path_tree=tree),
                           b"p")
        edge.on_message(msg)
        assert delivered(env, "h2") == [(1, 7)]
        local = [s for s in env.sent
                 if s[1] == H2 and s[2].kind is MessageKind.DATA_YPP]
        assert len(local) == 1 and local[0][2].floating.path_tree is None
        onward = [s for s in env.sent
                  if s[2].kind is MessageKind.DATA_YSYNC]
        assert len(onward) == 1 and onward[0][1] == X1

    def test_root_mismatch_flags_protocol_error(self):
        env = FakeEnv()
        edge = make_edge(env)
        tree = PathTree(X1, (PathTree(E1),))
        msg = YodelMessage(MessageKind.DATA_YSYNC, C1, E1,
                           FloatingHeader(valley_id=1, channel_id=100,
                                          metadata=data_metadata(7),
                                          path_tree=tree),
                           b"p")
        edge.on_message(msg)
        # the codec's reason, as at a connector
        assert env.trace.count("PROTO_ERROR",
                               reason=f"path root is {X1}, not {E1}") == 1
        assert env.metrics.proto_errors == 1

    def test_pct_locked_host_not_delivered(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env, model=ServiceModel.AC)
        h2.set_consumer_lock(1, "room", 1, True)
        row = edge.fibs[1].rows[(1, "room")]
        assert H2 in row.locked_hosts
        h1.send_data(1, "room", 1, b"pay")
        assert delivered(env, "h2") == []

    def test_channel_update_renames_and_notifies(self):
        env = FakeEnv()
        edge, h1, h2 = joined_edge(env)
        edge.aft[(1, 100)] = PathTree(E1)
        edge.on_controller(ChannelIdUpdate(1, 100, 250))
        row = edge.fibs[1].rows[(1, "room")]
        assert row.channel_id == 250
        assert edge.fibs[1].by_channel == {250: (1, "room")}
        assert (1, 250) in edge.aft and (1, 100) not in edge.aft
        assert h1.prt[(1, "room", 1)].channel_id == 250
        assert h2.by_channel == {(1, 250): "room"}

    def test_path_advertisement_installs_tree(self):
        env = FakeEnv()
        edge = make_edge(env)
        from yodel.codec import encode
        tree = PathTree(E1, (PathTree(X1),))
        adv = encode(YodelMessage(
            MessageKind.CONTROL_YPP, C1, E1,
            FloatingHeader(valley_id=1, channel_id=100, path_tree=tree)))
        edge.on_controller(PathAdvertisement(adv))
        assert edge.aft[(1, 100)] == tree

    def test_foreign_rooted_advertisement_rejected(self):
        env = FakeEnv()
        edge = make_edge(env)
        from yodel.codec import encode
        adv = encode(YodelMessage(
            MessageKind.CONTROL_YPP, C1, E1,
            FloatingHeader(valley_id=1, channel_id=100,
                           path_tree=PathTree(X1))))
        edge.on_controller(PathAdvertisement(adv))
        assert env.metrics.proto_errors == 1
        assert edge.aft == {}


# ---------------------------------------------------------------------------
# connector behavior


class TestConnectorNode:
    def test_only_sync_kinds_forwarded(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        msg = YodelMessage(MessageKind.DATA_YPP, H1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1)),
                           b"p")
        conn.on_message(msg)
        assert env.trace.count("DROP", reason="unhandled_kind") == 1

    def test_pops_and_forwards_children(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        conn.act.add_neighbor(X1, 1)
        conn.act.add_neighbor(X2, 1)
        tree = PathTree(C1, (PathTree(X1), PathTree(X2)))
        msg = YodelMessage(MessageKind.DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1),
                                          path_tree=tree),
                           b"p")
        conn.on_message(msg)
        assert sorted(s[1] for s in env.sent) == sorted([X1, X2])
        for _, dst, fwd, _ in env.sent:
            assert fwd.floating.path_tree == PathTree(dst)

    def test_group_covers_both_children_in_one_transmission(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        conn.act.add_neighbor(X1, 1)
        conn.act.add_neighbor(X2, 1)
        conn.act.add_group([X1, X2], 1)
        tree = PathTree(C1, (PathTree(X1), PathTree(X2)))
        msg = YodelMessage(MessageKind.DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1),
                                          path_tree=tree),
                           b"p")
        conn.on_message(msg)
        assert len(env.sent) == 2
        assert all(mcast for _, _, _, mcast in env.sent)

    def test_missing_route_drops_only_that_child(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        conn.act.add_neighbor(X1, 1)
        tree = PathTree(C1, (PathTree(X1), PathTree(X2)))
        msg = YodelMessage(MessageKind.DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1),
                                          path_tree=tree),
                           b"p")
        conn.on_message(msg)
        assert env.trace.count("DROP", reason="no_route") == 1
        assert [s[1] for s in env.sent] == [X1]

    def test_root_mismatch_is_protocol_error(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        msg = YodelMessage(MessageKind.DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1),
                                          path_tree=PathTree(X1)),
                           b"p")
        conn.on_message(msg)
        assert env.trace.count("PROTO_ERROR",
                               reason=f"path root is {X1}, not {C1}") == 1
        assert env.metrics.proto_errors == 1

    def test_anycast_zero_share_forwards_nothing(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        conn.act.add_neighbor(X1, 1)
        tree = PathTree(C1, (PathTree(X1),))
        msg = YodelMessage(MessageKind.ANYCAST_DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1, 0),
                                          path_tree=tree),
                           b"p")
        conn.on_message(msg)
        assert env.sent == []
        assert env.trace.count("DROP") == 0  # filtered, not dropped

    def test_anycast_full_share_forwards_all(self):
        env = FakeEnv()
        conn = env.register(ConnectorNode("c1", C1, "d1", env))
        conn.act.add_neighbor(X1, 1)
        conn.act.add_neighbor(X2, 1)
        tree = PathTree(C1, (PathTree(X1), PathTree(X2)))
        msg = YodelMessage(MessageKind.ANYCAST_DATA_YSYNC, E1, C1,
                           FloatingHeader(valley_id=1, channel_id=1,
                                          metadata=data_metadata(1, 65535),
                                          path_tree=tree),
                           b"p")
        conn.on_message(msg)
        assert sorted(s[1] for s in env.sent) == sorted([X1, X2])


# ---------------------------------------------------------------------------
# the data receive step every node kind shares


def _host_receiver(env):
    host = make_host(env)
    host.on_message(reply_msg("consumer"))
    return host, E1, None


def _edge_producer_receiver(env):
    edge, _, _ = joined_edge(env)
    edge.aft[(1, 100)] = PathTree(E1, (PathTree(X1),))
    edge.act.add_neighbor(X1, 1)
    return edge, H1, None


def _edge_network_receiver(env):
    edge, _, _ = joined_edge(env)
    edge.act.add_neighbor(X1, 1)
    return edge, C1, PathTree(E1, (PathTree(X1),))


def _connector_receiver(env):
    conn = env.register(ConnectorNode("c1", C1, "d1", env))
    conn.act.add_neighbor(X1, 1)
    return conn, E1, PathTree(C1, (PathTree(X1),))


# (node, sender, path tree) that delivers or forwards a well-formed data
# message; with a tree the message is of a sync kind, else of a push kind
RECEIVERS = {
    "host": _host_receiver,
    "edge-from-host": _edge_producer_receiver,
    "edge-from-network": _edge_network_receiver,
    "connector": _connector_receiver,
}


def data_at(where, anycast, metadata):
    """A fresh receiver, its environment and a data message addressed to
    it with the given metadata."""
    env = FakeEnv()
    node, sender, tree = RECEIVERS[where](env)
    if tree is None:
        kind = MessageKind.ANYCAST_DATA_YPP if anycast else MessageKind.DATA_YPP
    else:
        kind = MessageKind.ANYCAST_DATA_YSYNC if anycast \
            else MessageKind.DATA_YSYNC
    msg = YodelMessage(kind, sender, node.yni,
                       FloatingHeader(valley_id=1, channel_id=100,
                                      metadata=metadata, path_tree=tree),
                       b"p")
    return env, node, msg


@pytest.mark.parametrize("where", RECEIVERS)
@pytest.mark.parametrize("anycast,metadata", [
    (False, b"\x01"),              # serial cut short
    (True, data_metadata(1)),      # delivery fraction missing
], ids=["plain", "anycast"])
def test_malformed_data_metadata_is_one_protocol_error(where, anycast,
                                                       metadata):
    env, node, msg = data_at(where, anycast, metadata)
    before = len(env.sent)
    node.on_message(msg)
    assert env.trace.count("PROTO_ERROR") == 1
    assert env.metrics.proto_errors == 1
    assert env.trace.count("DELIVER") == 0
    assert env.sent[before:] == []


@pytest.mark.parametrize("where", RECEIVERS)
@pytest.mark.parametrize("anycast,metadata", [
    (False, data_metadata(1)),
    (True, data_metadata(1, 65535)),
], ids=["plain", "anycast"])
def test_well_formed_data_is_delivered_or_forwarded(where, anycast, metadata):
    env, node, msg = data_at(where, anycast, metadata)
    before = len(env.sent)
    node.on_message(msg)
    assert env.trace.count("PROTO_ERROR") == 0
    assert env.trace.count("DELIVER") + len(env.sent) - before > 0


# ---------------------------------------------------------------------------
# twin records


def twin_world(env, **config):
    """Edge with producer H1 and consumers H2, H3, under the given config.
    The config is set first: attaching a host creates its twin record."""
    env.config = SimConfig(**config)
    edge, h1, h2 = joined_edge(env)
    h3 = make_host(env, H3, "h3", user="cara")
    h3.attach(E1, "d1")
    edge.attach_host(H3)
    h3.request_join(1, 1, "room", "consumer", app_id=1)
    return edge, h1, h2, h3


def detect(env, edge, host_yni, sweeps=3):
    env.down.add(host_yni)
    for _ in range(sweeps):
        env.tick += 1
        edge.twin.sweep()


class TestTwin:
    def test_create_mints_stand_in(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        assert env.trace.count("TWIN_CREATE") == 3
        recs = edge.twin.records
        assert {r.host for r in recs.values()} == {H1, H2, H3}
        alphorns = {r.alphorn for r in recs.values()}
        assert len(alphorns) == 3 and not (alphorns & {H1, H2, H3})

    def test_same_seed_same_stand_in(self):
        ids = []
        for _ in range(2):
            env = FakeEnv(seed=13)
            edge, *_ = twin_world(env)
            ids.append(sorted(str(r.alphorn)
                              for r in edge.twin.records.values()))
        assert ids[0] == ids[1]

    def test_sweep_queries_and_reply_refreshes(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_ttl=50)
        env.tick = 5
        edge.twin.sweep()
        assert env.trace.count("TWIN_SYNC", n="e1", queried="3",
                               missed="0") == 1
        rec = edge.twin.records[H1]
        assert rec.expire_at == 55

    def test_empty_control_message_at_edge_is_a_proto_error(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_ttl=50)
        env.tick = 20
        edge.on_message(YodelMessage(MessageKind.CONTROL_YPP, H1, E1,
                                     FloatingHeader()))
        assert env.metrics.proto_errors == 1
        assert env.trace.count("PROTO_ERROR", n="e1",
                               reason="empty op payload") == 1
        # not a keepalive reply: the record keeps its old lifetime
        assert edge.twin.records[H1].expire_at == 50

    def test_missed_sweeps_activate(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2, sweeps=2)
        assert env.trace.count("TWIN_ACTIVE") == 0
        detect(env, edge, H2, sweeps=1)
        assert env.trace.count("TWIN_ACTIVE", host="h2") == 1
        # the stand-in keeps the host's own id in the consumer table
        row = edge.fibs[1].rows[(1, "room")]
        assert (H2, 1) in row.consumer_apps
        assert edge.twin.is_active(H2)

    def test_traffic_buffers_while_active(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2)
        h1.send_data(1, "room", 1, b"m1")
        h1.send_data(1, "room", 1, b"m2")
        rec = edge.twin.records[H2]
        assert [m.payload for m in rec.buffer] == [b"m1", b"m2"]
        assert env.metrics.buffered_total == 2
        assert env.metrics.buffer_peaks["h2"] == 2
        # the healthy consumer still hears everything
        assert delivered(env, "h3") == [(1, 1), (1, 2)]

    def test_buffer_cap_drops_oldest(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_buffer_max=2)
        detect(env, edge, H2)
        for i in range(4):
            h1.send_data(1, "room", 1, f"m{i}".encode())
        rec = edge.twin.records[H2]
        assert [m.payload for m in rec.buffer] == [b"m2", b"m3"]
        assert env.metrics.buffer_dropped == 2

    @pytest.mark.parametrize("buffer_max, dropped, peaks, flushed", [
        (0, 4, {}, []),
        (1, 3, {"h2": 1}, [b"m3"]),
        (None, 0, {"h2": 4}, [b"m0", b"m1", b"m2", b"m3"]),
    ])
    def test_buffer_bound_counts_and_flushes_newest(self, buffer_max, dropped,
                                                    peaks, flushed):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_buffer_max=buffer_max)
        detect(env, edge, H2)
        for i in range(4):
            h1.send_data(1, "room", 1, f"m{i}".encode())
        # a channel change while away rekeys what is buffered, in order
        edge.on_controller(ChannelIdUpdate(1, 100, 300))
        assert env.metrics.buffered_total == 4
        assert env.metrics.buffer_dropped == dropped
        assert env.metrics.buffer_peaks == peaks
        buffered = edge.twin.records[H2].buffer
        assert [m.payload for m in buffered] == flushed
        assert all(m.floating.channel_id == 300 for m in buffered)
        serials = [parse_data_metadata(m.kind, m.floating.metadata)[0]
                   for m in buffered]
        env.down.discard(H2)
        h2.begin_reconnect()
        assert delivered(env, "h2") == [(1, serial) for serial in serials]
        assert env.trace.count("TWIN_FLUSH", host="h2",
                               count=str(len(flushed))) == 1
        assert not edge.twin.records[H2].buffer

    def test_producer_loss_fails_over_to_locked_local(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        h3.request_join(1, 1, "room", "producer", app_id=2)
        assert h3.prt[(1, "room", 2)].locked
        detect(env, edge, H1)
        row = edge.fibs[1].rows[(1, "room")]
        assert row.producer_apps[(H1, 1)] is True
        assert row.producer_apps[(H3, 2)] is False
        assert not h3.prt[(1, "room", 2)].locked
        assert not [p for _, p in env.rpcs if isinstance(p, RemoveRole)]

    def test_producer_loss_without_candidate_resigns(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H1)
        removes = [p for _, p in env.rpcs if isinstance(p, RemoveRole)]
        assert [r.role for r in removes] == ["producer"]
        row = edge.fibs[1].rows[(1, "room")]
        assert "producer" not in row.roles and not row.active
        assert row.producer_apps[(H1, 1)] is True  # kept, locked

    def test_return_flushes_in_order_then_acks(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2)
        for i in range(3):
            h1.send_data(1, "room", 1, f"m{i}".encode())
        env.down.discard(H2)
        h2.begin_reconnect()
        assert delivered(env, "h2") == [(1, 1), (1, 2), (1, 3)]
        assert env.trace.count("TWIN_FLUSH", host="h2", count="3") == 1
        assert not h2.gated
        row = edge.fibs[1].rows[(1, "room")]
        assert (H2, 1) in row.consumer_apps
        rec = edge.twin.records[H2]
        assert not rec.active and rec.buffer == []

    def test_corrections_precede_flush(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2)
        h1.send_data(1, "room", 1, b"m")
        # community changed channel while away; the correction must land
        # before the replay or the host cannot map it
        edge.on_controller(ChannelIdUpdate(1, 100, 300))
        env.down.discard(H2)
        h2.begin_reconnect()
        assert delivered(env, "h2") == [(1, 1)]
        assert h2.crt[(1, "room", 1)].channel_id == 300

    def test_quick_return_without_activation_just_resyncs(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2, sweeps=1)
        env.down.discard(H2)
        h2.begin_reconnect()
        assert env.trace.count("TWIN_FLUSH") == 0
        assert env.trace.count("TWIN_ACTIVE") == 0
        assert not h2.gated
        assert edge.twin.records[H2].missed == 0

    def test_away_host_sends_reach_no_one(self):
        # a down host's access link is down both ways: a join request made
        # while away is sent but never reaches the edge, which neither
        # admits nor answers it
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        detect(env, edge, H2)
        sent, traced = len(env.sent), len(env.trace.records)
        h2.request_join(1, 1, "room", "producer", app_id=2)
        assert [src for src, *_ in env.sent[sent:]] == ["h2"]
        assert (H2, 2) not in edge.fibs[1].rows[(1, "room")].producer_apps
        assert len(env.trace.records) == traced

    def test_expiry_purges_registrations(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_ttl=10)
        detect(env, edge, H2)
        env.tick = 30
        edge.twin.sweep()
        assert env.trace.count("TWIN_EXPIRE", host="h2") == 1
        assert H2 not in edge.twin.records
        row = edge.fibs[1].rows[(1, "room")]
        assert all(h != H2 for h, _ in row.consumer_apps)

    def test_expiry_of_last_consumer_releases_role(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_ttl=10)
        h3.withdraw(1, 1, "room", "consumer", 1)
        detect(env, edge, H2)
        env.tick = 30
        edge.twin.sweep()
        removes = [p for _, p in env.rpcs if isinstance(p, RemoveRole)]
        assert any(r.role == "consumer" for r in removes)

    def test_post_expiry_return_is_fresh(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env, twin_ttl=10)
        detect(env, edge, H2)
        h1.send_data(1, "room", 1, b"lost")
        env.tick = 30
        edge.twin.sweep()
        creates = env.trace.count("TWIN_CREATE")
        env.down.discard(H2)
        h2.begin_reconnect()
        assert env.trace.count("TWIN_CREATE") == creates + 1
        assert env.trace.count("TWIN_FLUSH") == 0
        assert delivered(env, "h2") == []
        assert not h2.gated

    def test_active_host_excluded_from_failover(self):
        env = FakeEnv()
        edge, h1, h2, h3 = twin_world(env)
        h2.request_join(1, 1, "room", "producer", app_id=2)
        detect(env, edge, H2)   # the backup producer's host goes silent
        detect(env, edge, H1)   # then the active producer's host
        row = edge.fibs[1].rows[(1, "room")]
        # H2 cannot take over while twin-active; the role is resigned
        assert row.producer_apps[(H2, 2)] is True
        removes = [p for _, p in env.rpcs if isinstance(p, RemoveRole)]
        assert [r.role for r in removes] == ["producer"]


ANYCAST_CONSUMERS = (H2, H3, nid(0xF4), nid(0xF5), nid(0xF6))


def anycast_copies(seed, away):
    """(host, payload) of every copy edge e1 hands to a consumer host of a
    randomized anycast community, sent or buffered, over eight sends by H1
    with `away` (if any) twin-active."""
    env = FakeEnv(seed=seed)
    edge, h1, _ = joined_edge(env, model=ServiceModel.AC, randomized=True,
                              q=32768)
    for i, yni in enumerate(ANYCAST_CONSUMERS[1:]):
        host = make_host(env, yni, f"k{i}", user="bob")
        edge.attach_host(yni)
        host.request_join(1, 1, "room", "consumer", app_id=1)
    if away is not None:
        detect(env, edge, away)
    for i in range(8):
        h1.send_data(1, "room", 1, f"m{i}".encode())
    sent = {(dst, m.payload) for src, dst, m, _ in env.sent
            if src == "e1" and m.kind is MessageKind.ANYCAST_DATA_YPP}
    buffered = {(rec.host, m.payload) for rec in edge.twin.records.values()
                for m in rec.buffer}
    return sent | buffered


@given(st.integers(0, 2**32 - 1), st.sampled_from(ANYCAST_CONSUMERS))
@example(0, H2)
@settings(max_examples=100, deadline=None)
def test_anycast_draw_ignores_which_host_is_away(seed, away):
    """An away host is drawn for in its own place: the edge's anycast draw
    picks the same consumer hosts whether one of them is away or not."""
    assert anycast_copies(seed, away) == anycast_copies(seed, None)
