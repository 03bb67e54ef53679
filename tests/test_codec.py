"""Wire formats: golden vectors, kind rules, tree pop, decode robustness."""

import copy
import pathlib
import pickle
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yodel.codec import (
    FIXED_HEADER_LEN,
    MAX_FANOUT,
    FloatingHeader,
    MessageKind,
    PathTree,
    YodelMessage,
    _read_tree,
    decode,
    encode,
    pop_path_root,
)
from yodel.dataplane import data_metadata
from yodel.errors import (
    CodecError,
    DuplicateTlv,
    InvariantViolation,
    LengthMismatch,
    MalformedFloating,
    RootMismatch,
    TruncatedMessage,
    UnknownKind,
)
from yodel.ynid import Yni

from textworld import build_text, step

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "wire_golden.txt"

SND = Yni(bytes.fromhex("001b44113ab7"), 0)
RCV = Yni(bytes.fromhex("0a0b0c0d0e0f"), 1)
A = Yni(bytes.fromhex("aa" * 6), 0)
B = Yni(bytes.fromhex("bb" * 6), 0)
C = Yni(bytes.fromhex("cc" * 6), 0)
E = Yni(bytes.fromhex("0e" * 6), 0)


def golden():
    out = {}
    for line in FIXTURES.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, hexdump = line.split()
        out[name] = bytes.fromhex(hexdump)
    return out


def golden_messages():
    tree = PathTree(A, (PathTree(B), PathTree(C)))
    return {
        "control_with_tenancy_ids": YodelMessage(
            MessageKind.CONTROL_YPP, SND, RCV,
            FloatingHeader(valley_id=1, namespace_id=7, application_id=9)),
        "data_push_with_metadata": YodelMessage(
            MessageKind.DATA_YPP, SND, RCV,
            FloatingHeader(valley_id=1, channel_id=2,
                           metadata=bytes.fromhex("000000010000")),
            b"hi"),
        "sync_with_three_node_tree": YodelMessage(
            MessageKind.DATA_YSYNC, E, A,
            FloatingHeader(valley_id=1, channel_id=2, path_tree=tree),
            b"payload"),
    }


@pytest.mark.parametrize("name", sorted(golden_messages()))
def test_golden_vectors_encode_and_decode(name):
    raw = golden()[name]
    msg = golden_messages()[name]
    assert encode(msg) == raw
    assert decode(raw) == msg


def test_total_length_arithmetic():
    msg = golden_messages()["sync_with_three_node_tree"]
    raw = encode(msg)
    floating = msg.floating.encode()
    assert len(raw) == FIXED_HEADER_LEN + len(floating) + len(msg.payload)
    assert len(floating) == 54


def test_empty_floating_header_encodes_to_zero_length():
    msg = YodelMessage(MessageKind.CONTROL_YPP, SND, RCV)
    raw = encode(msg)
    assert raw[21:23] == b"\x00\x00"
    assert len(raw) == FIXED_HEADER_LEN


@pytest.mark.parametrize("kind", [MessageKind.DATA_YPP, MessageKind.ANYCAST_DATA_YPP])
def test_path_tree_forbidden_on_data_push_kinds(kind):
    msg = YodelMessage(kind, SND, RCV, FloatingHeader(path_tree=PathTree(A)))
    with pytest.raises(InvariantViolation):
        encode(msg)


@pytest.mark.parametrize("kind", [MessageKind.CONTROL_YPP, MessageKind.DATA_YSYNC,
                                  MessageKind.ANYCAST_DATA_YSYNC])
def test_path_tree_allowed_on_control_and_sync_kinds(kind):
    msg = YodelMessage(kind, SND, RCV, FloatingHeader(path_tree=PathTree(A)))
    assert decode(encode(msg)) == msg


@pytest.mark.parametrize("kind", [MessageKind.DATA_YPP, MessageKind.DATA_YSYNC,
                                  MessageKind.ANYCAST_DATA_YSYNC,
                                  MessageKind.ANYCAST_DATA_YPP])
@pytest.mark.parametrize("floating", [FloatingHeader(namespace_id=1),
                                      FloatingHeader(application_id=1)])
def test_tenancy_ids_forbidden_on_data_kinds(kind, floating):
    with pytest.raises(InvariantViolation):
        encode(YodelMessage(kind, SND, RCV, floating))


def test_unknown_kind_byte():
    raw = bytearray(encode(YodelMessage(MessageKind.DATA_YPP, SND, RCV)))
    for bad in (0x00, 0x06, 0xFF):
        raw[0] = bad
        with pytest.raises(UnknownKind):
            decode(bytes(raw))


def test_truncation_at_every_prefix_is_typed():
    raw = encode(golden_messages()["sync_with_three_node_tree"])
    for cut in range(len(raw)):
        with pytest.raises((TruncatedMessage, CodecError)):
            decode(raw[:cut])


def test_trailing_garbage_rejected():
    raw = encode(YodelMessage(MessageKind.DATA_YPP, SND, RCV, payload=b"x"))
    with pytest.raises(LengthMismatch):
        decode(raw + b"\x00")


def _with_floating(kind: int, floating_hex: str) -> bytes:
    fl = bytes.fromhex(floating_hex)
    return (bytes([kind]) + SND.to_bytes() + RCV.to_bytes()
            + len(fl).to_bytes(2, "big") + (0).to_bytes(4, "big") + fl)


def test_duplicate_tag_rejected():
    with pytest.raises(DuplicateTlv):
        decode(_with_floating(0x01, "01000400000001" "01000400000002"))


def test_non_ascending_tags_rejected():
    with pytest.raises(MalformedFloating):
        decode(_with_floating(0x01, "0200080000000000000002" "01000400000001"))


def test_unknown_tag_rejected():
    with pytest.raises(MalformedFloating):
        decode(_with_floating(0x01, "07000141"))


def test_wrong_sized_fixed_element_rejected():
    with pytest.raises(LengthMismatch):
        decode(_with_floating(0x01, "0100020001"))


def test_path_tree_on_wire_data_push_rejected():
    tree_hex = "06000b" + A.to_bytes().hex() + "00"
    with pytest.raises(MalformedFloating):
        decode(_with_floating(0x02, tree_hex))


def test_tree_construction_rejects_repeats_and_overflow():
    with pytest.raises(InvariantViolation):
        PathTree(A, (PathTree(A),))
    kids = tuple(PathTree(Yni(i.to_bytes(6, "big"), 0)) for i in range(256))
    with pytest.raises(InvariantViolation, match="^path-tree fan-out above 255$"):
        PathTree(A, kids)
    assert PathTree(A, kids[:255]).size() == 256


def test_equal_trees_hash_equal():
    one = PathTree(A, (PathTree(B, (PathTree(E),)), PathTree(C)))
    two = PathTree(A, (PathTree(B, (PathTree(E),)), PathTree(C)))
    assert one is not two and one == two and hash(one) == hash(two)
    assert {one: 1}[two] == 1
    assert one != PathTree(A, (PathTree(C), PathTree(B, (PathTree(E),))))
    assert PathTree(A) != (A, ()) and PathTree(A) != A


def test_equal_trees_share_hash_and_repr():
    one, two = PathTree(A, (PathTree(B),)), PathTree(A, (PathTree(B),))
    assert one == two and hash(one) == hash(two)
    assert repr(one) == repr(two) == (
        f"PathTree(yni={A!r}, children=(PathTree(yni={B!r}, children=()),))")


def test_tree_fields_cannot_be_assigned_or_deleted():
    tree = PathTree(A, (PathTree(B),))
    for name, value in (("yni", C), ("children", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(tree, name, value)
    for name in ("yni", "children"):
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert tree == PathTree(A, (PathTree(B),))


def test_tree_repeat_below_a_child_names_the_node():
    with pytest.raises(InvariantViolation, match=f"repeated node in path tree: {A}$"):
        PathTree(A, (PathTree(B, (PathTree(A),)),))
    with pytest.raises(InvariantViolation, match=f"repeated node in path tree: {E}$"):
        PathTree(A, (PathTree(B, (PathTree(E),)), PathTree(C, (PathTree(E),))))


def test_decoded_tree_repeating_its_root_is_malformed():
    # the grandchild repeats the root: A -> B -> A
    tree = (A.to_bytes() + b"\x01" + B.to_bytes() + b"\x01"
            + A.to_bytes() + b"\x00")
    floating = bytes([0x06]) + len(tree).to_bytes(2, "big") + tree
    with pytest.raises(MalformedFloating, match=f"repeated node in path tree: {A}$"):
        decode(_with_floating(MessageKind.DATA_YSYNC, floating.hex()))


def test_tree_serialization_round_trip():
    tree = PathTree(A, (PathTree(B, (PathTree(E),)), PathTree(C)))
    raw = tree.records
    assert _read_tree(raw, 0, len(raw)) == tree
    assert tree.edges() == [(A, B), (B, E), (A, C)]


def chain(n):
    """A path tree n nodes deep, one child per node."""
    ids = [Yni(i.to_bytes(6, "big"), 0) for i in range(n)]
    return PathTree.from_preorder(ids, [1] * (n - 1) + [0])


def test_a_deep_tree_decodes_and_re_encodes_without_recursion():
    # far deeper than the interpreter's recursion limit
    tree = chain(1200)
    msg = YodelMessage(MessageKind.DATA_YSYNC, SND, RCV,
                       FloatingHeader(valley_id=1, channel_id=2,
                                      path_tree=tree), b"payload")
    raw = encode(msg)
    again = decode(raw)
    assert encode(again) == raw
    assert again.floating.path_tree.size() == 1200
    assert again == msg and hash(again) == hash(msg)
    with pytest.raises(TruncatedMessage):
        decode(raw[:-1])
    # the tree element itself cut inside its last record
    tree_raw = tree.records[:-1]
    floating = (bytes([0x06]) + len(tree_raw).to_bytes(2, "big") + tree_raw)
    with pytest.raises(TruncatedMessage, match="^path tree cut short$"):
        decode(_with_floating(MessageKind.DATA_YSYNC, floating.hex()))


def test_deep_trees_compare_hash_and_list_edges_by_value():
    one, two = chain(1500), chain(1500)
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != chain(1499) and one != chain(1501)
    assert one.edges() == two.edges()
    assert [b for _, b in one.edges()] == [n.yni for n in one.walk()][1:]


@pytest.mark.parametrize("clone", [
    repr, copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_a_deep_tree_survives_repr_copy_and_pickle(clone):
    tree = chain(1200)
    got = clone(tree)
    if clone is repr:
        ids = [node.yni for node in tree.walk()]
        assert got == ("".join(f"PathTree(yni={y!r}, children=(" for y in ids)
                       + "))" + ",))" * (len(ids) - 1))
        return
    assert got == tree and type(got) is PathTree
    assert all(type(node.yni) is Yni for node in got.walk())


def _chain_by_hand(n):
    """chain(n) built node by node with `PathTree(yni, children)`."""
    tree = PathTree(Yni((n - 1).to_bytes(6, "big"), 0))
    for i in range(n - 2, -1, -1):
        tree = PathTree(Yni(i.to_bytes(6, "big"), 0), (tree,))
    return tree


def test_a_deep_tree_is_built_in_linear_memory():
    # every node of a chain 1 200 deep built and kept, with no node holding
    # a copy of its subtree's bytes: those copies would take 7.9 MB
    for build in (chain, _chain_by_hand):
        tracemalloc.start()
        try:
            tree = build(1200)
            nodes = list(tree.walk())
            node, hops = tree, 0
            while node.children:
                (node,) = pop_path_root(node, node.yni)
                hops += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.size() == len(nodes) == hops + 1 == 1200
        assert tree == chain(1200) and node.records == tree.records[-11:]
        assert peak < 1 << 20
        del tree, nodes, node


def test_from_preorder_equals_trees_built_by_hand():
    by_hand = PathTree(A, (PathTree(B, (PathTree(E),)), PathTree(C)))
    built = PathTree.from_preorder([A, B, E, C], [2, 1, 0, 0])
    assert built == by_hand and hash(built) == hash(by_hand)
    with pytest.raises(InvariantViolation,
                       match=f"^repeated node in path tree: {A}$"):
        PathTree.from_preorder([A, B, A], [1, 1, 0])
    kids = [Yni(i.to_bytes(6, "big"), 0) for i in range(256)]
    with pytest.raises(InvariantViolation,
                       match="^path-tree fan-out above 255$"):
        PathTree.from_preorder([A] + kids, [256] + [0] * 256)


def test_pop_three_node_tree():
    # a tree read off the wire, where a tree rides in the header
    tree = decode(golden()["sync_with_three_node_tree"]).floating.path_tree
    out = pop_path_root(tree, A)
    assert out == (PathTree(B), PathTree(C))
    # the children themselves, not copies of them
    assert all(child is kid for child, kid in zip(out, tree.children))


def test_pop_leaf_yields_nothing():
    assert pop_path_root(PathTree(A), A) == ()


def test_pop_root_mismatch():
    tree = golden_messages()["sync_with_three_node_tree"].floating.path_tree
    with pytest.raises(RootMismatch,
                       match=f"^{re.escape(f'path root is {A}, not {B}')}$"):
        pop_path_root(tree, B)
    # a sync copy that came with no tree beside it
    with pytest.raises(RootMismatch,
                       match=f"^{re.escape(f'no path tree to pop at {A}')}$"):
        pop_path_root(None, A)


# --- property tests ---------------------------------------------------------

ynis = st.binary(min_size=10, max_size=10).map(Yni.from_bytes)


@st.composite
def path_trees(draw, depth=3):
    ynis_used = draw(st.lists(ynis, min_size=1, max_size=12, unique=True))

    def build(pool):
        root, rest = pool[0], pool[1:]
        if not rest:
            return PathTree(root)
        cuts = sorted(draw(st.lists(st.integers(0, len(rest)), max_size=3)))
        children, last = [], 0
        for cut in cuts + [len(rest)]:
            if cut > last:
                children.append(build(rest[last:cut]))
                last = cut
        return PathTree(root, tuple(children))

    return build(ynis_used)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    floating = FloatingHeader(
        valley_id=draw(st.none() | st.integers(0, 2**32 - 1)),
        channel_id=draw(st.none() | st.integers(0, 2**64 - 1)),
        namespace_id=draw(st.none() | st.integers(0, 2**32 - 1)) if kind.is_control else None,
        application_id=draw(st.none() | st.integers(0, 2**32 - 1)) if kind.is_control else None,
        metadata=draw(st.none() | st.binary(max_size=40)),
        path_tree=draw(st.none() | path_trees()) if (kind.is_sync or kind.is_control) else None,
    )
    return YodelMessage(kind, draw(ynis), draw(ynis), floating,
                        draw(st.binary(max_size=64)))


@given(messages())
@settings(max_examples=400, deadline=None)
def test_round_trip_identity(msg):
    assert decode(encode(msg)) == msg


@given(st.binary(max_size=120))
@settings(max_examples=600, deadline=None)
def test_decode_of_arbitrary_bytes_raises_only_typed_errors(raw):
    try:
        msg = decode(raw)
    except CodecError:
        return
    assert encode(msg) == raw


@given(messages(), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_encodings_never_crash_decoder(msg, data):
    raw = bytearray(encode(msg))
    if raw:
        i = data.draw(st.integers(0, len(raw) - 1))
        raw[i] = data.draw(st.integers(0, 255))
    try:
        again = decode(bytes(raw))
    except CodecError:
        return
    assert encode(again) == bytes(raw)


@given(path_trees())
@settings(max_examples=200, deadline=None)
def test_tree_size_counts_every_node(tree):
    assert tree.size() == sum(1 for _ in tree.walk())


def _nested_repr(tree: PathTree) -> str:
    """The repr of a tree node whose `children` repr is the tuple's own."""
    kids = tuple(_Shown(_nested_repr(c)) for c in tree.children)
    return f"PathTree(yni={tree.yni!r}, children={kids!r})"


class _Shown(str):
    def __repr__(self):
        return str(self)


@given(path_trees())
@settings(max_examples=200, deadline=None)
def test_tree_repr_is_the_nested_reprs(tree):
    assert repr(tree) == _nested_repr(tree)


@given(path_trees())
@settings(max_examples=200, deadline=None)
def test_recursive_pop_visits_every_edge_once(tree):
    visited = []

    def pump(node):
        for child in pop_path_root(node, node.yni):
            visited.append((node.yni, child.yni))
            pump(child)

    pump(tree)
    assert visited == tree.edges()


# c1 with four edge neighbours and a fifth that sends to it
STAR = "domain d\nnode c1 connector d\n" + "".join(
    f"node e{i} edge d\nlink c1 e{i} 1\n" for i in range(1, 6))


@given(path_trees(), st.sampled_from([MessageKind.DATA_YSYNC,
                                      MessageKind.ANYCAST_DATA_YSYNC]),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_forward_shares_the_arriving_message(drawn, kind, grouped):
    """A connector sends every child of the tree that arrives beside a
    sync copy the arriving message object itself, with the child's own
    subtree beside it, over unicast or a local multicast group alike."""
    topo = STAR + ("mcastgroup d c1 e1 e2 e3 e4\n" if grouped else "")
    sim = build_text(topo, "")
    c1, sender = sim.nodes["c1"], sim.nodes["e5"]
    edges = [sim.nodes[f"e{i}"] for i in range(1, 5)]
    # the drawn tree's shape, its root and children renamed to the world's
    tree = PathTree(c1.yni, tuple(PathTree(edge.yni, sub.children)
                                  for edge, sub in zip(edges, drawn.children)))
    got = []
    for edge in edges:
        edge.on_message = (lambda msg, meta, tree, label=edge.label:
                           got.append((label, msg, tree)))
    msg = YodelMessage(kind, sender.yni, c1.yni, FloatingHeader(
        valley_id=1, channel_id=1,
        metadata=data_metadata(1, None if kind is MessageKind.DATA_YSYNC
                               else 65535)), b"p")
    sim.transmit(sender, [(c1.yni, msg, tree)])
    step(sim, 2)
    assert sorted(label for label, _, _ in got) \
        == [edge.label for edge in edges[:len(tree.children)]]
    subtree = {edge.label: child for edge, child in zip(edges, tree.children)}
    for label, arrived, beside in got:
        assert arrived is msg
        assert beside is subtree[label]


def _recursive_read_tree(raw: bytes, off: int) -> tuple[PathTree, int]:
    """The tree reader the one-pass reader replaced, kept as its reference:
    one call per node, each subtree checked for repeats as it ends."""
    if off + 11 > len(raw):
        raise TruncatedMessage("path tree cut short")
    yni = Yni.from_bytes(raw[off:off + 10])
    count = raw[off + 10]
    off += 11
    children = []
    for _ in range(count):
        child, off = _recursive_read_tree(raw, off)
        children.append(child)
    try:
        return PathTree(yni, tuple(children)), off
    except InvariantViolation as exc:
        raise MalformedFloating(str(exc)) from exc


def _reference_deserialize(raw: bytes) -> PathTree:
    tree, used = _recursive_read_tree(raw, 0)
    if used != len(raw):
        raise LengthMismatch("trailing bytes after path tree")
    return tree


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=0, max_size=14),
       st.one_of(st.none(), st.integers(0, 160), st.binary(min_size=1,
                                                           max_size=13)))
@settings(max_examples=1500, deadline=None)
def test_one_pass_reader_agrees_with_the_recursive_reader(records, tail):
    """Preorder (id, child count) records from a pool of four ids, so
    repeats happen, cut short or followed by stray bytes: the one-pass
    reader returns an equal tree, or raises the same exception class."""
    pool = [A, B, C, E]
    raw = b"".join(pool[i] + bytes((count,)) for i, count in records)
    if isinstance(tail, int):
        raw = raw[:tail]
    elif tail is not None:
        raw += tail
    try:
        want = _reference_deserialize(raw)
    except CodecError as exc:
        with pytest.raises(type(exc)):
            _read_tree(raw, 0, len(raw))
        return
    got = _read_tree(raw, 0, len(raw))
    assert got == want
    pairs = list(zip(got.walk(), want.walk()))
    assert len(pairs) == want.size()


class NodeTree:
    """The node-built path tree that the records-backed `PathTree` replaced,
    kept as its reference: one object per node holding its `yni` and the
    tuple of its children, built bottom-up from preorder ids and child
    counts, compared node by node and serialized by a walk. Its repr names
    `PathTree`, the class it stands for."""

    __slots__ = ("yni", "children")

    def __init__(self, yni, children=()):
        self.yni = yni
        self.children = children

    @classmethod
    def from_preorder(cls, ids, counts):
        nodes = []
        for i in range(len(ids) - 1, -1, -1):
            kids = nodes[len(nodes) - counts[i]:]
            del nodes[len(nodes) - counts[i]:]
            nodes.append(cls(ids[i], tuple(reversed(kids))))
        return nodes[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            one, two = stack.pop()
            if (one.yni != two.yni
                    or len(one.children) != len(two.children)):
                return False
            stack += zip(one.children, two.children)
        return True

    def __hash__(self):
        return hash(tuple(x for node in self.walk()
                          for x in (node.yni, len(node.children))))

    def __repr__(self):
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            parts.append(f"PathTree(yni={item.yni!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            stack += [x for kid in reversed(kids) for x in (kid, ", ")][:-1]
        return "".join(parts)

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def edges(self):
        out = []
        stack = [(self.yni, c) for c in reversed(self.children)]
        while stack:
            parent, node = stack.pop()
            out.append((parent, node.yni))
            stack += [(node.yni, c) for c in reversed(node.children)]
        return out

    def size(self):
        return sum(1 for _ in self.walk())

    def serialize(self):
        return b"".join(node.yni + bytes((len(node.children),))
                        for node in self.walk())


def random_preorder(n, weights, seed):
    """Preorder ids and child counts of a random tree of n nodes. Node i
    hangs under node i - 1 (a chain), under the parent of node i - 1 (a
    sibling) or under one of the first four nodes (a hub), by `weights`,
    and under node i - 1 when the one drawn has 255 children already; so
    trees run thousands deep, 255 wide, or both."""
    rng = random.Random(seed)
    chances = [w + (not any(weights)) for w in weights]  # all 0: even
    parent, kids = [None], [[]]
    for i in range(1, n):
        how = rng.choices(("chain", "sibling", "hub"), chances)[0]
        if how == "hub":
            p = rng.randrange(min(i, 4))
        elif how == "sibling" and parent[i - 1] is not None:
            p = parent[i - 1]
        else:
            p = i - 1
        if len(kids[p]) == MAX_FANOUT:
            p = i - 1
        parent.append(p)
        kids.append([])
        kids[p].append(i)
    names = [Yni(x.to_bytes(6, "big"), 0) for x in rng.sample(range(2**48), n)]
    ids, counts, stack = [], [], [0]
    while stack:
        i = stack.pop()
        ids.append(names[i])
        counts.append(len(kids[i]))
        stack += reversed(kids[i])
    return ids, counts


def _by_hand(ids, counts):
    """The tree built node by node with `PathTree(yni, children)`."""
    nodes = []
    for i in range(len(ids) - 1, -1, -1):
        kids = nodes[len(nodes) - counts[i]:]
        del nodes[len(nodes) - counts[i]:]
        nodes.append(PathTree(ids[i], tuple(reversed(kids))))
    return nodes[0]


def _decoded(ids, counts):
    msg = YodelMessage(MessageKind.DATA_YSYNC, SND, RCV, FloatingHeader(
        valley_id=1, channel_id=2,
        path_tree=PathTree.from_preorder(ids, counts)), b"p")
    return decode(encode(msg)).floating.path_tree


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
       st.integers(0, 2**32))
@example(2000, (1, 0, 0), 0)  # a chain 2 000 deep
@example(1100, (0, 0, 1), 1)  # four hubs of 255 children, then a chain
@example(1, (1, 1, 1), 2)  # a lone root
def test_records_backed_trees_equal_the_node_built_reference(n, weights, seed):
    """Trees built by `PathTree(yni, children)`, by `from_preorder` (as
    `compute_path` builds) and by `decode` each equal the node-built
    reference in their bytes, `preorder`, `size`, `edges`, `repr`, every
    node's `yni`, children and records along `walk`, `==` and `hash`, and
    across copy and pickle."""
    ids, counts = random_preorder(n, weights, seed)
    ref = NodeTree.from_preorder(ids, counts)
    raw = ref.serialize()
    # each node's subtree size, read from the counts back to front
    sizes, owed = [0] * n, []
    for i in range(n - 1, -1, -1):
        sizes[i] = 1 + sum(owed.pop() for _ in range(counts[i]))
        owed.append(sizes[i])
    stride = max(1, n // 64)  # nodes whose subtree records are checked
    other_ids = ids[:-1] + [Yni(b"\xff" * 6, 1)]  # the last id changed
    other = PathTree.from_preorder(other_ids, counts)
    assert (other == PathTree.from_preorder(ids, counts)) \
        == (NodeTree.from_preorder(other_ids, counts) == ref)
    trees = set()
    for build in (_by_hand, PathTree.from_preorder, _decoded):
        tree = build(ids, counts)
        assert type(tree) is PathTree
        assert tree.records == raw
        assert tree.preorder() == (ids, bytes(counts))
        assert FloatingHeader(path_tree=tree).encode()[3:] == raw
        assert tree.size() == ref.size() == n
        assert tree.edges() == ref.edges()
        assert repr(tree) == repr(ref)
        assert tree == PathTree.from_preorder(ids, counts)
        assert hash(tree) == hash(PathTree.from_preorder(ids, counts))
        assert tree != other and tree != ref and tree != raw
        trees.add(tree)
        walked = list(tree.walk())
        assert len(walked) == n
        for i, (node, want) in enumerate(zip(walked, ref.walk())):
            assert type(node.yni) is Yni and node.yni == want.yni
            assert [c.yni for c in node.children] \
                == [c.yni for c in want.children]
            assert node.children is node.children
            if i % stride == 0 or i == n - 1:
                # a subtree's records are written out on each read, so
                # reading them at every node of a deep tree is quadratic
                assert node.records == raw[11 * i:11 * (i + sizes[i])]
                assert node.size() == sizes[i]
        for clone in (copy.copy, copy.deepcopy,
                      lambda x: pickle.loads(pickle.dumps(x))):
            got = clone(tree)
            assert type(got) is PathTree and got == tree
            assert got.records == raw and repr(got) == repr(ref)
            assert type(got.yni) is Yni
        del tree, walked
    assert len(trees) == 1
    assert hash(ref) == hash(NodeTree.from_preorder(ids, counts))


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copy_and_pickle_keep_trees_messages_and_ids(clone):
    tree = PathTree(A, (PathTree(B), PathTree(C, (PathTree(E),))))
    msg = YodelMessage(MessageKind.DATA_YSYNC, SND, RCV,
                       FloatingHeader(valley_id=1, channel_id=2,
                                      metadata=b"\x00\x00\x00\x05",
                                      path_tree=tree), b"payload")
    got_tree = clone(tree)
    assert got_tree == tree
    assert all(type(node.yni) is Yni for node in got_tree.walk())
    got_msg = clone(msg)
    assert got_msg == msg
    assert encode(got_msg) == encode(msg)
    assert type(got_msg.sender) is Yni and type(got_msg.receiver) is Yni
    assert all(type(node.yni) is Yni
               for node in got_msg.floating.path_tree.walk())
    for obj in (msg.floating, FloatingHeader(),
                YodelMessage(MessageKind.CONTROL_YPP, SND, RCV)):
        got = clone(obj)
        assert got == obj and type(got) is type(obj)
        assert repr(got) == repr(obj)


# The message contract: what code outside the codec may rely on, whatever
# way the two classes are written.

HEADER = FloatingHeader(valley_id=1, channel_id=2, metadata=b"\x00\x00\x00\x05",
                        path_tree=PathTree(A, (PathTree(B),)))
MESSAGE = YodelMessage(MessageKind.DATA_YSYNC, SND, RCV, HEADER, b"payload")


def test_messages_and_headers_compare_and_hash_by_value():
    header = FloatingHeader(1, 2, None, None, b"\x00\x00\x00\x05",
                            PathTree(A, (PathTree(B),)))
    msg = YodelMessage(kind=MessageKind.DATA_YSYNC, sender=SND, receiver=RCV,
                       floating=header, payload=b"payload")
    for one, two in ((HEADER, header), (MESSAGE, msg)):
        assert one is not two and one == two and hash(one) == hash(two)
        assert {one: 1}[two] == 1
    assert HEADER != FloatingHeader(valley_id=1)
    assert HEADER != (1, 2, None, None, b"\x00\x00\x00\x05",
                      HEADER.path_tree)
    assert MESSAGE != YodelMessage(MessageKind.DATA_YSYNC, SND, RCV, HEADER)
    assert MESSAGE != YodelMessage(MessageKind.DATA_YPP, SND, RCV, HEADER,
                                   b"payload")
    assert MESSAGE != (MessageKind.DATA_YSYNC, SND, RCV, HEADER, b"payload")


def test_message_and_header_repr_name_every_field():
    assert repr(HEADER) == (
        f"FloatingHeader(valley_id=1, channel_id=2, namespace_id=None, "
        f"application_id=None, metadata=b'\\x00\\x00\\x00\\x05', "
        f"path_tree={HEADER.path_tree!r})")
    assert repr(MESSAGE) == (
        f"YodelMessage(kind={MessageKind.DATA_YSYNC!r}, sender={SND!r}, "
        f"receiver={RCV!r}, floating={HEADER!r}, payload=b'payload')")


def test_replace_and_fields_see_every_field():
    assert [f.name for f in fields(FloatingHeader)] == [
        "valley_id", "channel_id", "namespace_id", "application_id",
        "metadata", "path_tree"]
    assert [f.name for f in fields(YodelMessage)] == [
        "kind", "sender", "receiver", "floating", "payload"]
    header = replace(HEADER, path_tree=None, application_id=7)
    assert header == FloatingHeader(1, 2, None, 7, b"\x00\x00\x00\x05")
    msg = replace(MESSAGE, receiver=A, floating=header)
    assert msg == YodelMessage(MessageKind.DATA_YSYNC, SND, A, header,
                               b"payload")
    assert replace(MESSAGE) == MESSAGE and replace(HEADER) == HEADER
    with pytest.raises(TypeError):
        replace(MESSAGE, path_tree=None)


def test_a_message_without_a_header_gets_its_own_empty_one():
    one = YodelMessage(MessageKind.CONTROL_YPP, SND, RCV)
    two = YodelMessage(MessageKind.CONTROL_YPP, SND, RCV)
    assert one.floating == FloatingHeader() and one.payload == b""
    assert one.floating is not two.floating
    assert FloatingHeader() == FloatingHeader(None, None, None, None, None,
                                              None)
    assert encode(one) == encode(YodelMessage(MessageKind.CONTROL_YPP, SND,
                                              RCV, FloatingHeader(), b""))


def test_messages_and_headers_cannot_be_assigned_or_deleted():
    for obj, name, value in ((HEADER, "valley_id", 9),
                             (HEADER, "path_tree", None),
                             (MESSAGE, "payload", b""),
                             (MESSAGE, "floating", FloatingHeader())):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert HEADER.valley_id == 1 and MESSAGE.payload == b"payload"
