"""Wire formats: the push-protocol message (fixed + floating header) and the
sync variant that carries an explicit delivery tree.

Layout. Every message starts with a 27-byte fixed header:

    kind(1) | sender(10) | receiver(10) | floating_len(2 BE) | payload_len(4 BE)

followed by `floating_len` bytes of floating header and `payload_len` bytes of
opaque payload. The floating header is a sequence of TLV elements, each
tag(1) | length(2 BE) | value, in strictly ascending tag order with every tag
appearing at most once:

    0x01 valley id (4)   0x02 channel id (8)   0x03 namespace id (4)
    0x04 application id (4)   0x05 metadata (opaque)   0x06 path tree

Namespace and application ids ride only on control messages; a path tree rides
on control messages and the sync kinds, never on the data push kinds. A path
tree serializes preorder as yni(10) | child_count(1) | children, so it is a
run of 11-byte records, and a `PathTree` is those records.

The fixed header is read and written with `struct`, with no object of its
own; the floating header's elements are framed with `struct` at their
offsets. A path tree is checked in one pass over its records and kept as
them, with no node built, so a tree's depth is bounded only by the 64 KiB
floating header. decode() is total over arbitrary bytes: it either returns
a message or raises a CodecError subclass, and a successful decode
re-encodes to the same bytes.

In a node, a sync copy is not one message per receiver: it is the message
that arrived, shared by every copy sent on from it, with the receiver's
subtree riding beside it. `pop_path_root` checks a subtree's root and hands
back its children, built on the tree's first pop. A tree sits inside a
`FloatingHeader` only where bytes are made or read: in the controller's
path advertisement, and in `encode`/`decode`.
"""

from __future__ import annotations

import struct
from dataclasses import FrozenInstanceError, dataclass, field
from enum import IntEnum
from typing import Iterator, Optional

from .errors import (
    DuplicateTlv,
    InvariantViolation,
    LengthMismatch,
    MalformedFloating,
    RootMismatch,
    TruncatedMessage,
    UnknownKind,
)
from .ynid import Yni

__all__ = [
    "MessageKind",
    "PathTree",
    "FloatingHeader",
    "YodelMessage",
    "encode",
    "decode",
    "pop_path_root",
    "FIXED_HEADER_LEN",
    "MAX_FANOUT",
]

FIXED_HEADER_LEN = 27
# a tree node's child count is one byte
MAX_FANOUT = 255

_TAG_VALLEY = 0x01
_TAG_CHANNEL = 0x02
_TAG_NAMESPACE = 0x03
_TAG_APPLICATION = 0x04
_TAG_METADATA = 0x05
_TAG_PATH_TREE = 0x06


class MessageKind(IntEnum):
    CONTROL_YPP = 0x01
    DATA_YPP = 0x02
    DATA_YSYNC = 0x03
    ANYCAST_DATA_YSYNC = 0x04
    ANYCAST_DATA_YPP = 0x05

    @property
    def is_sync(self) -> bool:
        return self in (MessageKind.DATA_YSYNC, MessageKind.ANYCAST_DATA_YSYNC)

    @property
    def is_control(self) -> bool:
        return self is MessageKind.CONTROL_YPP


class PathTree:
    """A delivery tree held as its wire form: `records`, the preorder
    records yni(10) | child_count(1) of its nodes, and its root's `yni`.

    The first read of `children` builds and keeps every node below, each
    with only its id and children. A tree the controller computes and
    encodes, or an edge decodes and installs, is one object over one bytes
    value; only a tree a data copy pops is built out. It stays a class, not
    bare bytes, so each hop reads a subtree's root and children from slots,
    and it equals and hashes as its `records` but never equals bytes.

    `from_preorder` builds a tree from the preorder ids and child counts
    `preorder` gives back, as `compute_path` does; `PathTree(yni,
    children)`, for trees written by hand, joins its subtrees' records and
    keeps none of them. Both check fan-out and repeats. `repr`, `walk` and
    `edges` are loops, so they work on a tree of any depth.
    """

    # `_rec` is None on a split node; methods read `_rec or records` to
    # spare a whole tree a call (a `__getattr__` would slow slot reads)
    __slots__ = ("yni", "_rec", "_kids")

    def __init__(self, yni: Yni, children: tuple["PathTree", ...] = ()):
        if len(children) > MAX_FANOUT:
            raise InvariantViolation(f"path-tree fan-out above {MAX_FANOUT}")
        _set_yni(self, yni)
        _set_rec(self, b"".join([yni, _BYTES[len(children)],
                                 *[kid.records for kid in children]]))
        _set_kids(self, None)
        _check_repeats(self.preorder()[0])

    @classmethod
    def from_preorder(cls, ids: list[Yni], counts) -> "PathTree":
        """The tree whose nodes in preorder are `ids`, node i having
        `counts[i]` children, which must describe one whole tree. Raises
        InvariantViolation on a fan-out above 255, or on a repeated id,
        naming the first one in preorder that repeats an earlier one."""
        if max(counts) > MAX_FANOUT:
            raise InvariantViolation(f"path-tree fan-out above {MAX_FANOUT}")
        _check_repeats(ids)
        parts = [b""] * (2 * len(ids))
        parts[::2] = ids
        parts[1::2] = map(_BYTES.__getitem__, counts)
        return _from_records(b"".join(parts))

    @property
    def records(self) -> bytes:
        """The preorder records; a split node writes them on each read."""
        return self._rec or b"".join([x for node in self.walk() for x in (
            node.yni, _BYTES[len(node.children)])])

    @property
    def children(self) -> tuple["PathTree", ...]:
        # the first read builds every node below in one loop from the last
        # record back; the stack holds built subtrees, the next one on top
        if self._kids is not None:
            return self._kids
        records = self._rec
        trees = []
        for k in range(len(records) - 11, 0, -11):
            node = _new_tree(PathTree)
            _set_yni(node, _new_yni(Yni, records[k:k + 10]))
            _set_rec(node, None)
            count = records[k + 10]
            if count:
                kids = trees[-count:]
                del trees[-count:]
                kids.reverse()
                _set_kids(node, tuple(kids))
            else:
                _set_kids(node, ())
            trees.append(node)
        trees.reverse()
        _set_kids(self, tuple(trees))
        return self._kids

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._rec or self.records) == (other._rec or other.records)

    def __hash__(self):
        return hash(self._rec or self.records)

    def __repr__(self):
        # the text of the nested reprs, `children` a tuple's repr, built
        # from a stack of nodes still to write and text to write after them
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(yni={item.yni!r}, "
                         "children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            stack += [x for kid in reversed(kids) for x in (kid, ", ")][:-1]
        return "".join(parts)

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return _from_records, (self.records,)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def walk(self) -> Iterator["PathTree"]:
        """Preorder traversal; builds every node's children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def edges(self) -> list[tuple[Yni, Yni]]:
        """Parent/child pairs in depth-first order, i.e. recursive pop order."""
        out = []
        stack = [(self.yni, c) for c in reversed(self.children)]
        while stack:
            parent, node = stack.pop()
            out.append((parent, node.yni))
            stack += [(node.yni, c) for c in reversed(node.children)]
        return out

    def size(self) -> int:
        return len(self._rec or self.records) // 11

    def preorder(self) -> tuple[list[bytes], bytes]:
        """Each node's ten id bytes, and the child counts, in preorder."""
        rec = self._rec or self.records
        return [rec[k:k + 10] for k in range(0, len(rec), 11)], rec[10::11]


# the slots' own setters, which `PathTree.__setattr__` cannot block
_set_yni = PathTree.yni.__set__
_set_rec = PathTree._rec.__set__
_set_kids = PathTree._kids.__set__
_new_tree = object.__new__
# a node id over ten bytes of a buffer, without `Yni.from_bytes`'s length check
_new_yni = bytes.__new__
# one byte of each value: a tree node's child count, a message's kind
_BYTES = [bytes((n,)) for n in range(256)]


def _from_records(records: bytes) -> PathTree:
    """The tree over one whole tree's preorder records, unchecked."""
    tree = _new_tree(PathTree)
    _set_yni(tree, _new_yni(Yni, records[:10]))
    _set_rec(tree, records)
    _set_kids(tree, None)
    return tree


def _check_repeats(ids: list[bytes], error=InvariantViolation) -> None:
    """Raise `error` naming the first preorder id that repeats one before."""
    if len(set(ids)) != len(ids):
        seen = set()
        for yni in ids:
            if yni in seen:
                raise error(f"repeated node in path tree: {_new_yni(Yni, yni)}")
            seen.add(yni)


def _read_tree(raw: bytes, off: int, end: int) -> PathTree:
    """The path tree that fills raw[off:end], its 11-byte preorder records
    yni(10) | child_count(1) checked in one pass and kept as they are.

    Raises MalformedFloating for a repeated node, TruncatedMessage when the
    records end before the tree does, and LengthMismatch when bytes follow
    it, in that order of precedence.
    """
    counts = raw[off + 10:end:11]  # the count byte of each whole record
    owed = 1  # records the tree still needs: the root, then each child
    for n, count in enumerate(counts, 1):
        owed += count - 1
        if not owed:
            spans = [(0, n)]
            break
    else:
        # cut short. A subtree that ends before the cut is checked for
        # repeats first, as a reader that checks each subtree as it ends
        # would before it reads on.
        spans = _finished_subtrees(counts)
    for start, stop in spans:
        # a repeat in received bytes is a malformed header
        _check_repeats([raw[k:k + 10] for k in range(off + 11 * start,
                                                     off + 11 * stop, 11)],
                       MalformedFloating)
    if owed:
        raise TruncatedMessage("path tree cut short")
    if off + 11 * n != end:
        raise LengthMismatch("trailing bytes after path tree")
    return _from_records(raw[off:end])


def _finished_subtrees(counts) -> list[tuple[int, int]]:
    """(start, stop) of each largest subtree that ends within `counts`,
    the child counts of the first preorder records of a tree, in preorder."""
    spans: list[tuple[int, int]] = []
    open_nodes: list[list[int]] = []  # [start, children still to read]
    for i, count in enumerate(counts):
        open_nodes.append([i, count])
        while open_nodes and not open_nodes[-1][1]:
            start = open_nodes.pop()[0]
            while spans and spans[-1][0] > start:
                spans.pop()  # nested in the subtree that just ended
            spans.append((start, i + 1))
            if open_nodes:
                open_nodes[-1][1] -= 1
    return spans


@dataclass(frozen=True, slots=True, init=False)
class FloatingHeader:
    """The optional elements of a message. Built on every send, so
    `__init__` is written out by hand and sets the slots through their own
    setters, as `PathTree` does; the dataclass still supplies `==`, `hash`,
    `repr`, `fields` and `replace`."""

    valley_id: Optional[int] = None
    channel_id: Optional[int] = None
    namespace_id: Optional[int] = None
    application_id: Optional[int] = None
    metadata: Optional[bytes] = None
    path_tree: Optional[PathTree] = None

    def __init__(self, valley_id: Optional[int] = None,
                 channel_id: Optional[int] = None,
                 namespace_id: Optional[int] = None,
                 application_id: Optional[int] = None,
                 metadata: Optional[bytes] = None,
                 path_tree: Optional[PathTree] = None):
        _set_valley(self, valley_id)
        _set_channel(self, channel_id)
        _set_namespace(self, namespace_id)
        _set_application(self, application_id)
        _set_metadata(self, metadata)
        _set_path_tree(self, path_tree)

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return FloatingHeader, (self.valley_id, self.channel_id,
                                self.namespace_id, self.application_id,
                                self.metadata, self.path_tree)

    def encode(self) -> bytes:
        parts = []
        for (tag, what, element), value in zip(_FIXED, (
                self.valley_id, self.channel_id, self.namespace_id,
                self.application_id)):
            if value is not None:
                size = element.size - 3
                if not 0 <= value < 1 << (8 * size):
                    raise InvariantViolation(f"{what} out of range: {value}")
                parts.append(element.pack(tag, size, value))
        if self.metadata is not None:
            parts += (_tlv_head(_TAG_METADATA, self.metadata), self.metadata)
        if self.path_tree is not None:
            raw = self.path_tree._rec or self.path_tree.records
            parts += (_tlv_head(_TAG_PATH_TREE, raw), raw)
        return b"".join(parts)


_set_valley = FloatingHeader.valley_id.__set__
_set_channel = FloatingHeader.channel_id.__set__
_set_namespace = FloatingHeader.namespace_id.__set__
_set_application = FloatingHeader.application_id.__set__
_set_metadata = FloatingHeader.metadata.__set__
_set_path_tree = FloatingHeader.path_tree.__set__


_TLV = struct.Struct(">BH")  # an element's tag and value length
# the fixed-size elements in tag order: tag, name, and the whole element,
# tag | length | value
_FIXED = ((_TAG_VALLEY, "valley id", struct.Struct(">BHI")),
          (_TAG_CHANNEL, "channel id", struct.Struct(">BHQ")),
          (_TAG_NAMESPACE, "namespace id", struct.Struct(">BHI")),
          (_TAG_APPLICATION, "application id", struct.Struct(">BHI")))


def _tlv_head(tag: int, value: bytes) -> bytes:
    if len(value) > 0xFFFF:
        raise InvariantViolation(f"element 0x{tag:02x} too long")
    return _TLV.pack(tag, len(value))


def _read_floating(raw: bytes, off: int, end: int) -> FloatingHeader:
    """The floating header in raw[off:end]. Every element is framed first,
    so a cut-short, repeated or out-of-order element is reported before a
    bad value, and an unknown tag last."""
    found: dict[int, tuple[int, int]] = {}  # tag -> (value offset, length)
    last_tag = 0
    while off < end:
        if off + 3 > end:
            raise TruncatedMessage("floating element header cut short")
        tag, length = _TLV.unpack_from(raw, off)
        off += 3
        if off + length > end:
            raise TruncatedMessage("floating element value cut short")
        if tag in found:
            raise DuplicateTlv(f"tag 0x{tag:02x} repeated")
        if tag < last_tag:
            raise MalformedFloating("tags out of ascending order")
        last_tag = tag
        found[tag] = (off, length)
        off += length
    values = []
    for tag, _, element in _FIXED:
        if tag not in found:
            values.append(None)
            continue
        at, length = found.pop(tag)
        size = element.size - 3
        if length != size:
            raise LengthMismatch(
                f"tag 0x{tag:02x} needs {size} bytes, got {length}")
        values.append(element.unpack_from(raw, at - 3)[2])
    metadata = tree = None
    if _TAG_METADATA in found:
        at, length = found.pop(_TAG_METADATA)
        metadata = raw[at:at + length]
    if _TAG_PATH_TREE in found:
        at, length = found.pop(_TAG_PATH_TREE)
        tree = _read_tree(raw, at, at + length)
    if found:
        raise MalformedFloating(f"unknown tag 0x{min(found):02x}")
    return FloatingHeader(*values, metadata, tree)


@dataclass(frozen=True, slots=True, init=False)
class YodelMessage:
    """One message; written out like `FloatingHeader`, for the same reason.
    A message built without a header gets a fresh empty one."""

    kind: MessageKind
    sender: Yni
    receiver: Yni
    floating: FloatingHeader = field(default_factory=FloatingHeader)
    payload: bytes = b""

    def __init__(self, kind: MessageKind, sender: Yni, receiver: Yni,
                 floating: Optional[FloatingHeader] = None,
                 payload: bytes = b""):
        _set_kind(self, kind)
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_floating(self, FloatingHeader() if floating is None
                      else floating)
        _set_payload(self, payload)

    def __reduce__(self):
        return YodelMessage, (self.kind, self.sender, self.receiver,
                              self.floating, self.payload)


_set_kind = YodelMessage.kind.__set__
_set_sender = YodelMessage.sender.__set__
_set_receiver = YodelMessage.receiver.__set__
_set_floating = YodelMessage.floating.__set__
_set_payload = YodelMessage.payload.__set__


# the fixed header after kind, sender and receiver: both lengths
_LENGTHS = struct.Struct(">HI")
_KINDS = {int(kind): kind for kind in MessageKind}


def _check_kind_rules(msg: YodelMessage) -> None:
    if not msg.kind.is_control:
        if msg.floating.namespace_id is not None:
            raise InvariantViolation("namespace id on a data message")
        if msg.floating.application_id is not None:
            raise InvariantViolation("application id on a data message")
    if msg.floating.path_tree is not None and not (msg.kind.is_sync or msg.kind.is_control):
        raise InvariantViolation(f"path tree on kind {msg.kind.name}")


def encode(msg: YodelMessage) -> bytes:
    """Serialize; raises InvariantViolation on forbidden field combinations."""
    _check_kind_rules(msg)
    floating = msg.floating.encode()
    if len(floating) > 0xFFFF:
        raise InvariantViolation("floating header above 64KiB")
    if len(msg.payload) > 0xFFFFFFFF:
        raise InvariantViolation("payload above 4GiB")
    return b"".join((_BYTES[msg.kind], msg.sender, msg.receiver,
                     _LENGTHS.pack(len(floating), len(msg.payload)),
                     floating, msg.payload))


def decode(raw: bytes) -> YodelMessage:
    """Inverse of encode on valid input; rejects trailing garbage."""
    if len(raw) < FIXED_HEADER_LEN:
        raise TruncatedMessage(
            f"fixed header needs {FIXED_HEADER_LEN} bytes, got {len(raw)}")
    kind = _KINDS.get(raw[0])
    if kind is None:
        raise UnknownKind(f"kind byte 0x{raw[0]:02x}")
    floating_len, payload_len = _LENGTHS.unpack_from(raw, 21)
    start = FIXED_HEADER_LEN + floating_len  # where the payload starts
    total = start + payload_len
    if len(raw) < total:
        raise TruncatedMessage(f"message needs {total} bytes, got {len(raw)}")
    if len(raw) > total:
        raise LengthMismatch(f"{len(raw) - total} trailing bytes")
    msg = YodelMessage(kind, _new_yni(Yni, raw[1:11]),
                       _new_yni(Yni, raw[11:21]),
                       _read_floating(raw, FIXED_HEADER_LEN, start),
                       raw[start:])
    try:
        _check_kind_rules(msg)
    except InvariantViolation as exc:
        raise MalformedFloating(str(exc)) from exc
    return msg


def pop_path_root(tree: Optional[PathTree],
                  self_yni: Yni) -> tuple[PathTree, ...]:
    """Segment-routing step: consume the root of the subtree a sync copy
    carries beside its message, and return the subtrees of its children,
    in stored order, one per copy to send on.

    Raises RootMismatch when there is no tree or this node is not its root
    (a mis-forwarded copy). The message itself is not touched: every
    child's copy shares it.
    """
    if tree is None:
        raise RootMismatch(f"no path tree to pop at {self_yni}")
    if tree.yni != self_yni:
        raise RootMismatch(f"path root is {tree.yni}, not {self_yni}")
    kids = tree._kids  # a slot read once the tree is split
    return tree.children if kids is None else kids
