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
tree serializes preorder as yni(10) | child_count(1) | children.

decode() is total over arbitrary bytes: it either returns a message or raises
a CodecError subclass, and a successful decode re-encodes to the same bytes.
"""

from __future__ import annotations

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
    "FixedHeader",
    "YodelMessage",
    "encode",
    "decode",
    "pop_path_root",
    "FIXED_HEADER_LEN",
]

FIXED_HEADER_LEN = 27

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
    """Delivery tree node; serialized preorder, children in stored order.

    Immutable, compared and hashed by `yni` and `children`. `members` is the
    set of node ids in this subtree, built from the children's sets, so
    checking a new node for repeats costs one union (a leaf needs none); it
    takes no part in `==`, `hash` or `repr`. Written out by hand, with the
    slots set through their own setters, because a tree is built node by
    node for every advertisement the controller computes and every one an
    edge decodes.
    """

    __slots__ = ("yni", "children", "members")

    def __init__(self, yni: Yni, children: tuple["PathTree", ...] = ()):
        _set_yni(self, yni)
        _set_children(self, children)
        if not children:
            _set_members(self, frozenset((yni,)))
            return
        if len(children) > 255:
            raise InvariantViolation("path-tree fan-out above 255")
        members = frozenset((yni,)).union(*[c.members for c in children])
        _set_members(self, members)
        if len(members) != 1 + sum([len(c.members) for c in children]):
            # a repeat; walk in preorder to name its second occurrence
            seen = set()
            for node in self.walk():
                if node.yni in seen:
                    raise InvariantViolation(
                        f"repeated node in path tree: {node.yni}")
                seen.add(node.yni)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.yni == other.yni and self.children == other.children

    def __hash__(self):
        return hash((self.yni, self.children))

    def __repr__(self):
        return (f"{type(self).__qualname__}(yni={self.yni!r}, "
                f"children={self.children!r})")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return PathTree, (self.yni, self.children)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def walk(self) -> Iterator["PathTree"]:
        """Preorder traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def edges(self) -> list[tuple[Yni, Yni]]:
        """Parent/child pairs in depth-first order, i.e. recursive pop order."""
        out = []
        for child in self.children:
            out.append((self.yni, child.yni))
            out.extend(child.edges())
        return out

    def size(self) -> int:
        return len(self.members)

    def serialize(self) -> bytes:
        parts = []
        for node in self.walk():
            parts += (node.yni, _COUNTS[len(node.children)])
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "PathTree":
        tree, used = _read_tree(raw, 0)
        if used != len(raw):
            raise LengthMismatch("trailing bytes after path tree")
        return tree


# the slots' own setters, which `PathTree.__setattr__` cannot block
_set_yni = PathTree.yni.__set__
_set_children = PathTree.children.__set__
_set_members = PathTree.members.__set__
# the child-count byte of a serialized tree node, by count
_COUNTS = [bytes((n,)) for n in range(256)]


def _read_tree(raw: bytes, off: int) -> tuple[PathTree, int]:
    if off + 11 > len(raw):
        raise TruncatedMessage("path tree cut short")
    yni = Yni.from_bytes(raw[off:off + 10])
    count = raw[off + 10]
    off += 11
    children = []
    for _ in range(count):
        child, off = _read_tree(raw, off)
        children.append(child)
    try:
        return PathTree(yni, tuple(children)), off
    except InvariantViolation as exc:
        # A repeated node in received bytes is a malformed header, not a
        # locally constructed contract violation.
        raise MalformedFloating(str(exc)) from exc


@dataclass(frozen=True, slots=True, init=False)
class FloatingHeader:
    """The optional elements of a message. Built for every copy at every
    hop, so `__init__` is written out by hand and sets the slots through
    their own setters, as `PathTree` does; the dataclass still supplies
    `==`, `hash`, `repr`, `fields` and `replace`."""

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

        def tlv(tag: int, value: bytes):
            if len(value) > 0xFFFF:
                raise InvariantViolation(f"element 0x{tag:02x} too long")
            parts.append(bytes([tag]) + len(value).to_bytes(2, "big") + value)

        if self.valley_id is not None:
            tlv(_TAG_VALLEY, _uint(self.valley_id, 4, "valley id"))
        if self.channel_id is not None:
            tlv(_TAG_CHANNEL, _uint(self.channel_id, 8, "channel id"))
        if self.namespace_id is not None:
            tlv(_TAG_NAMESPACE, _uint(self.namespace_id, 4, "namespace id"))
        if self.application_id is not None:
            tlv(_TAG_APPLICATION, _uint(self.application_id, 4, "application id"))
        if self.metadata is not None:
            tlv(_TAG_METADATA, self.metadata)
        if self.path_tree is not None:
            tlv(_TAG_PATH_TREE, self.path_tree.serialize())
        return b"".join(parts)

    @classmethod
    def decode(cls, raw: bytes) -> "FloatingHeader":
        fields: dict[int, bytes] = {}
        off = 0
        last_tag = 0
        while off < len(raw):
            if off + 3 > len(raw):
                raise TruncatedMessage("floating element header cut short")
            tag = raw[off]
            length = int.from_bytes(raw[off + 1:off + 3], "big")
            off += 3
            if off + length > len(raw):
                raise TruncatedMessage("floating element value cut short")
            value = raw[off:off + length]
            off += length
            if tag in fields:
                raise DuplicateTlv(f"tag 0x{tag:02x} repeated")
            if tag < last_tag:
                raise MalformedFloating("tags out of ascending order")
            last_tag = tag
            fields[tag] = value

        def fixed(tag: int, size: int) -> Optional[int]:
            if tag not in fields:
                return None
            value = fields.pop(tag)
            if len(value) != size:
                raise LengthMismatch(f"tag 0x{tag:02x} needs {size} bytes, got {len(value)}")
            return int.from_bytes(value, "big")

        valley = fixed(_TAG_VALLEY, 4)
        channel = fixed(_TAG_CHANNEL, 8)
        namespace = fixed(_TAG_NAMESPACE, 4)
        application = fixed(_TAG_APPLICATION, 4)
        metadata = fields.pop(_TAG_METADATA, None)
        tree = None
        if _TAG_PATH_TREE in fields:
            tree = PathTree.deserialize(fields.pop(_TAG_PATH_TREE))
        if fields:
            bad = min(fields)
            raise MalformedFloating(f"unknown tag 0x{bad:02x}")
        return cls(valley, channel, namespace, application, metadata, tree)


_set_valley = FloatingHeader.valley_id.__set__
_set_channel = FloatingHeader.channel_id.__set__
_set_namespace = FloatingHeader.namespace_id.__set__
_set_application = FloatingHeader.application_id.__set__
_set_metadata = FloatingHeader.metadata.__set__
_set_path_tree = FloatingHeader.path_tree.__set__


def _uint(value: int, size: int, what: str) -> bytes:
    if not 0 <= value < 1 << (8 * size):
        raise InvariantViolation(f"{what} out of range: {value}")
    return value.to_bytes(size, "big")


@dataclass(frozen=True)
class FixedHeader:
    kind: MessageKind
    sender: Yni
    receiver: Yni
    floating_len: int
    payload_len: int

    def encode(self) -> bytes:
        return (bytes([self.kind])
                + self.sender
                + self.receiver
                + self.floating_len.to_bytes(2, "big")
                + self.payload_len.to_bytes(4, "big"))

    @classmethod
    def decode(cls, raw: bytes) -> "FixedHeader":
        if len(raw) < FIXED_HEADER_LEN:
            raise TruncatedMessage(f"fixed header needs {FIXED_HEADER_LEN} bytes, got {len(raw)}")
        try:
            kind = MessageKind(raw[0])
        except ValueError:
            raise UnknownKind(f"kind byte 0x{raw[0]:02x}") from None
        return cls(kind,
                   Yni.from_bytes(raw[1:11]),
                   Yni.from_bytes(raw[11:21]),
                   int.from_bytes(raw[21:23], "big"),
                   int.from_bytes(raw[23:27], "big"))


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
    head = FixedHeader(msg.kind, msg.sender, msg.receiver, len(floating), len(msg.payload))
    return head.encode() + floating + msg.payload


def decode(raw: bytes) -> YodelMessage:
    """Inverse of encode on valid input; rejects trailing garbage."""
    head = FixedHeader.decode(raw)
    total = FIXED_HEADER_LEN + head.floating_len + head.payload_len
    if len(raw) < total:
        raise TruncatedMessage(f"message needs {total} bytes, got {len(raw)}")
    if len(raw) > total:
        raise LengthMismatch(f"{len(raw) - total} trailing bytes")
    floating = FloatingHeader.decode(raw[FIXED_HEADER_LEN:FIXED_HEADER_LEN + head.floating_len])
    payload = raw[FIXED_HEADER_LEN + head.floating_len:total]
    msg = YodelMessage(head.kind, head.sender, head.receiver, floating, payload)
    try:
        _check_kind_rules(msg)
    except InvariantViolation as exc:
        raise MalformedFloating(str(exc)) from exc
    return msg


def pop_path_root(msg: YodelMessage, self_yni: Yni) -> list[tuple[Yni, YodelMessage]]:
    """Segment-routing step: consume the tree root, emit one message per child.

    Each output message keeps kind, channel context, metadata and payload but
    carries only that child's subtree, with sender rewritten to the popping
    node and receiver to the child. Raises RootMismatch when this node is not
    the root (mis-forwarded message).
    """
    tree = msg.floating.path_tree
    if tree is None:
        raise RootMismatch(f"no path tree to pop at {self_yni}")
    if tree.yni != self_yni:
        raise RootMismatch(f"path root is {tree.yni}, not {self_yni}")
    # constructors, not dataclasses.replace: this runs for every branch at
    # every hop, and replace walks the field list on each call
    kind, f, payload = msg.kind, msg.floating, msg.payload
    return [(child.yni, YodelMessage(
                kind, self_yni, child.yni,
                FloatingHeader(f.valley_id, f.channel_id, f.namespace_id,
                               f.application_id, f.metadata, child),
                payload))
            for child in tree.children]
