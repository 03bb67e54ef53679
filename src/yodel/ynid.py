"""Node identifiers.

Every endpoint and infrastructure node carries a 10-byte id: a 6-byte
pseudo-MAC followed by 4 bytes of Unix seconds (big-endian). The time half
keeps ids unique when MAC values collide across tenants. All tie-breaking
anywhere in the package orders ids by their 10-byte lexicographic value.
An id is a `bytes` value holding exactly those ten bytes, so equality,
ordering and hashing are the bytes' own, and the in-memory form is the
wire form.
"""

from __future__ import annotations

import random

from .errors import MalformedYni

__all__ = ["Yni", "generate_yni", "render_yni", "parse_yni"]

_MAC_LEN = 6
_TIME_MAX = 2**32 - 1


class Yni(bytes):
    """10-byte node id: pseudo-MAC plus creation time in Unix seconds."""

    __slots__ = ()

    def __new__(cls, mac: bytes, epoch_seconds: int) -> "Yni":
        if len(mac) != _MAC_LEN:
            raise MalformedYni(f"mac must be {_MAC_LEN} bytes, got {len(mac)}")
        if not 0 <= epoch_seconds <= _TIME_MAX:
            raise MalformedYni(f"epoch_seconds out of 32-bit range: {epoch_seconds}")
        return super().__new__(cls, bytes(mac) + epoch_seconds.to_bytes(4, "big"))

    def to_bytes(self) -> bytes:
        return bytes(self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Yni":
        if len(raw) != 10:
            raise MalformedYni(f"node id needs 10 bytes, got {len(raw)}")
        return bytes.__new__(cls, raw)

    def __reduce__(self):
        # the bytes protocol would call Yni(raw) with the ten bytes alone
        return Yni.from_bytes, (bytes(self),)

    def __str__(self) -> str:
        return render_yni(self)

    def __repr__(self) -> str:
        return f"Yni({render_yni(self)})"


def generate_yni(mac_source: bytes | str | random.Random, now: int) -> Yni:
    """Build an id from a MAC source and a creation timestamp.

    The source is either literal 6 bytes, colon-separated MAC text, or a
    seeded generator (for worlds that mint ids reproducibly).
    """
    if isinstance(mac_source, random.Random):
        mac = mac_source.getrandbits(48).to_bytes(6, "big")
    elif isinstance(mac_source, str):
        parts = mac_source.split(":")
        if len(parts) != _MAC_LEN:
            raise MalformedYni(f"MAC text needs {_MAC_LEN} groups: {mac_source!r}")
        try:
            mac = bytes(int(p, 16) for p in parts)
        except ValueError as exc:
            raise MalformedYni(f"bad MAC text {mac_source!r}") from exc
    else:
        mac = bytes(mac_source)
    return Yni(mac, now)


def render_yni(y: Yni) -> str:
    """Canonical text: five colon-separated groups of four lowercase hex digits."""
    return y.hex(":", 2)


def parse_yni(text: str) -> Yni:
    """Inverse of render_yni; rejects anything but the canonical form."""
    groups = text.split(":")
    if len(groups) != 5 or any(len(g) != 4 for g in groups):
        raise MalformedYni(f"bad node-id text {text!r}")
    for g in groups:
        if any(c not in "0123456789abcdef" for c in g):
            raise MalformedYni(f"bad node-id text {text!r}")
    return Yni.from_bytes(bytes.fromhex("".join(groups)))
