"""Node-id value type: generation, canonical text, byte order."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yodel.errors import MalformedYni
from yodel.ynid import Yni, generate_yni, parse_yni, render_yni

MAC = bytes.fromhex("001b44113ab7")


def test_generate_from_literal_mac_and_time():
    y = generate_yni(MAC, 1_700_000_000)
    assert y.to_bytes()[:6] == MAC
    assert int.from_bytes(y.to_bytes()[6:], "big") == 1_700_000_000
    assert y.to_bytes() == MAC + (1_700_000_000).to_bytes(4, "big")


def test_generate_from_mac_text():
    y = generate_yni("00:1b:44:11:3a:b7", 0)
    assert y.to_bytes()[:6] == MAC


def test_generate_from_seeded_source_is_reproducible():
    a = generate_yni(random.Random(7), 5)
    b = generate_yni(random.Random(7), 5)
    assert a == b
    assert len(a.to_bytes()) == 10


def test_zero_time_renders_zero_suffix():
    y = generate_yni(MAC, 0)
    assert y.to_bytes()[6:] == b"\x00\x00\x00\x00"
    assert render_yni(y) == "001b:4411:3ab7:0000:0000"


def test_time_saturation_boundary():
    y = generate_yni(MAC, 2**32 - 1)
    assert y.to_bytes()[6:] == b"\xff\xff\xff\xff"
    with pytest.raises(MalformedYni):
        generate_yni(MAC, 2**32)
    with pytest.raises(MalformedYni):
        generate_yni(MAC, -1)


def test_render_golden():
    assert render_yni(Yni(MAC, 0)) == "001b:4411:3ab7:0000:0000"
    assert str(Yni(MAC, 0x01020304)) == "001b:4411:3ab7:0102:0304"


@pytest.mark.parametrize("bad", [
    "",
    "001b:4411:3ab7:0000",            # four groups
    "001b:4411:3ab7:0000:0000:0000",  # six groups
    "001b:4411:3ab7:0000:00",         # short group
    "001B:4411:3ab7:0000:0000",       # uppercase is not canonical
    "001b:4411:3ab7:0000:00g0",       # non-hex
    "001b-4411-3ab7-0000-0000",
])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(MalformedYni):
        parse_yni(bad)


def test_ordering_is_lexicographic_over_the_ten_bytes():
    ys = [
        Yni(bytes.fromhex("00" * 6), 5),
        Yni(bytes.fromhex("00" * 6), 6),
        Yni(bytes.fromhex("0000000000ff"), 0),
        Yni(bytes.fromhex("010000000000"), 0),
    ]
    assert sorted(ys) == ys
    raws = sorted(y.to_bytes() for y in ys)
    assert [Yni.from_bytes(r) for r in raws] == ys


@given(st.binary(min_size=10, max_size=10))
@settings(max_examples=300)
def test_text_round_trip_is_a_bijection(raw):
    y = Yni.from_bytes(raw)
    assert parse_yni(render_yni(y)) == y
    assert Yni.from_bytes(y.to_bytes()) == y


@given(st.binary(min_size=10, max_size=10), st.binary(min_size=10, max_size=10))
@settings(max_examples=200)
def test_distinct_bytes_render_distinct_text(a, b):
    ya, yb = Yni.from_bytes(a), Yni.from_bytes(b)
    assert (render_yni(ya) == render_yni(yb)) == (a == b)


@given(st.binary(min_size=10, max_size=10), st.binary(min_size=10, max_size=10))
@settings(max_examples=300)
def test_cached_hash_agrees_with_the_ten_bytes(a, b):
    ya, yb = Yni.from_bytes(a), Yni.from_bytes(b)
    ra, rb = ya.to_bytes(), yb.to_bytes()
    assert (ra, rb) == (a, b)
    assert (ya == yb) == (ra == rb)
    assert (ya < yb) == (ra < rb)
    assert (ya > yb) == (ra > rb)
    if ra == rb:
        assert hash(ya) == hash(yb)
    # built apart, equal ids are one key
    twin = Yni(a[:6], int.from_bytes(a[6:], "big"))
    assert twin is not ya and twin == ya and hash(twin) == hash(ya)
    table = {ya: "first"}
    table[twin] = "second"
    assert table == {Yni.from_bytes(a): "second"}


# an id is its ten bytes: no attribute of it can be set
@pytest.mark.parametrize("name", ["mac", "epoch_seconds", "_hash"])
def test_fields_and_cached_hash_are_read_only(name):
    y = Yni(MAC, 1)
    before = hash(y)
    with pytest.raises(AttributeError):
        setattr(y, name, 0)
    assert y == Yni(MAC, 1) and hash(y) == before == hash(Yni(MAC, 1))


def test_comparison_and_hash_are_the_bytes_own():
    for name in ("__eq__", "__lt__", "__hash__"):
        assert getattr(Yni, name) is getattr(bytes, name)
    y = Yni(MAC, 1)
    assert y == MAC + b"\x00\x00\x00\x01" and type(y.to_bytes()) is bytes


@given(st.binary(max_size=12).filter(lambda m: len(m) != 6),
       st.integers(-2**40, 2**40))
@settings(max_examples=200)
def test_validation_still_rejects_bad_parts(mac, epoch):
    with pytest.raises(MalformedYni):
        Yni(mac, 0)
    if not 0 <= epoch <= 2**32 - 1:
        with pytest.raises(MalformedYni):
            Yni(MAC, epoch)
    else:
        assert Yni(MAC, epoch).to_bytes()[6:] == epoch.to_bytes(4, "big")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda y: pickle.loads(pickle.dumps(y))])
def test_copy_and_pickle_keep_a_yni(clone):
    y = generate_yni(MAC, 1_700_000_000)
    got = clone(y)
    assert got == y
    assert type(got) is Yni
    assert str(got) == str(y)
