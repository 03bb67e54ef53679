"""The report writer: `Metrics.to_json()` prints the bytes of
`json.dumps(to_dict(), sort_keys=True, indent=2)` plus a newline, and
refuses any value json would print in some other form than the writer's."""

import json
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_replay_golden as golden
from yodel.scenario import load_world
from yodel.sim import SimConfig, Simulation
from yodel.trace import Metrics, _json

NAN, INF = float("nan"), float("inf")

# keys json must escape, or print as they are: quotes, backslashes,
# control characters, non-ASCII text (a surrogate pair too) and the empty
# string, beside any text
keys = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\n\t", "\x7f", "é",
                     " ", "\U0001f600", 'a"b\\c', "ok", "ok2"]),
    st.text(max_size=8))

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1),
    st.sampled_from([True, False, 1, 0, None, -0.0, 0.0, 1e16, NAN, INF,
                     -INF]),
    st.floats(),
    st.text(max_size=8),
)

values = st.recursive(scalars,
                      lambda inner: st.dictionaries(keys, inner, max_size=5),
                      max_leaves=30)


@given(values)
@example({"b": True, "a": 1, "c": {"z": False, "y": 0}, "": {}})
@example({'q"uote': 1, "back\\slash": None, "café": "\x01"})
@example({"f": -0.0, "g": 1e16, "h": NAN, "i": INF, "j": -INF})
@example({"big": 2**64 + 1, "neg": -2**70})
@settings(max_examples=400, deadline=None)
def test_writer_prints_the_bytes_of_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


class Colour(IntEnum):
    RED = 1


class Label(str):
    pass


@pytest.mark.parametrize("value", [
    [1], (1,), {1}, frozenset(), b"x", object(), Colour.RED, Label("x"),
    {"a": [1]}, {"a": {"b": (2,)}}, {"a": {"b": Colour.RED}},
    {1: 2}, {None: 1}, {("a",): 1}, {"a": {True: 1}},
], ids=repr)
def test_any_other_value_is_a_type_error(value):
    with pytest.raises(TypeError):
        _json(value)


def test_a_report_holding_another_type_is_a_type_error():
    metrics = Metrics()
    metrics.conservation = {"ok": True, "links": ["e1>c1"]}
    with pytest.raises(TypeError):
        metrics.to_json()


@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("topo_name,scen_name", golden.PAIRS)
def test_demo_report_is_json_dumps(topo_name, scen_name, seed):
    topo, scen, errors = load_world(
        (golden.WORLDS / topo_name).read_text(),
        (golden.WORLDS / scen_name).read_text())
    assert errors == []
    metrics = Simulation(topo, scen,
                         SimConfig.from_scenario(scen, seed)).run().metrics
    assert metrics.to_json() == \
        json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n"
