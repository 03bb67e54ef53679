"""Service-model table, lock policy, partition balancing, anycast filter."""

import random

import pytest

from yodel.errors import InvalidRole, ServiceForbidsSelfLock
from yodel.services import (
    AnycastMode,
    ChannelSource,
    Multiplicity,
    ServiceModel,
    admit_producer,
    anycast_filter,
    balance_consumers,
    check_self_lock_allowed,
    next_local_producer,
    next_producer_edge,
    role_rows,
    roles_for_join,
)
from yodel.ynid import Yni

ONE, MANY = Multiplicity.ONE, Multiplicity.ONE_OR_MORE
S, M = ChannelSource.SINGLE, ChannelSource.MULTI


def yni(n: int) -> Yni:
    return Yni(n.to_bytes(6, "big"), 0)


# (active producer edges, channels per flow, channel source, partitioning)
EXPECTED_TABLE = {
    ServiceModel.SSM: (ONE, ONE, S, False),
    ServiceModel.AC: (ONE, ONE, S, False),
    ServiceModel.SLSM: (MANY, MANY, S, True),
    ServiceModel.SLAC: (MANY, MANY, S, True),
    ServiceModel.MSM: (MANY, MANY, M, False),
    ServiceModel.MSAC: (MANY, MANY, M, False),
    ServiceModel.MMM: (MANY, MANY, M, False),
}


@pytest.mark.parametrize("model", list(ServiceModel))
def test_variant_attribute_table(model):
    a = model.attributes
    assert (a.active_producer_edges, a.channels_per_flow,
            a.channel_source, a.partitioning) == EXPECTED_TABLE[model]


def test_anycast_family():
    assert {m for m in ServiceModel if m.is_anycast} == {
        ServiceModel.AC, ServiceModel.SLAC, ServiceModel.MSAC}


@pytest.mark.parametrize("model", [ServiceModel.SSM, ServiceModel.AC,
                                   ServiceModel.SLSM, ServiceModel.SLAC])
def test_first_producer_in_scope_is_admitted_unlocked(model):
    got = admit_producer(model, scope_has_active_edge=False,
                         edge_is_active=False, edge_has_active_producer=False)
    assert got is False


@pytest.mark.parametrize("model", [ServiceModel.SSM, ServiceModel.AC])
def test_second_producer_on_active_edge_locks_host_row_only(model):
    got = admit_producer(model, scope_has_active_edge=True,
                         edge_is_active=True, edge_has_active_producer=True)
    assert got is True


@pytest.mark.parametrize("model", [ServiceModel.SSM, ServiceModel.AC])
def test_producer_via_new_edge_locks_host_and_edge(model):
    got = admit_producer(model, scope_has_active_edge=True,
                         edge_is_active=False, edge_has_active_producer=False)
    assert got is True


@pytest.mark.parametrize("model", [ServiceModel.MSM, ServiceModel.MSAC,
                                   ServiceModel.MMM])
def test_multi_source_variants_never_lock(model):
    for active_edge in (False, True):
        got = admit_producer(model, scope_has_active_edge=active_edge,
                             edge_is_active=active_edge,
                             edge_has_active_producer=active_edge)
        assert got is False


def test_failover_picks_lowest_host_then_app():
    assert next_local_producer([(yni(5), 9), (yni(5), 2), (yni(3), 7)]) == (yni(3), 7)
    assert next_local_producer([(yni(5), 9), (yni(5), 2)]) == (yni(5), 2)
    assert next_local_producer([]) is None


def test_failover_picks_lowest_edge():
    assert next_producer_edge([yni(9), yni(4), yni(6)]) == yni(4)
    assert next_producer_edge([]) is None


def test_balance_two_producers_four_consumers():
    p1, p2 = yni(1), yni(2)
    consumers = [yni(10), yni(11), yni(12), yni(13)]
    parts = balance_consumers([p2, p1], consumers)
    assert parts == {p1: [yni(10), yni(12)], p2: [yni(11), yni(13)]}
    assert all(len(v) == 2 for v in parts.values())


def test_balance_ties_go_to_lowest_producer_edge():
    parts = balance_consumers([yni(2), yni(1)], [yni(10)])
    assert parts[yni(1)] == [yni(10)]
    assert parts[yni(2)] == []


def test_balance_pins_dual_role_edge_to_its_own_partition():
    p1, p2 = yni(1), yni(2)
    parts = balance_consumers([p1, p2], [p2, yni(10)])
    assert p2 in parts[p2]


def test_balance_with_no_producers_is_empty():
    assert balance_consumers([], [yni(1)]) == {}


def test_anycast_dedicated_mode_keeps_survivors():
    mode = AnycastMode(randomized=False)
    rng = random.Random(1)
    assert anycast_filter("host", ["a", "b"], mode, rng) == ["a", "b"]
    assert anycast_filter("edge", ["a"], mode, rng) == ["a"]
    assert anycast_filter("connector", [], mode, rng) == []


def test_anycast_host_stage_picks_exactly_one():
    mode = AnycastMode(randomized=True, p_deliver=0.5)
    rng = random.Random(7)
    for _ in range(20):
        picked = anycast_filter("host", ["a", "b", "c"], mode, rng)
        assert len(picked) == 1 and picked[0] in ("a", "b", "c")
    assert anycast_filter("host", [], mode, rng) == []


@pytest.mark.parametrize("stage", ["edge", "connector"])
def test_anycast_probability_extremes(stage):
    rng = random.Random(3)
    keep_all = AnycastMode(randomized=True, p_deliver=1.0)
    drop_all = AnycastMode(randomized=True, p_deliver=0.0)
    for _ in range(50):
        assert anycast_filter(stage, ["a", "b", "c"], keep_all, rng) == ["a", "b", "c"]
        assert anycast_filter(stage, ["a", "b", "c"], drop_all, rng) == []


def test_anycast_selection_is_seed_deterministic():
    mode = AnycastMode(randomized=True, p_deliver=0.5)
    runs = []
    for _ in range(2):
        rng = random.Random(99)
        runs.append([anycast_filter("connector", list("abcdef"), mode, rng)
                     for _ in range(30)])
    assert runs[0] == runs[1]


def test_anycast_rejects_unknown_stage():
    with pytest.raises(ValueError):
        anycast_filter("core", ["a"], AnycastMode(), random.Random(1))


def test_roles_for_join():
    assert roles_for_join(ServiceModel.SSM, "producer") == frozenset(("producer",))
    assert roles_for_join(ServiceModel.MSAC, "consumer") == frozenset(("consumer",))
    assert roles_for_join(ServiceModel.MMM, "member") == frozenset(("producer", "consumer"))
    with pytest.raises(InvalidRole):
        roles_for_join(ServiceModel.MMM, "producer")
    with pytest.raises(InvalidRole):
        roles_for_join(ServiceModel.SSM, "member")


def test_role_rows_expands_member_without_a_model_check():
    assert role_rows("member") == ("producer", "consumer")
    assert role_rows("producer") == ("producer",)
    assert role_rows("consumer") == ("consumer",)
    for model in ServiceModel:
        for role in ("producer", "consumer", "member"):
            try:
                rows = roles_for_join(model, role)
            except InvalidRole:
                continue
            assert rows == frozenset(role_rows(role))


def test_self_lock_is_an_anycast_right():
    for model in (ServiceModel.AC, ServiceModel.SLAC, ServiceModel.MSAC):
        check_self_lock_allowed(model)
    for model in (ServiceModel.SSM, ServiceModel.SLSM, ServiceModel.MSM,
                  ServiceModel.MMM):
        with pytest.raises(ServiceForbidsSelfLock):
            check_self_lock_allowed(model)
