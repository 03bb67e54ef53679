"""Service-model policy: the seven multicast variants and the pure decision
functions the controller and edges apply.

The variant determines four capabilities (how many producer edges may be
active, how many channels a flow may hold, whether channels are single- or
multi-source, and whether the flow may be partitioned) plus the anycast
family membership that gates consumer self-locking. Everything here is a
pure function over caller-supplied state; flow and table mutation stays with
the controller and the node state machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, TypeVar

from .errors import InvalidRole, ServiceForbidsSelfLock
from .ynid import Yni

__all__ = [
    "Multiplicity",
    "ChannelSource",
    "ServiceAttributes",
    "ServiceModel",
    "AnycastMode",
    "admit_producer",
    "next_local_producer",
    "next_producer_edge",
    "balance_consumers",
    "anycast_filter",
    "role_rows",
    "roles_for_join",
    "check_self_lock_allowed",
]


class Multiplicity(Enum):
    ONE = "one"
    ONE_OR_MORE = "one-or-more"


class ChannelSource(Enum):
    SINGLE = "single"
    MULTI = "multi"


@dataclass(frozen=True)
class ServiceAttributes:
    active_producer_edges: Multiplicity
    channels_per_flow: Multiplicity
    channel_source: ChannelSource
    partitioning: bool


_ONE = Multiplicity.ONE
_MANY = Multiplicity.ONE_OR_MORE


class ServiceModel(Enum):
    SSM = "SSM"    # single-source multicast
    AC = "AC"      # anycast over single-source multicast
    SLSM = "SLSM"  # partitionable single-source multicast
    SLAC = "SLAC"  # partitionable anycast
    MSM = "MSM"    # multi-source multicast
    MSAC = "MSAC"  # multi-source anycast
    MMM = "MMM"    # many-to-many (every member holds both roles)

    @property
    def attributes(self) -> ServiceAttributes:
        return _TABLE[self]

    @property
    def is_anycast(self) -> bool:
        return self in (ServiceModel.AC, ServiceModel.SLAC, ServiceModel.MSAC)

    @property
    def single_source(self) -> bool:
        return self.attributes.channel_source is ChannelSource.SINGLE


_TABLE = {
    ServiceModel.SSM: ServiceAttributes(_ONE, _ONE, ChannelSource.SINGLE, False),
    ServiceModel.AC: ServiceAttributes(_ONE, _ONE, ChannelSource.SINGLE, False),
    ServiceModel.SLSM: ServiceAttributes(_MANY, _MANY, ChannelSource.SINGLE, True),
    ServiceModel.SLAC: ServiceAttributes(_MANY, _MANY, ChannelSource.SINGLE, True),
    ServiceModel.MSM: ServiceAttributes(_MANY, _MANY, ChannelSource.MULTI, False),
    ServiceModel.MSAC: ServiceAttributes(_MANY, _MANY, ChannelSource.MULTI, False),
    ServiceModel.MMM: ServiceAttributes(_MANY, _MANY, ChannelSource.MULTI, False),
}


@dataclass(frozen=True)
class AnycastMode:
    """Per-namespace anycast configuration.

    randomized=False is the dedicated mode: selection is whatever remains
    after consumer locks, with no randomness. randomized=True drops or picks
    candidates stage by stage using the node's seeded stream.
    """

    randomized: bool = False
    p_deliver: float = 1.0


def admit_producer(model: ServiceModel, *,
                   scope_has_active_edge: bool,
                   edge_is_active: bool,
                   edge_has_active_producer: bool) -> bool:
    """Whether a new producer app's host row goes on hold.

    For the single-source family the scope is the flow (or, once partitioned,
    the joining edge's partition): the first producer stays unlocked and
    every later one goes on hold. Whether a producer edge that is not the
    scope's active edge is locked wholesale is the controller's decision,
    carried in `JoinReply.lock_edge`. Multi-source variants never lock.
    """
    if not model.single_source or not scope_has_active_edge:
        return False
    return not edge_is_active or edge_has_active_producer


_T = TypeVar("_T")


def next_local_producer(candidates: Iterable[tuple[Yni, int]]) -> Optional[tuple[Yni, int]]:
    """Failover choice among on-hold producers at one edge: lowest (host, app)."""
    pool = sorted(candidates)
    return pool[0] if pool else None


def next_producer_edge(candidates: Iterable[Yni]) -> Optional[Yni]:
    """Failover choice among on-hold producer edges: lowest id."""
    pool = sorted(candidates)
    return pool[0] if pool else None


def balance_consumers(producer_edges: Sequence[Yni],
                      consumer_edges: Iterable[Yni]) -> dict[Yni, list[Yni]]:
    """Assign consumer edges to partitions, one partition per producer edge.

    Consumers are taken in id order; each goes to the partition with the
    fewest consumers so far, ties to the lowest producer-edge id. An edge
    that holds both roles is pinned to its own partition first.
    """
    parts: dict[Yni, list[Yni]] = {p: [] for p in sorted(producer_edges)}
    if not parts:
        return parts
    pending = []
    for consumer in sorted(set(consumer_edges)):
        if consumer in parts:
            parts[consumer].append(consumer)
        else:
            pending.append(consumer)
    for consumer in pending:
        target = min(parts, key=lambda p: (len(parts[p]), p))
        parts[target].append(consumer)
    return parts


def anycast_filter(stage: str, candidates: Sequence[_T], mode: AnycastMode,
                   rng: random.Random) -> list[_T]:
    """Per-stage anycast selection over lock-surviving candidates.

    host stage: pick exactly one candidate uniformly (or none if empty).
    edge/connector stage: keep each candidate independently with p_deliver.
    Dedicated mode keeps everything; locks upstream already narrowed the set.
    """
    if stage not in ("host", "edge", "connector"):
        raise ValueError(f"unknown anycast stage {stage!r}")
    if not mode.randomized:
        return list(candidates)
    if stage == "host":
        if not candidates:
            return []
        return [candidates[rng.randrange(len(candidates))]]
    return [c for c in candidates if rng.random() < mode.p_deliver]


def role_rows(role: str) -> tuple[str, ...]:
    """The table rows a role names: 'member' is producer then consumer.
    No model check; joins go through roles_for_join."""
    return ("producer", "consumer") if role == "member" else (role,)


def roles_for_join(model: ServiceModel, role: str) -> frozenset[str]:
    """Map a requested role onto the table rows it registers.

    The many-to-many variant admits only 'member' (both roles in one join);
    every other variant admits 'producer' or 'consumer'.
    """
    if model is ServiceModel.MMM:
        if role != "member":
            raise InvalidRole(f"{model.value} admits members only, not {role!r}")
    elif role not in ("producer", "consumer"):
        raise InvalidRole(f"{model.value} admits producer/consumer, not {role!r}")
    return frozenset(role_rows(role))


def check_self_lock_allowed(model: ServiceModel) -> None:
    """Consumer self-locking exists only in the anycast family."""
    if not model.is_anycast:
        raise ServiceForbidsSelfLock(f"{model.value} consumers cannot self-lock")
