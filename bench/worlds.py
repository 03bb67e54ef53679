"""Deterministic world generator for the benchmark workloads.

`generate(workload, seed)` returns the topology and scenario text that the
simulator reads, plus the membership record the benchmark checks deliveries
against: for every scheduled send, the (host, app) pairs registered as
consumers of its community at the send tick. The simulator only ever sees
the two world files; the membership record stays on the benchmark's side.

The same (workload, seed) always gives the same bytes. Seeds change which
edge hangs off which connector, which hosts form each community, the send
order and the churn and outage picks; the shape of each world (domain,
connector, edge, host and community counts, community sizes, send, op and
outage counts, and the horizon) is fixed per workload, so host time varies
little by seed.

Run as a script to write the files of one world:

    python3 bench/worlds.py --workload mcast-fanout --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Send", "World", "generate"]

VALLEY = "v"
NAMESPACE = "ns"
ADMIN = "admin"
APP = 1
EDGE_COMPUTE = 4  # host slots per edge for placement
RING_LATENCY = 3
# A join or withdraw has reached every table after host->edge->controller->
# edge->host, four ticks at the default latencies; leave margin.
SETTLE = 15
# Upper bound on producer host -> consumer host latency in these shapes
# (at most two ring hops of 3 ticks plus the connector chains and access
# links); sends keep this far from any change that could cut them off.
MAX_PATH_TICKS = 30
# The run length of each workload: rounds in which every community sends
# once in mcast-fanout, churn rounds in join-churn, host outages in
# twin-outage. Whole send rounds keep the op count the same for every seed.
FANOUT_ROUNDS = 16
CHURN_ROUNDS = 10
OUTAGES = 20
OUTAGE_SEND_ROUNDS = 3


@dataclass(frozen=True)
class Send:
    tick: int
    host: str
    community: str
    consumers: tuple[tuple[str, int], ...]  # (host, app) registered at tick


@dataclass
class World:
    workload: str
    seed: int
    topology: str
    scenario: str
    sends: list[Send]

    def membership(self) -> str:
        """The membership record as text: one line per send."""
        return "".join(
            f"{s.tick} {s.host} {s.community} "
            + " ".join(f"{h}:{a}" for h, a in s.consumers) + "\n"
            for s in self.sends)


class _Script:
    def __init__(self):
        self.config: dict[str, int] = {}
        self.commands: list[tuple[int, str]] = []

    def at(self, tick: int, *words: object) -> None:
        self.commands.append((tick, " ".join(str(w) for w in words)))

    def text(self) -> str:
        lines = [f"config {k} {v}" for k, v in self.config.items()]
        lines += [f"at {t} {c}"
                  for t, c in sorted(self.commands, key=lambda tc: tc[0])]
        return "\n".join(lines) + "\n"


def _topology(rng: random.Random, domains: int, connectors: int, edges: int,
              hosts_per_edge: int, groups: bool,
              ) -> tuple[str, list[str], list[tuple[str, str]]]:
    """Domains of chained connectors with edges hung off random connectors,
    joined in a ring. Returns (text, host names, ring links)."""
    lines = [f"domain d{d}" for d in range(domains)]
    links: list[tuple[str, str, int]] = []
    ring: list[tuple[str, str]] = []
    attached: dict[str, list[str]] = {}
    for d in range(domains):
        for c in range(connectors):
            lines.append(f"node d{d}c{c} connector d{d}")
            attached[f"d{d}c{c}"] = []
        for e in range(edges):
            lines.append(f"node d{d}e{e} edge d{d} compute={EDGE_COMPUTE}")
        for c in range(connectors - 1):
            links.append((f"d{d}c{c}", f"d{d}c{c + 1}", 1))
        for e in range(edges):
            conn = f"d{d}c{rng.randrange(connectors)}"
            links.append((f"d{d}e{e}", conn, 1))
            attached[conn].append(f"d{d}e{e}")
    for d in range(domains):
        a, b = f"d{d}c{connectors - 1}", f"d{(d + 1) % domains}c0"
        links.append((a, b, RING_LATENCY))
        ring.append((a, b))
    lines += [f"link {a} {b} {lat}" for a, b, lat in links]
    if groups:
        for conn, members in attached.items():
            if len(members) >= 2:
                lines.append(f"mcastgroup {conn[:conn.index('c')]} {conn} "
                             + " ".join(members))
    hosts = []
    for d in range(domains):
        for _ in range(edges * hosts_per_edge):
            n = len(hosts)
            hosts.append(f"h{n}")
            lines.append(f"host h{n} u{n} domain=d{d}")
    return "\n".join(lines) + "\n", hosts, ring


def _tenancy(script: _Script, hosts: list[str]) -> None:
    script.at(0, "valley", ADMIN, VALLEY)
    for h in hosts:
        script.at(0, "member", ADMIN, VALLEY, "u" + h[1:])
    script.at(1, "namespace", ADMIN, VALLEY, NAMESPACE, "msm")


def _join(script: _Script, tick: int, host: str, community: str,
          role: str) -> None:
    script.at(tick, "join", host, VALLEY, NAMESPACE, community, role, APP)


def _withdraw(script: _Script, tick: int, host: str, community: str) -> None:
    script.at(tick, "withdraw", host, VALLEY, NAMESPACE, community,
              "consumer", APP)


def _send(script: _Script, sends: list[Send], tick: int, host: str,
          community: str, consumers) -> None:
    script.at(tick, "send", host, VALLEY, community, APP, f"m{len(sends)}")
    sends.append(Send(tick, host, community,
                      tuple(sorted((c, APP) for c in consumers))))


def _fanout_communities(rng: random.Random, hosts: list[str]):
    """24 communities of 3, 5, 9 and 17 hosts, so delivery trees run from a
    few nodes to about twenty; producers are distinct hosts."""
    sizes = [3, 5, 9, 17] * 6
    producers = rng.sample(hosts, len(sizes))
    out = {}
    for i, (size, producer) in enumerate(zip(sizes, producers)):
        others = [h for h in hosts if h != producer]
        out[f"c{i}"] = (producer, sorted(rng.sample(others, size - 1)))
    return out


def _join_all(script: _Script, communities) -> int:
    """Consumers, then producers, spread over a few ticks; returns the first
    tick at which every join has settled."""
    last = 2
    for i, (name, (producer, consumers)) in enumerate(communities.items()):
        tick = 2 + i % 8
        for c in consumers:
            _join(script, tick, c, name, "consumer")
        _join(script, tick + 1, producer, name, "producer")
        last = max(last, tick + 1)
    return last + SETTLE


def _mcast_fanout(seed: int) -> tuple[str, _Script, list[Send]]:
    topo, hosts, _ = _topology(random.Random(f"fanout-topology:{seed}"),
                               4, 3, 4, 4, groups=True)
    rng = random.Random(f"mcast-fanout:{seed}")
    script = _Script()
    _tenancy(script, hosts)
    communities = _fanout_communities(rng, hosts)
    start = _join_all(script, communities)
    order = list(communities)
    rng.shuffle(order)
    sends: list[Send] = []
    for i in range(FANOUT_ROUNDS * len(order)):
        name = order[i % len(order)]
        producer, consumers = communities[name]
        _send(script, sends, start + i, producer, name, consumers)
    until = sends[-1].tick + MAX_PATH_TICKS + 10
    script.config = {"until": until, "twin_period": until + 1}
    return topo, script, sends


def _join_churn(seed: int) -> tuple[str, _Script, list[Send]]:
    topo, hosts, ring = _topology(random.Random(f"churn-topology:{seed}"),
                                  6, 2, 6, 2, groups=False)
    rng = random.Random(f"join-churn:{seed}")
    script = _Script()
    _tenancy(script, hosts)
    communities = {}
    for i in range(60):
        chosen = rng.sample(hosts, 4)
        communities[f"c{i}"] = (chosen[0], sorted(chosen[1:]))
    t = _join_all(script, communities)
    current = {name: set(cons) for name, (_, cons) in communities.items()}
    left: dict[str, list[str]] = {name: [] for name in communities}
    names = list(communities)
    sends: list[Send] = []
    rounds, churn_per_round, sends_per_round, flap_every = (CHURN_ROUNDS, 10,
                                                              8, 4)
    down = None
    for r in range(rounds):
        if r % flap_every == 0:
            down = ring[(r // flap_every) % len(ring)]
            script.at(t, "fault", "link-down", *down)
        elif r % flap_every == 1 and down is not None:
            script.at(t, "fault", "link-up", *down)
            down = None
        for name in rng.sample(names, churn_per_round):
            producer, _ = communities[name]
            members = current[name]
            if left[name] and rng.random() < 0.5:
                joiner = left[name].pop(rng.randrange(len(left[name])))
            else:
                joiner = rng.choice([h for h in hosts
                                     if h not in members and h != producer
                                     and h not in left[name]])
            quitter = rng.choice(sorted(members))
            _join(script, t, joiner, name, "consumer")
            _withdraw(script, t, quitter, name)
            members.add(joiner)
            members.discard(quitter)
            left[name].append(quitter)
        for j, name in enumerate(rng.sample(names, sends_per_round)):
            producer, _ = communities[name]
            _send(script, sends, t + SETTLE + j, producer, name,
                  current[name])
        t += SETTLE + sends_per_round + MAX_PATH_TICKS + 10
    script.config = {"until": t, "twin_period": t + 1}
    return topo, script, sends


def _twin_outage(seed: int) -> tuple[str, _Script, list[Send]]:
    topo, hosts, _ = _topology(random.Random(f"fanout-topology:{seed}"),
                               4, 3, 4, 4, groups=True)
    rng = random.Random(f"twin-outage:{seed}")
    script = _Script()
    _tenancy(script, hosts)
    communities = _fanout_communities(rng, hosts)
    start = _join_all(script, communities)
    producers = {p for p, _ in communities.values()}
    # one entry per membership, so hosts in more communities go down more
    # often and more sends reach an active twin
    memberships = sorted(c for _, cons in communities.values() for c in cons
                         if c not in producers)
    # Outages start every 20 ticks and last 25 to 40, so one or two hosts
    # are away at a time. The last keepalive answered before an outage is
    # at most 7 ticks old, so with the default twin lifetime of 50 ticks the
    # twin buffers and then flushes instead of expiring. Activation takes up
    # to three sweeps of 5 ticks; a message reaching the edge between
    # host-down and activation would be lost, so no send that could arrive
    # in that window goes to the host's communities.
    outages, spacing = OUTAGES, 20
    blocked: dict[str, list[tuple[int, int]]] = {}
    back_at: dict[str, int] = {}
    for k in range(outages):
        down = start + 60 + k * spacing
        host = rng.choice([h for h in memberships
                           if back_at.get(h, -1) + SETTLE < down])
        up = down + rng.randint(25, 40)
        back_at[host] = up
        script.at(down, "fault", "host-down", host)
        script.at(up, "fault", "host-up", host)
        blocked.setdefault(host, []).append(
            (down - 1 - MAX_PATH_TICKS, down + 16))
    end = start + 60 + outages * spacing + 60
    sends: list[Send] = []
    # Every community sends OUTAGE_SEND_ROUNDS times, queued round by round
    # in a fresh order each round, at most one send every 5 ticks. A blocked
    # community keeps its place and sends as soon as its window has passed,
    # so it is delayed, not skipped, and the ops are the same for every seed.
    waiting = []
    for _ in range(OUTAGE_SEND_ROUNDS):
        batch = list(communities)
        rng.shuffle(batch)
        waiting += batch
    tick = start
    while waiting:
        for k, name in enumerate(waiting):
            producer, consumers = communities[name]
            if not any(lo <= tick <= hi for c in consumers
                       for lo, hi in blocked.get(c, ())):
                _send(script, sends, tick, producer, name, consumers)
                del waiting[k]
                break
        tick += 5
    end = max(end, tick)
    script.config = {"until": end + MAX_PATH_TICKS + 10}
    return topo, script, sends


WORKLOADS = {
    "mcast-fanout": _mcast_fanout,
    "join-churn": _join_churn,
    "twin-outage": _twin_outage,
}


def generate(workload: str, seed: int) -> World:
    topo, script, sends = WORKLOADS[workload](seed)
    return World(workload, seed, topo, script.text(), sends)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write to")
    args = parser.parse_args()
    world = generate(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-{args.seed}")
    for suffix, text in ((".topo", world.topology), (".scen", world.scenario),
                         (".members", world.membership())):
        with open(stem + suffix, "w", encoding="utf-8") as f:
            f.write(text)


if __name__ == "__main__":
    main()
