"""Cross-commit replay: every demo and benchmark world renders the same bytes
as recorded.

C8 compares two runs of one build; this compares a run against digests
written by an earlier build, so a refactor that changes a single trace or
report byte fails here. The benchmark worlds come from bench/worlds.py's
`generate(workload, seed)`, read as it is. A deliberate trace change
regenerates the fixture:

    PYTHONPATH=src python tests/test_replay_golden.py > tests/fixtures/replay_digests.txt
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from yodel import dataplane
from yodel.scenario import load_world
from yodel.sim import SimConfig, Simulation

ROOT = pathlib.Path(__file__).parent.parent
WORLDS = ROOT / "demos" / "worlds"
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "replay_digests.txt"

PAIRS = [
    ("hello.topo", "hello.scen"),
    ("fanout-unicast.topo", "fanout.scen"),
    ("fanout-group.topo", "fanout.scen"),
    ("failover.topo", "failover.scen"),
    ("twin.topo", "twin.scen"),
    ("split.topo", "split.scen"),
    ("flap.topo", "flap.scen"),
    ("anycast.topo", "anycast.scen"),
    ("twin-late-join.topo", "twin-late-join.scen"),
    ("two-valleys.topo", "two-valleys.scen"),
]
SEEDS = (0, 7)

BENCH_WORKLOADS = ("mcast-fanout", "join-churn", "twin-outage")
BENCH_SEEDS = (1, 2)


def _bench_worlds():
    """bench/worlds.py as a module; the bench directory is not a package."""
    spec = importlib.util.spec_from_file_location(
        "bench_worlds", ROOT / "bench" / "worlds.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def _digests(topo_text: str, scen_text: str, seed: int) -> tuple[str, str]:
    topo, scen, errors = load_world(topo_text, scen_text)
    assert not errors, [str(e) for e in errors]
    sim = Simulation(topo, scen, SimConfig.from_scenario(scen, seed)).run()
    return (hashlib.sha256(sim.trace.text().encode()).hexdigest(),
            hashlib.sha256(sim.metrics.to_json().encode()).hexdigest())


def digests(topo_name: str, scen_name: str, seed: int) -> tuple[str, str]:
    return _digests((WORLDS / topo_name).read_text(),
                    (WORLDS / scen_name).read_text(), seed)


def bench_digests(workload: str, seed: int) -> tuple[str, str]:
    world = _bench_worlds().generate(workload, seed)
    return _digests(world.topology, world.scenario, seed)


def bench_names(workload: str) -> tuple[str, str]:
    """Fixture columns for a benchmark world: the names worlds.py writes."""
    return f"{workload}.topo", f"{workload}.scen"


def recorded() -> dict[tuple[str, str, int], tuple[str, str]]:
    out = {}
    for line in FIXTURE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        topo_name, scen_name, seed, trace_sha, report_sha = line.split()
        out[(topo_name, scen_name, int(seed))] = (trace_sha, report_sha)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topo_name,scen_name", PAIRS)
def test_replay_matches_recorded_digests(topo_name, scen_name, seed):
    assert digests(topo_name, scen_name, seed) == \
        recorded()[(topo_name, scen_name, seed)]


def test_golden_worlds_send_every_op(monkeypatch):
    """The replay gate covers every op's send and receive code: across the
    demo worlds, nodes read each op `dataplane` defines."""
    parse = dataplane.parse_op
    received = set()

    def spy(data):
        op = parse(data)
        received.add(op["op"])
        return op

    monkeypatch.setattr(dataplane, "parse_op", spy)
    for topo_name, scen_name in PAIRS:
        for seed in SEEDS:
            digests(topo_name, scen_name, seed)
    defined = {getattr(dataplane, name) for name in dataplane.__all__
               if name.startswith("OP_")}
    assert sorted(received) == sorted(defined)


@pytest.mark.parametrize("seed", BENCH_SEEDS)
@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_bench_world_matches_recorded_digests(workload, seed):
    assert bench_digests(workload, seed) == \
        recorded()[(*bench_names(workload), seed)]


if __name__ == "__main__":
    print("# topo scen seed sha256(trace.text()) sha256(metrics.to_json())")
    for topo_name, scen_name in PAIRS:
        for seed in SEEDS:
            print(topo_name, scen_name, seed, *digests(topo_name, scen_name, seed))
    print("# bench/worlds.py generate(workload, seed), run with the same seed")
    for workload in BENCH_WORKLOADS:
        for seed in BENCH_SEEDS:
            print(*bench_names(workload), seed, *bench_digests(workload, seed))
