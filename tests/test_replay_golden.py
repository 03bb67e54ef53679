"""Cross-commit replay: every demo world renders the same bytes as recorded.

C8 compares two runs of one build; this compares a run against digests
written by an earlier build, so a refactor that changes a single trace or
report byte fails here. A deliberate trace change regenerates the fixture:

    PYTHONPATH=src python tests/test_replay_golden.py > tests/fixtures/replay_digests.txt
"""

import hashlib
import pathlib

import pytest

from yodel.scenario import load_world
from yodel.sim import SimConfig, Simulation

WORLDS = pathlib.Path(__file__).parent.parent / "demos" / "worlds"
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "replay_digests.txt"

PAIRS = [
    ("hello.topo", "hello.scen"),
    ("fanout-unicast.topo", "fanout.scen"),
    ("fanout-group.topo", "fanout.scen"),
    ("failover.topo", "failover.scen"),
    ("twin.topo", "twin.scen"),
    ("split.topo", "split.scen"),
    ("flap.topo", "flap.scen"),
]
SEEDS = (0, 7)


def digests(topo_name: str, scen_name: str, seed: int) -> tuple[str, str]:
    topo, scen, errors = load_world((WORLDS / topo_name).read_text(),
                                    (WORLDS / scen_name).read_text())
    assert not errors, [str(e) for e in errors]
    sim = Simulation(topo, scen, SimConfig.from_scenario(scen, seed)).run()
    return (hashlib.sha256(sim.trace.text().encode()).hexdigest(),
            hashlib.sha256(sim.metrics.to_json().encode()).hexdigest())


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


if __name__ == "__main__":
    print("# topo scen seed sha256(trace.text()) sha256(metrics.to_json())")
    for topo_name, scen_name in PAIRS:
        for seed in SEEDS:
            print(topo_name, scen_name, seed, *digests(topo_name, scen_name, seed))
