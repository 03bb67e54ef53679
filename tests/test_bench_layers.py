"""The benchmark's layer tracer still finds every function it names.

bench/layers.py wraps each `LAYERS` entry at the name its caller resolves
at call time: `vars(owner)[attr]` on the class or module. A refactor that
deletes or moves a traced function (`HostNode.state_dump`, or the
`on_message` a node class defines itself) breaks `bench/run.py --trace 1`.
This loads bench/layers.py as it is, patches once and checks the restore.

The tracer also relies on two things of the simulator: a traced run renders
the same bytes as an untraced one, and every event enters the heap through
`Simulation.schedule(tick, fn)`, the call it wraps to tag events and count
`sim.events`.
"""

import heapq
import importlib
import importlib.util
import pathlib
import sys
import types

import pytest

from yodel import sim as sim_module
from yodel.scenario import load_world
from yodel.sim import SimConfig, Simulation

ROOT = pathlib.Path(__file__).parent.parent
WORLDS = ROOT / "demos" / "worlds"


def _bench_layers():
    """bench/layers.py as a module; the bench directory is not a package."""
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _owner(module: str, path: str):
    """The class or module whose own namespace holds the traced name."""
    owner = importlib.import_module(f"yodel.{module}")
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner


def test_patch_wraps_every_layer_and_restores_the_originals():
    layers = _bench_layers()
    slots = [(f"{module}.{path}", _owner(module, path), path.split(".")[-1])
             for module, path in layers.LAYERS]
    missing = [name for name, owner, attr in slots if attr not in vars(owner)]
    assert not missing, f"traced names not defined where the tracer looks: {missing}"
    originals = [vars(owner)[attr] for _, owner, attr in slots]
    with layers.Tracer().patch():
        for (name, owner, attr), original in zip(slots, originals):
            assert vars(owner)[attr] is not original, name
    for (name, owner, attr), original in zip(slots, originals):
        assert vars(owner)[attr] is original, name


def _run(topo_name, scen_name, seed=7):
    topo, scen, errors = load_world((WORLDS / topo_name).read_text(),
                                    (WORLDS / scen_name).read_text())
    assert errors == []
    sim = Simulation(topo, scen, SimConfig.from_scenario(scen, seed)).run()
    return sim, sim.trace.text(), sim.metrics.to_json()


@pytest.mark.parametrize("topo_name,scen_name", [
    ("fanout-group.topo", "fanout.scen"), ("twin.topo", "twin.scen")])
def test_traced_run_renders_the_same_bytes_and_schedules_every_event(
        topo_name, scen_name, monkeypatch):
    layers = _bench_layers()
    _, trace, report = _run(topo_name, scen_name)
    pushes = []

    def push(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    # only the simulator's own module sees the counting heappush
    monkeypatch.setattr(sim_module, "heapq", types.SimpleNamespace(
        heappush=push, heappop=heapq.heappop))
    tracer = layers.Tracer()
    with tracer.patch():
        _, traced_trace, traced_report = _run(topo_name, scen_name)
    assert (traced_trace, traced_report) == (trace, report)
    scheduled = layers.aggregate(tracer)["sim.Simulation.schedule"]["calls"]
    assert scheduled > 0
    assert len(pushes) == scheduled
