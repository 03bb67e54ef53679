"""The benchmark's layer tracer still finds every function it names.

bench/layers.py wraps each `LAYERS` entry at the name its caller resolves
at call time: `vars(owner)[attr]` on the class or module. A refactor that
deletes or moves a traced function (`HostNode.state_dump`, or the
`on_message` a node class defines itself) breaks `bench/run.py --trace 1`.
This loads bench/layers.py as it is, patches once and checks the restore.

The tracer also relies on two things of the simulator: a traced run renders
the same bytes as an untraced one, and every event enters the event queue
through `Simulation.schedule(tick, fn)`, the call it wraps to tag events and
count `sim.events`.
"""

import functools
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
    """The queue's tick heap holds only ticks that `schedule` was given,
    and every traced call inside `run()` belongs to a tagged event: an event
    put in a tick's list some other way would run with event id 0."""
    layers = _bench_layers()
    _, trace, report = _run(topo_name, scen_name)
    pushed, seen = set(), set()

    def push(heap, tick):
        pushed.add(tick)
        heapq.heappush(heap, tick)

    # only the simulator's own module sees the recording heappush
    monkeypatch.setattr(sim_module, "heapq", types.SimpleNamespace(
        heappush=push, heappop=heapq.heappop))
    schedule = Simulation.schedule

    @functools.wraps(schedule)
    def seen_schedule(sim, tick, fn):
        seen.add(tick)
        schedule(sim, tick, fn)

    # the tracer wraps what it finds, so it tags events on top of this
    monkeypatch.setattr(Simulation, "schedule", seen_schedule)
    tracer = layers.Tracer()
    with tracer.patch():
        _, traced_trace, traced_report = _run(topo_name, scen_name)
    assert (traced_trace, traced_report) == (trace, report)
    assert layers.aggregate(tracer)["sim.Simulation.schedule"]["calls"] > 0
    assert pushed == seen
    rows = list(tracer.span_rows())
    (start, end), = [(s, e) for _, name, s, e, _, _ in rows
                     if name == "sim.Simulation.run"]
    inside = [(name, event) for _, name, s, e, _, event in rows
              if start < s and e < end]
    assert inside
    assert [row for row in inside if row[1] == 0] == []


# the names a data copy's trip from send to delivery passes, as `aggregate`
# reports them: defining module and qualified name
DATA_PATH = [
    "codec.pop_path_root",
    "dataplane.Node.strategic_send",
    "dataplane.EdgeNode.on_message",
    "dataplane.ConnectorNode.on_message",
    "dataplane.HostNode.on_message",
    "sim.Simulation.transmit",
    "trace.Trace.emit",
]


def test_traced_run_calls_every_data_path_layer():
    """Every data-path name the tracer wraps is still on the call path: a
    refactor that routes around one, say by binding `pop_path_root` where
    the tracer does not look, would read 0 calls in `--trace 1` and fail
    nothing else. The fanout-group world has no connector, so the hello
    world, whose copies cross one, runs under the same tracer."""
    layers = _bench_layers()
    tracer = layers.Tracer()
    with tracer.patch():
        _run("fanout-group.topo", "fanout.scen")
        _run("hello.topo", "hello.scen")
    calls = {name: agg["calls"]
             for name, agg in layers.aggregate(tracer).items()}
    assert set(DATA_PATH) <= set(calls)
    assert [name for name in DATA_PATH if calls[name] < 1] == []
