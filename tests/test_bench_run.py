"""The benchmark's use of the package still works.

bench/run.py reads more of the package than the layer tracer does: after
the first repetition of every call, `keep()` takes the largest tree of the
controller's advertised trees by `.size()`, and `_codec_roundtrip_us`
encodes and decodes a sync message carrying it, reading its `.yni`. A
change to the path tree that broke either would break every benchmark run.
This loads bench/run.py as it is and does both on one benchmark world.
"""

import importlib.util
import pathlib
import sys

from yodel.codec import PathTree

ROOT = pathlib.Path(__file__).parent.parent
BENCH = ROOT / "bench"


def _bench_run(monkeypatch):
    """bench/run.py as a module, with its sibling modules importable as it
    imports them when run as a script."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_largest_advertised_tree_round_trips_as_the_benchmark_reads_it(
        monkeypatch):
    run = _bench_run(monkeypatch)
    world = run.worlds.generate("join-churn", 1)
    rep, sim, _ = run._cycle(world, 1)
    assert not rep.check.failed and not rep.check.problems
    trees = [t for flow in sim.controller.flows.values()
             for t in flow.advertised.values()]
    tree = max(trees, key=lambda t: t.size())
    assert type(tree) is PathTree and tree.size() > 1
    assert run._codec_roundtrip_us(tree) > 0
