"""The benchmark's layer tracer still finds every function it names.

bench/layers.py wraps each `LAYERS` entry at the name its caller resolves
at call time: `vars(owner)[attr]` on the class or module. A refactor that
deletes or moves a traced function (`HostNode.state_dump`, or the
`on_message` a node class defines itself) breaks `bench/run.py --trace 1`.
This loads bench/layers.py as it is, patches once and checks the restore.
"""

import importlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).parent.parent


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
