"""Worlds built from topology and scenario text, run whole or in steps.

A test writes a few lines of each format, builds the `Simulation` with
`build_text` and runs it. `step(sim, tick)` raises `config.until` and runs
again, so a test can read node tables, counters and trace lines between
steps; `test_stepped_run_equals_one_run` (tests/test_sim.py) pins that a
stepped run equals one run.
"""

from yodel.scenario import load_world
from yodel.sim import SimConfig, Simulation


def build_text(topo_text, scen_text, seed=1):
    topo, scen, errors = load_world(topo_text, scen_text)
    assert errors == [], [str(e) for e in errors]
    return Simulation(topo, scen, SimConfig.from_scenario(scen, seed))


def step(sim, until):
    """Run `sim` on to tick `until` and return it."""
    sim.config.until = until
    return sim.run()


def run_in_steps(sim):
    """Run `sim` to a third of its horizon, then on to the horizon."""
    until = sim.config.until
    step(sim, until // 3)
    return step(sim, until)
