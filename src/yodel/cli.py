"""Command line front end: validate worlds, run them, diff their traces.

Exit codes: 0 success, 1 problems found (validation diagnostics, protocol
errors during a run, differing traces), 2 usage or unrunnable input, 3 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import YodelError
from .scenario import load_world
from .sim import SimConfig, Simulation

__all__ = ["main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yodel-sim",
        description="deterministic name-based multicast simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def world_flags(p):
        p.add_argument("--topology", required=True,
                       help="topology description file")
        p.add_argument("--scenario", required=True,
                       help="scenario script file")

    v = sub.add_parser("validate", help="parse both files and resolve "
                                        "references without running")
    world_flags(v)

    r = sub.add_parser("run", help="run the world and write trace and report")
    world_flags(r)
    r.add_argument("--seed", type=int, default=None,
                   help="run seed (default: YODEL_SIM_SEED or 0)")
    r.add_argument("--until", type=int, default=None,
                   help="horizon tick, overrides the scenario config")
    r.add_argument("--out", default="trace.txt",
                   help="trace output path (default trace.txt)")
    r.add_argument("--report", default="report.json",
                   help="metrics report path (default report.json)")

    d = sub.add_parser("diff", help="compare two trace files line by line")
    d.add_argument("left")
    d.add_argument("right")
    return parser


def _resolve_seed(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("YODEL_SIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"YODEL_SIM_SEED is not an integer: {env!r}",
                  file=sys.stderr)
            raise SystemExit(2) from None
    return 0


def _load(args):
    try:
        topo_text = _read(args.topology)
        scen_text = _read(args.scenario)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        raise SystemExit(3) from None
    return load_world(topo_text, scen_text, args.topology, args.scenario)


def _cmd_validate(args) -> int:
    topo, scen, errors = _load(args)
    for err in errors:
        print(str(err))
    if errors:
        return 1
    print(f"ok: {len(topo.nodes)} nodes, {len(topo.hosts)} hosts, "
          f"{len(scen.commands)} commands")
    return 0


def _cmd_run(args) -> int:
    topo, scen, errors = _load(args)
    if errors:
        for err in errors:
            print(str(err), file=sys.stderr)
        return 2
    seed = _resolve_seed(args.seed)
    try:
        config = SimConfig.from_scenario(scen, seed)
        if args.until is not None:
            config.until = args.until
        sim = Simulation(topo, scen, config).run()
    except YodelError as exc:
        print(f"cannot run world: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(sim.trace.text())
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(sim.metrics.to_json())
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    delivered = sum(sim.metrics.deliveries.values())
    print(f"seed={seed} ticks<={config.until} events={len(sim.trace)} "
          f"delivered={delivered} proto_errors={sim.metrics.proto_errors}")
    return 1 if sim.metrics.proto_errors else 0


def _cmd_diff(args) -> int:
    try:
        left = _read(args.left).splitlines()
        right = _read(args.right).splitlines()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    limit = max(len(left), len(right))
    for i in range(limit):
        l = left[i] if i < len(left) else "<end of file>"
        r = right[i] if i < len(right) else "<end of file>"
        if l != r:
            print(f"first difference at line {i + 1}")
            for j in range(max(0, i - 2), i):
                print(f"  {j + 1}: {left[j]}")
            print(f"< {i + 1}: {l}")
            print(f"> {i + 1}: {r}")
            return 1
    print(f"identical ({len(left)} lines)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_diff(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
