"""yodel-sim benchmark: one generated world, timed the way `yodel-sim run`
drives the library, with every run's output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The world comes from `worlds.generate(workload, seed)`. One repetition does
the four phases of `yodel.cli._cmd_run` through the public API: parse
(`scenario.load_world`) and build (`Simulation(...)`), together `setup_s`;
`Simulation.run()`, `run_s`; and render (`Trace.text()` plus
`Metrics.to_json()`, the bytes the command line writes), `render_s`.
Repetitions go on until S seconds have passed. The shared hosts this runs
on change speed by up to 2x over minutes, so a fixed reference job
(reference.py) is timed before and after each phase, and each phase's time
is scaled to seconds on the reference host; the metrics are medians of the
scaled times.
Each repetition is checked (see checks.py); one that fails is not timed and
its ops count as failed.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
first half of the time runs untraced, the second half under the layer
tracer (layers.py), and the result holds the per-layer metrics; spans and
per-layer aggregates of the last traced repetition go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The yodel sources are taken from
src/ next to this directory; without them the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from collections import Counter, deque
from statistics import median, quantiles
from time import perf_counter

import checks
import layers
import reference
import worlds

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
MIN_REPS = 2
# Render is short, so each repetition renders this many times and render_s
# is the median over all of them; traced repetitions render once.
RENDERS = 3
TRACE_EVENTS = ("SEND", "RECV", "DELIVER", "DROP", "PATH_ADV", "TWIN_ACTIVE")
# Phase entry points the benchmark itself calls once per repetition; their
# call count says nothing, so only their time is reported.
ONCE_PER_REPETITION = {"scenario.load_world", "trace.Trace.text",
                       "trace.Metrics.to_json"}


class Rep:
    """One repetition: setup and run time, the times of its renders, the
    host-speed scale read before and after each phase, its check and, when
    traced, the per-layer aggregates of its spans."""

    def __init__(self, setup_s, run_s, render_s, scales, check):
        self.setup_s = setup_s
        self.run_s = run_s
        self.render_s = render_s
        self.scales = scales  # before setup, run and render, after render
        self.check = check
        self.layers = None

    def scaled(self):
        """(setup_s, run_s, render_s) on the reference host, each phase by
        the mean of the scales read just before and just after it."""
        s = self.scales
        return (self.setup_s * (s[0] + s[1]) / 2,
                self.run_s * (s[1] + s[2]) / 2,
                [t * (s[2] + s[3]) / 2 for t in self.render_s])

    @property
    def scale(self):
        return sum(self.scales) / len(self.scales)


def _cycle(world, renders):
    """Parse, build and run once, then render `renders` times, reading the
    host-speed scale around each phase; returns (rep, sim, trace text)."""
    from yodel import scenario
    from yodel.sim import SimConfig, Simulation
    gc.collect()
    scales = [reference.scale()]
    t0 = perf_counter()
    topo, scen, errors = scenario.load_world(world.topology, world.scenario)
    if errors:
        raise ValueError(f"generated world does not load: {errors[0]}")
    sim = Simulation(topo, scen, SimConfig.from_scenario(scen, world.seed))
    t1 = perf_counter()
    scales.append(reference.scale())
    t2 = perf_counter()
    sim.run()
    t3 = perf_counter()
    scales.append(reference.scale())
    render = []
    for _ in range(renders):
        t4 = perf_counter()
        trace_text = sim.trace.text()
        report_text = sim.metrics.to_json()
        render.append(perf_counter() - t4)
    scales.append(reference.scale())
    check = checks.check_run(world, trace_text, report_text, sim.metrics)
    return Rep(t1 - t0, t3 - t2, render, scales, check), sim, trace_text


def _repeat(world, seconds, minimum, keep=None, traced=False):
    """Repetitions until `seconds` have passed, at least `minimum` of them.
    `keep(sim, trace_text)` sees the first one. Traced repetitions each run
    under a fresh Tracer; returns (reps, tracer of the last one)."""
    reps, tracer = [], None
    deadline = perf_counter() + seconds
    while len(reps) < minimum or perf_counter() < deadline:
        if traced:
            tracer = layers.Tracer()
            with tracer.patch():
                rep, sim, text = _cycle(world, 1)
            rep.layers = layers.aggregate(tracer)
        else:
            rep, sim, text = _cycle(world, RENDERS)
        if keep is not None and not reps:
            keep(sim, text)
        reps.append(rep)
        del sim, text
    return reps, tracer


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def _per_call(fn, calls_per_batch, batches=15):
    """Median seconds per call over batches of `calls_per_batch`."""
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / calls_per_batch)
    return median(times)


def _codec_roundtrip_us(tree) -> float:
    """Encode then decode of a DATA_YSYNC carrying `tree`."""
    from yodel.codec import (FloatingHeader, MessageKind, YodelMessage,
                             decode, encode)
    from yodel.dataplane import data_metadata
    msg = YodelMessage(MessageKind.DATA_YSYNC, tree.yni, tree.yni,
                       FloatingHeader(valley_id=1, channel_id=1,
                                      metadata=data_metadata(1),
                                      path_tree=tree), b"payload")
    if decode(encode(msg)) != msg:
        raise ValueError("codec round trip changed the message")

    def batch():
        for _ in range(200):
            decode(encode(msg))
    return _per_call(batch, 200) * 1e6


def _yni_hash_ns(ynis) -> float:
    rounds = max(1, 20000 // len(ynis))

    def batch():
        for _ in range(rounds):
            deque(map(hash, ynis), maxlen=0)
    return _per_call(batch, rounds * len(ynis)) * 1e9


def _host() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "machine": platform.machine()}


def _verdict(world, reps, digests):
    """Fail repetitions whose digests differ from the first; returns
    (timed reps, failed op keys, problems)."""
    failed, problems, timed = set(), [], []
    ops = {(i, h, a) for i, s in enumerate(world.sends)
           for h, a in s.consumers}
    for n, rep in enumerate(reps, 1):
        c = rep.check
        rep_problems = list(c.problems)
        if (c.trace_sha256, c.report_sha256) != digests:
            rep_problems.append("trace or report digest differs from the "
                                "first repetition")
        if rep_problems:
            failed |= ops
            problems += [f"repetition {n}: {p}" for p in rep_problems]
        elif c.failed:
            failed |= c.failed
            problems.append(f"repetition {n}: {len(c.failed)} failed ops")
        else:
            timed.append(rep)
    return timed, failed, problems


def _end_to_end(timed, delivered):
    """Medians over the repetitions of their times scaled to the reference
    host (see reference.py)."""
    scaled = [r.scaled() for r in timed]
    setup = [setup for setup, _, _ in scaled]
    run = [run for _, run, _ in scaled]
    render = [t for _, _, renders in scaled for t in renders]
    run_s = median(run)
    return {
        "setup_s": (median(setup), "s", setup),
        "run_s": (run_s, "s", run),
        "render_s": (median(render), "s", render),
        "deliveries_per_s": (delivered / run_s, "1/s", None),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            None),
    }


def _per_layer(untraced, traced, counts, micro):
    """Per-layer metrics: medians over the traced repetitions, exact counts,
    and the microbenchmarks; times are scaled to the reference host."""
    metrics = {}

    def scaled(name, key):
        return median([r.layers[name][key] * r.scale for r in traced])

    for name, last in traced[-1].layers.items():
        if name == "sim.Simulation.run":
            metrics["sim.loop_self_s"] = (scaled(name, "self_s"), "s", None)
            continue
        if name not in ONCE_PER_REPETITION:
            metrics[f"{name}.calls"] = (last["calls"], "count", None)
        metrics[f"{name}.self_s"] = (scaled(name, "self_s"), "s", None)
        if "incl_s" in last:
            metrics[f"{name}.incl_s"] = (scaled(name, "incl_s"), "s", None)
    events = traced[-1].layers["sim.Simulation.schedule"]["calls"]
    untraced_run = median([r.scaled()[1] for r in untraced])
    metrics["sim.events"] = (events, "count", None)
    metrics["sim.us_per_event"] = (untraced_run / events * 1e6, "us", None)
    for ev in TRACE_EVENTS:
        metrics[f"trace.lines.{ev}"] = (counts[ev], "count", None)
    metrics["trace.bytes"] = (counts["bytes"], "bytes", None)
    metrics["tracing_overhead"] = (
        median([r.scaled()[1] for r in traced]) / untraced_run, "ratio",
        None)
    metrics["codec.roundtrip_us"] = (micro["roundtrip_us"], "us", None)
    metrics["ynid.hash_ns"] = (micro["hash_ns"], "ns", None)
    return metrics


def _run_phase(tracer):
    """Aggregates over the spans inside the run() span, and its length."""
    for _, name, start, end, _, _ in tracer.span_rows():
        if name == "sim.Simulation.run":
            agg = layers.aggregate(tracer, start, end)
            del agg["sim.Simulation.run"]
            return agg, (end - start) / 1e9
    raise ValueError("no run() span recorded")


def _write_trace_outputs(stem, tracer, cycle, run, run_s):
    with open(stem + ".spans.tsv", "w", encoding="utf-8") as f:
        f.write("span\tname\tstart_ns\tend_ns\tparent\tevent\n")
        origin = tracer.spans[1] if tracer.spans else 0
        for i, name, start, end, parent, event in tracer.span_rows():
            f.write(f"{i}\t{name}\t{start - origin}\t{end - origin}\t"
                    f"{parent}\t{event}\n")
    with open(stem + ".layers.json", "w", encoding="utf-8") as f:
        json.dump({"cycle": cycle, "run": run, "run_s": run_s}, f, indent=2,
                  sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=worlds.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "yodel", "__init__.py")):
        print(f"yodel sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    world = worlds.generate(args.workload, args.seed)
    attempted = sum(len(s.consumers) for s in world.sends)
    kept = {}

    def keep(sim, text):
        kept["counts"] = Counter(
            line.split(" ", 3)[2][3:] for line in text.splitlines())
        kept["counts"]["bytes"] = len(text.encode())
        trees = [t for flow in sim.controller.flows.values()
                 for t in flow.advertised.values()]
        kept["tree"] = max(trees, key=lambda t: t.size())
        kept["ynis"] = sorted(sim.by_yni)

    if args.trace:
        untraced, _ = _repeat(world, args.seconds / 2, MIN_REPS, keep)
        traced, tracer = _repeat(world, args.seconds / 2, 1, traced=True)
        reps = untraced + traced
    else:
        reps, _ = _repeat(world, args.seconds, MIN_REPS, keep)
    first = reps[0].check
    digests = (first.trace_sha256, first.report_sha256)
    timed, failed, problems = _verdict(world, reps, digests)
    correct = not failed and not problems

    if args.trace:
        before = reference.scale()
        micro = {"roundtrip_us": _codec_roundtrip_us(kept["tree"]),
                 "hash_ns": _yni_hash_ns(kept["ynis"])}
        scale = (before + reference.scale()) / 2
        micro = {k: v * scale for k, v in micro.items()}
        metrics = _per_layer([r for r in untraced if r in timed] or untraced,
                             [r for r in traced if r in timed] or traced,
                             kept["counts"], micro)
    else:
        metrics = _end_to_end(timed or reps, first.delivered)

    host = _host()
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"machine={host['machine']}")
    print(f"world: {args.workload} seed={args.seed} sends={len(world.sends)} "
          f"ops={attempted} delivered={first.delivered}")
    print(f"repetitions: {len(reps)} run, {len(timed)} timed")
    used = timed or reps
    print(f"reference scale: median {median(r.scale for r in used):.4f} "
          f"(host seconds times scale = seconds on the reference host)")
    print("unscaled host seconds: "
          f"setup_s {median(r.setup_s for r in used):.4f} "
          f"run_s {median(r.run_s for r in used):.4f} "
          f"render_s {median(t for r in used for t in r.render_s):.4f}")
    print(f"digests: trace sha256={digests[0]}")
    print(f"         report sha256={digests[1]}")
    for p in problems:
        print(f"FAILED: {p}")
    print(f"failed_ratio {len(failed) / attempted!r} "
          f"({len(failed)} of {attempted} ops failed)")
    for name, (value, unit, samples) in metrics.items():
        spread = ""
        if samples:
            q1, q3 = _quartiles(samples)
            spread = f"  (median of {len(samples)}, q1 {q1:.4f}, q3 {q3:.4f})"
        print(f"{name} {value!r} {unit}{spread}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}")
    if args.trace:
        run_agg, run_len = _run_phase(tracer)
        leader = max(run_agg, key=lambda n: run_agg[n]["self_s"])
        twin = (run_agg["twin.TwinManager.sweep"]["incl_s"]
                + run_agg["dataplane.HostNode.state_dump"]["self_s"])
        paths = run_agg["control.compute_path"]["self_s"]
        print(f"traced run(): {run_len:.4f} s; largest self time "
              f"{leader} {run_agg[leader]['self_s']:.4f} s")
        print(f"traced run(): twin sweep incl + state_dump self = "
              f"{twin / run_len:.3f} of run; compute_path self = "
              f"{paths / run_len:.3f} of run")
        _write_trace_outputs(stem, tracer, traced[-1].layers, run_agg,
                             run_len)

    result = {"correct": correct, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    with open(f"{stem}.trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "host": host, "trace_sha256": digests[0],
                   "report_sha256": digests[1], "problems": problems,
                   "repetitions": [{"setup_s": r.setup_s, "run_s": r.run_s,
                                    "render_s": r.render_s,
                                    "scales": r.scales}
                                   for r in reps],
                   **result}, f, indent=2)
        f.write("\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
