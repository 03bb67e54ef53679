"""Whole-world runs: build from text, run, assert on traces and metrics."""

import contextlib
import gc
import os
import pathlib
import pickle
import subprocess
import sys
from enum import IntEnum
from functools import partial

from yodel.codec import FloatingHeader, MessageKind, PathTree, YodelMessage
from yodel.dataplane import EdgeNode, data_metadata
from yodel.scenario import load_world, parse_scenario, parse_topology
from yodel.sim import SimConfig, Simulation
from yodel.trace import Trace, TraceRecord
from yodel.twin import TwinManager
from yodel.ynid import Yni

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textworld import build_text, run_in_steps, step

TWO_DOMAINS = """\
domain d1
domain d2
node e1 edge d1
node e2 edge d2
node c1 connector d1
link e1 c1 1
link c1 e2 2
host h1 alice domain=d1
host h2 bob domain=d2
"""

# redundant inter-domain paths so a connector crash is survivable
TRIANGLE = """\
domain d1
domain d2
node e1 edge d1
node e2 edge d2
node c1 connector d1
node c2 connector d2
link e1 c1 1
link c1 e2 1
link e1 c2 2
link c2 e2 2
host h1 alice domain=d1
host h2 bob domain=d2
"""

# as TWO_DOMAINS, with a second host on e2
SHARED_EDGE = TWO_DOMAINS + "host h3 bob domain=d2\n"

WORLDS = pathlib.Path(__file__).parent.parent / "demos" / "worlds"

ONE_EDGE = """\
domain d
node e1 edge d
host h1 alice
host h2 bob
"""

PRELUDE = """\
at 0 valley alice vale
at 0 member alice vale bob
at 1 namespace alice vale chat {model}
"""


def run_text(topo_text, scen_text, seed=1):
    return build_text(topo_text, scen_text, seed).run()


def cycles_left(build):
    """Objects in garbage cycles after running the world `build()` makes.
    The heap from before is frozen, so collections scan only what the
    world allocates. The collector runs once before the run and stays off
    across it, so every cycle the run dropped is still there to count,
    whatever run() does with the collector."""
    gc.freeze()
    try:
        sim = build()
        gc.collect()
        gc.disable()
        try:
            sim.run()
            return gc.collect()
        finally:
            gc.enable()
    finally:
        gc.unfreeze()


def outputs(sim):
    return sim.trace.text(), sim.metrics.to_json()


def scen(model="ssm", body="", until=60):
    return (f"config until {until}\n" + PRELUDE.format(model=model) + body)


class TestBasicWorld:
    BODY = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 send h1 vale room 1 hello there
at 40 report
"""

    def test_end_to_end_delivery(self):
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        assert sim.metrics.deliveries == {"h2": 1}
        assert sim.trace.count("DELIVER", n="h2") == 1
        assert sim.trace.count("JOIN") == 2
        assert sim.trace.count("PATH_ADV") >= 1
        assert sim.metrics.proto_errors == 0
        assert sim.metrics.conservation["ok"] is True

    def test_strategy_tables_hold_no_hosts(self):
        # an edge reaches its hosts over the access line, never through
        # strategic forwarding
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        hosts = {h.yni for h in sim.hosts.values()}
        for edge in sim.edges.values():
            assert edge.twin.records and not hosts & edge.act.rows.keys()

    def test_transmissions_count_overlay_data_hops_only(self):
        # the payload crosses the overlay twice: e1>c1 inside d1, then the
        # domain boundary c1>e2. Host access lines and control chatter are
        # not transmission work.
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        assert sim.metrics.transmissions_total == 2
        assert sim.metrics.transmissions_by_domain == {"d1": 1}
        assert sim.metrics.transmissions_interdomain == 1

    def test_report_event(self):
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        reports = sim.trace.select("REPORT")
        assert len(reports) == 1
        fields = dict(reports[0].fields)
        assert fields == {"delivered": "1", "transmissions": "2",
                          "proto_errors": "0"}

    def test_sync_carries_interdomain_leg(self):
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        assert sim.trace.count("RECV", n="c1", k="DATA_YSYNC") == 1
        assert sim.trace.count("RECV", n="h2", k="DATA_YPP") == 1

    def test_latency_histogram_tracks_send_to_deliver(self):
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY))
        # h1>e1 (1) + e1>c1 (1) + c1>e2 (2) + e2>h2 (1) = 5 ticks
        assert sim.metrics.latency_hist == {5: 1}


def reference_line(tick, node, event, fields):
    """The line formatter trace reads used before they became one pass: one
    join per line, each field printed on its own."""
    return " ".join([f"t={tick} n={node} ev={event}",
                     *[f"{k}={v!s}" for k, v in fields]])


class Kind(IntEnum):
    ONE = 1
    TWO = 2


# 1, True and Kind.ONE are one dict key, but True prints apart, and so does
# Kind.ONE on 3.10; "1" prints as 1 does but is another key
SHARED_VALUES = [0, 1, 2, True, False, None, "1", "True", "", Kind.ONE,
                 Kind.TWO, Yni(b"\x0f" * 6, 3), Yni(b"\x0f" * 6, 1)]
FIELDS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "serial"]),
              st.sampled_from(SHARED_VALUES) | st.integers()
              | st.text(max_size=3)),
    max_size=5).map(tuple)
EVENTS = st.lists(
    st.tuples(st.integers(0, 2) | st.integers(10**12, 10**12 + 1),
              st.sampled_from(["e1", "h2"]), st.sampled_from(["SEND", "X"]),
              FIELDS),
    max_size=12)


def golden_world_traces():
    """The trace of every replay-golden world, demo and benchmark."""
    import test_replay_golden as golden
    worlds = [((golden.WORLDS / t).read_text(), (golden.WORLDS / s).read_text(),
               seed) for t, s in golden.PAIRS for seed in golden.SEEDS]
    bench = golden._bench_worlds()
    for workload in golden.BENCH_WORKLOADS:
        for seed in golden.BENCH_SEEDS:
            world = bench.generate(workload, seed)
            worlds.append((world.topology, world.scenario, seed))
    for topo_text, scen_text, seed in worlds:
        yield build_text(topo_text, scen_text, seed).run().trace


class TestTraceFormat:
    def test_line_without_fields_has_no_trailing_space(self):
        assert TraceRecord(3, "e1", "FAULT").line() == "t=3 n=e1 ev=FAULT"

    def test_fields_print_in_emission_order(self):
        trace = Trace()
        trace.emit(7, "c1", "SEND", ("to", "e2"), ("k", "DATA_YSYNC"),
                   ("serial", 12))
        rec, = trace.records
        assert rec.fields == (("to", "e2"), ("k", "DATA_YSYNC"),
                              ("serial", "12"))
        assert rec.line() == "t=7 n=c1 ev=SEND to=e2 k=DATA_YSYNC serial=12"
        assert trace.text() == rec.line() + "\n"
        assert Trace().text() == ""

    def test_readme_example_lines_come_from_hello(self):
        import test_replay_golden as golden
        readme = (golden.ROOT / "README.md").read_text()
        section = readme.split("## Trace and report", 1)[1]
        block = section.split("```\n", 2)[1]
        topo, scen, errors = load_world(
            (golden.WORLDS / "hello.topo").read_text(),
            (golden.WORLDS / "hello.scen").read_text())
        assert errors == []
        sim = Simulation(topo, scen, SimConfig.from_scenario(scen, 0)).run()
        lines = block.splitlines()
        assert len(lines) == 3
        assert set(lines) <= set(sim.trace.lines())

    def test_records_are_read_only(self):
        rec = TraceRecord(1, "e1", "SEND", (("to", "c1"),))
        with pytest.raises(AttributeError):
            rec.tick = 2

    def test_values_print_as_str_when_read(self):
        trace = Trace()
        yni = Yni(b"\x0f" * 6, 3)
        values = (7, yni, None, True, False, "txt")
        trace.emit(4, "e1", "X", *zip("abcdef", values))
        line = "t=4 n=e1 ev=X " + " ".join(
            f"{k}={str(v)}" for k, v in zip("abcdef", values))
        assert trace.lines() == [line]
        rec, = trace.records
        assert rec.fields == tuple((k, str(v)) for k, v in zip("abcdef", values))
        assert rec.line() == line

    def test_select_and_count_match_printed_values(self):
        trace = Trace()
        trace.emit(1, "e1", "SEND", ("to", "e2"), ("serial", 12))
        trace.emit(2, "e2", "SEND", ("to", "e1"), ("serial", 13))
        trace.emit(2, "e2", "RECV", ("from", "e1"), ("serial", 12))
        assert trace.count("SEND") == 2
        assert trace.count("SEND", serial="12") == 1
        assert trace.count("SEND", serial=12) == 0
        sent, = trace.select("SEND", n="e2")
        assert sent == TraceRecord(2, "e2", "SEND",
                                   (("to", "e1"), ("serial", "13")))
        assert [r.event for r in trace.select("RECV", serial="12")] == ["RECV"]

    def test_len_counts_lines(self):
        sim = run_text(TWO_DOMAINS, scen(body=TestBasicWorld.BODY))
        assert len(sim.trace) == len(sim.trace.lines()) \
            == sim.trace.text().count("\n") > 0
        assert len(Trace()) == 0

    def test_recv_repeats_the_send_kind_and_serial(self):
        sim = run_text(TWO_DOMAINS, scen(body=TestBasicWorld.BODY))
        send, = sim.trace.select("SEND", n="c1", to="e2", k="DATA_YSYNC")
        recv, = sim.trace.select("RECV", n="e2", k="DATA_YSYNC")
        assert send.fields[1:] == recv.fields[1:]
        assert [k for k, _ in recv.fields] == ["from", "k", "serial"]
        control = sim.trace.select("SEND", k="CONTROL_YPP")
        assert control and all(len(r.fields) == 2 for r in control)

    @settings(max_examples=200, deadline=None)
    @given(EVENTS)
    @example([(1, "e1", "X", (("a", 1), ("a", True), ("a", Kind.ONE),
                              ("a", "1"))),
              (1, "h2", "X", (("a", True), ("a", 1), ("a", Kind.ONE))),
              (2, "h2", "SEND", ())])
    def test_reads_match_the_reference_formatter(self, events):
        trace = Trace()
        for tick, node, event, fields in events:
            trace.emit(tick, node, event, *fields)
        want = [reference_line(*e) for e in events]
        assert trace.lines() == want
        assert trace.text() == "".join(line + "\n" for line in want)
        assert [r.line() for r in trace.records] == want
        assert [TraceRecord(*e).line() for e in events] == want

    def test_golden_worlds_read_as_the_reference_formatter(self):
        for trace in golden_world_traces():
            want = [reference_line(*e) for e in trace._events]
            assert trace.lines() == want
            assert trace.text() == "".join(line + "\n" for line in want)
            assert [r.line() for r in trace.records] == want

    def test_nothing_is_kept_between_reads(self):
        trace = Trace()
        trace.emit(1, "e1", "X", ("a", 1))
        first = trace.text()
        trace.emit(1, "e1", "X", ("a", True), ("b", "1"))
        trace.emit(2, "h2", "X", ("a", 1))
        assert trace.text() == first + (
            "t=1 n=e1 ev=X a=True b=1\nt=2 n=h2 ev=X a=1\n")
        assert trace.lines() == ["t=1 n=e1 ev=X a=1",
                                 "t=1 n=e1 ev=X a=True b=1",
                                 "t=2 n=h2 ev=X a=1"]


# what a field value may be: formatting waits until the trace is read, so
# a value changed after emit would print wrong
IMMUTABLE_FIELD_TYPES = (str, int, bool, type(None), Yni)


def test_golden_worlds_emit_only_immutable_field_values(monkeypatch):
    import test_replay_golden as golden
    emit = Trace.emit
    seen = set()

    def audit(self, tick, node, event, *fields):
        for key, value in fields:
            assert type(value) in IMMUTABLE_FIELD_TYPES, (event, key, value)
            seen.add(type(value))
        emit(self, tick, node, event, *fields)

    monkeypatch.setattr(Trace, "emit", audit)
    for topo_name, scen_name in golden.PAIRS:
        for seed in golden.SEEDS:
            golden.digests(topo_name, scen_name, seed)
    for workload in golden.BENCH_WORKLOADS:
        for seed in golden.BENCH_SEEDS:
            golden.bench_digests(workload, seed)
    assert {str, int} <= seen


def test_run_leaves_no_garbage_cycle():
    """A run frees what it drops by reference counting alone: no demo world
    (the flap demo reroutes trees on every link change) and no benchmark
    world leaves a cycle behind."""
    import test_replay_golden as golden
    worlds = [((golden.WORLDS / t).read_text(), (golden.WORLDS / s).read_text(),
               3, t) for t, s in golden.PAIRS]
    bench = golden._bench_worlds()
    for workload in golden.BENCH_WORKLOADS:
        world = bench.generate(workload, 1)
        worlds.append((world.topology, world.scenario, 1, workload))
    left = {name: cycles_left(partial(build_text, topo_text, scen_text, seed))
            for topo_text, scen_text, seed, name in worlds}
    assert len(left) == len(golden.PAIRS) + len(golden.BENCH_WORKLOADS)
    assert left == dict.fromkeys(left, 0)


def chain_world(n):
    """e1 - c0 - ... - c{n-1}, with consumer edges e2 and e3 on c{n-1}:
    every path tree from e1 is a chain n + 2 nodes deep."""
    lines = ["domain d1", "domain d2", "domain d3", "node e1 edge d1",
             "node e2 edge d2", "node e3 edge d3"]
    lines += [f"node c{i} connector d1" for i in range(n)]
    lines += ["link e1 c0 1"] + [f"link c{i} c{i + 1} 1" for i in range(n - 1)]
    lines += [f"link c{n - 1} e2 1", f"link c{n - 1} e3 1",
              "host h1 alice domain=d1", "host h2 bob domain=d2",
              "host h3 carol domain=d3"]
    return "\n".join(lines) + "\n"


def test_a_tree_of_any_depth_is_computed_compared_and_decoded():
    """The tree from e1 is advertised when h2 joins and compared with the
    new one when h3 joins; the edge decodes both. None of it recurses per
    tree level, so a chain far deeper than the interpreter's recursion
    limit runs to the end."""
    n = 1200
    sim = run_text(chain_world(n), f"""config until {n + 200}
at 0 valley alice vale
at 0 member alice vale bob
at 0 member alice vale carol
at 1 namespace alice vale chat ssm
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 30 join h3 vale chat room consumer 1
at 60 send h1 vale room 1 hello
""")
    assert sim.metrics.deliveries == {"h2": 1, "h3": 1}
    assert sim.metrics.proto_errors == 0
    assert [dict(r.fields)["nodes"] for r in sim.trace.select("PATH_ADV")] \
        == [str(n + 2), str(n + 3)]


class _Raised(Exception):
    pass


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_pauses_the_collector_and_restores_it(monkeypatch, enabled,
                                                  raises):
    """The collector is off inside run() and back as the caller had it
    afterwards, also when a node callback raises; the exception still
    reaches the caller."""
    paused = []
    on_message = EdgeNode.on_message

    def watched(self, msg, meta, tree):
        paused.append(not gc.isenabled())
        if raises:
            raise _Raised(self.label)
        on_message(self, msg, meta, tree)

    monkeypatch.setattr(EdgeNode, "on_message", watched)
    sim = build_text(TWO_DOMAINS, scen(body=TestBasicWorld.BODY))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(_Raised) if raises else contextlib.nullcontext():
            sim.run()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert paused and all(paused)
    assert (len(paused) == 1) if raises else (len(paused) > 1)


def test_run_starts_no_automatic_collection():
    """No collection starts between the call to run() and its return, on a
    benchmark world that allocates enough to start many with the collector
    on."""
    import test_replay_golden as golden
    world = golden._bench_worlds().generate("mcast-fanout", 1)
    sim = build_text(world.topology, world.scenario, 1)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        sim.run()
    finally:
        gc.callbacks.remove(hook)
    assert sim.metrics.deliveries
    assert starts == []


def test_serials_count_data_sends_not_events():
    """The n-th data send a host makes has serial n, and one more event in
    the queue changes no byte of trace or report."""
    import test_replay_golden as golden
    world = golden._bench_worlds().generate("mcast-fanout", 1)
    sim = build_text(world.topology, world.scenario, 1).run()
    serials = [dict(r.fields)["serial"]
               for r in sim.trace.select("SEND", k="data")]
    assert len(serials) == 384
    assert serials == [str(n) for n in range(1, len(serials) + 1)]
    busier = build_text(world.topology, world.scenario, 1)
    busier.schedule(1, lambda: None)
    assert outputs(busier.run()) == outputs(sim)


def _world_texts(name):
    """(topology, scenario, seed) of a demo or benchmark world."""
    import test_replay_golden as golden
    if name in golden.BENCH_WORKLOADS:
        world = golden._bench_worlds().generate(name, 1)
        return world.topology, world.scenario, 1
    return ((golden.WORLDS / f"{name}.topo").read_text(),
            (golden.WORLDS / f"{name}.scen").read_text(), 0)


@pytest.mark.parametrize("name",
                         ["twin", "flap", "twin-late-join", "twin-outage"])
def test_stepped_run_equals_one_run(name):
    """A run stopped at a third of its horizon and continued gives the
    bytes of one run; twin keepalives go on after the first stop."""
    texts = _world_texts(name)
    one = build_text(*texts).run()
    # every access line from an edge to its host receives copies after
    # the stop; a sweep that repeats its pair traces no line to show it
    at_stop = step(build_text(*texts), one.config.until // 3)
    for label, host in one.hosts.items():
        wire = f"{one.by_yni[host.edge].label}>{label}"
        before = at_stop.metrics.conservation["links"].get(wire)
        assert one.metrics.conservation["links"][wire]["received"] > \
            (before["received"] if before else 0)
    assert outputs(run_in_steps(build_text(*texts))) == outputs(one)


def _resume_worlds():
    """Each replay-gate demo pair at its first seed, and one benchmark
    world, as (topology file, scenario file, seed)."""
    import test_replay_golden as golden
    return [pytest.param(topo, scen, golden.SEEDS[0], id=topo[:-5])
            for topo, scen in golden.PAIRS] + [
        pytest.param(*golden.bench_names("twin-outage"), 1, id="twin-outage")]


# reads the horizon and the outputs of one run, then pickled runs until
# its input ends; resumes each to the horizon and prints, per run, the tick
# it paused at, its open batches of copies, whether each is still the list
# its landing event holds, and whether it ends with the bytes of one run
_RESUME = """\
import pickle, sys
stdin = sys.stdin.buffer
until, one = pickle.load(stdin)
rows = []
while True:
    try:
        sim = pickle.load(stdin)
    except EOFError:
        break
    shared = all(sim._events[tick][-1].args[0] is batch
                 for tick, batch in sim._landing.items())
    row = (sim.config.until, len(sim._landing), shared)
    sim.config.until = until
    sim.run()
    rows.append(row + ((sim.trace.text(), sim.metrics.to_json()) == one,))
pickle.dump(rows, sys.stdout.buffer)
"""


def _resumed(texts, pauses):
    """Pickle the world of `texts` at each tick of `pauses`, and resume
    every pickle to the horizon in one fresh process under another hash
    seed; the rows `_RESUME` prints. Each pickle is piped to that process
    as it is made."""
    import test_replay_golden as golden
    one = build_text(*texts).run()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(golden.ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
    child = subprocess.Popen([sys.executable, "-c", _RESUME], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    sim = build_text(*texts)
    try:
        pickle.dump((one.config.until, outputs(one)), child.stdin)
        for tick in pauses:
            pickle.dump(step(sim, tick), child.stdin)
    except BrokenPipeError:
        pass                            # its stderr says why
    out, err = child.communicate()
    assert child.returncode == 0, err.decode()
    return pickle.loads(out)


@pytest.mark.parametrize("topo_name,scen_name,seed", _resume_worlds())
def test_a_run_resumed_in_a_fresh_process_gives_the_bytes_of_one_run(
        topo_name, scen_name, seed):
    """A run paused at a third and at half of its horizon, pickled, and
    resumed in a fresh process under another hash seed gives the bytes of
    one run: no state a run reads lives outside the `Simulation`, and no
    output follows the iteration order of a set or dict of str keys."""
    import test_replay_golden as golden
    if topo_name[:-5] in golden.BENCH_WORKLOADS:
        world = golden._bench_worlds().generate(topo_name[:-5], seed)
        texts = world.topology, world.scenario, seed
    else:
        texts = ((golden.WORLDS / topo_name).read_text(),
                 (golden.WORLDS / scen_name).read_text(), seed)
    until = build_text(*texts).config.until
    rows = _resumed(texts, (until // 3, until // 2))
    assert [(paused, same) for paused, _, _, same in rows] == [
        (until // 3, True), (until // 2, True)]


@pytest.mark.parametrize("name", ["mcast-fanout", "twin-outage"])
def test_a_run_resumed_at_every_tenth_tick_gives_the_bytes_of_one_run(name):
    """A benchmark world at seed 1 paused at every tenth tick, each pause
    pickled and resumed in one fresh process, gives the bytes of one run.
    The pauses cross open batches of copies, and each batch stays the one
    list its landing event and `_landing` share."""
    texts = _world_texts(name)
    pauses = range(10, build_text(*texts).config.until, 10)
    rows = _resumed(texts, pauses)
    assert [row[0] for row in rows] == list(pauses)
    assert [row for row in rows if not (row[2] and row[3])] == []
    assert sum(row[1] for row in rows) > 0


class TestDeterminism:
    BODY = TestBasicWorld.BODY

    def test_same_seed_is_byte_identical(self):
        a = run_text(TWO_DOMAINS, scen(body=self.BODY), seed=42)
        b = run_text(TWO_DOMAINS, scen(body=self.BODY), seed=42)
        assert a.trace.text() == b.trace.text()
        assert a.metrics.to_json() == b.metrics.to_json()

    def test_different_seed_differs(self):
        a = run_text(TWO_DOMAINS, scen(body=self.BODY), seed=42)
        b = run_text(TWO_DOMAINS, scen(body=self.BODY), seed=43)
        assert a.trace.text() != b.trace.text()

    def test_id_generators_are_not_kept(self):
        """Each node's and host's id is drawn once, from a generator the
        simulation does not keep; labels drawn from again, such as an
        edge's twin label, are still kept."""
        import test_replay_golden as golden
        topo, scen_, errors = load_world(
            (golden.WORLDS / "twin.topo").read_text(),
            (golden.WORLDS / "twin.scen").read_text())
        assert errors == []
        sim = Simulation(topo, scen_, SimConfig.from_scenario(scen_, 0))
        assert sorted(sim._rngs) == ["e1:twin", "e2:twin"]
        sim.run()
        assert not [label for label in sim._rngs if label.startswith("yni:")]


class TestLocalDelivery:
    def test_same_edge_without_wire_tree(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h1 vale chat room consumer 2
at 2 join h2 vale chat room consumer 1
at 20 send h1 vale room 1 in the family
"""
        sim = run_text(ONE_EDGE, scen(model="msm", body=body))
        # app 2 rides the in-host shortcut, h2 goes over the host link;
        # the sending app hears nothing
        assert sim.trace.count("DELIVER", n="h1", app="2") == 1
        assert sim.trace.count("DELIVER", n="h1", app="1") == 0
        assert sim.trace.count("DELIVER", n="h2") == 1
        assert sim.trace.count("PATH_ADV") == 0
        assert sim.metrics.transmissions_total == 0  # access lines only

    def test_join_visits_deduplicated_per_edge(self):
        body = """\
at 2 join h1 vale chat room consumer 1
at 3 join h2 vale chat room consumer 1
at 4 join h1 vale chat room producer 2
"""
        sim = run_text(ONE_EDGE, scen(model="msm", body=body))
        # h2's consumer join is absorbed by the edge: same scope, same role
        assert sim.metrics.controller_visits["joins"] == 2
        key = [k for k in sim.metrics.join_visits if "consumer" in k]
        assert len(key) == 1 and sim.metrics.join_visits[key[0]] == 1


class TestRoleRules:
    def test_producer_ttl_expires(self):
        body = """\
at 2 join h1 vale chat room producer 1 ttl=5
at 2 join h2 vale chat room consumer 1
at 30 send h1 vale room 1 too late
"""
        sim = run_text(TWO_DOMAINS, scen(body=body))
        assert sim.metrics.deliveries == {}
        assert sim.metrics.drops.get("h1", {}).get("no_registration") == 1

    def test_mmm_member_flows_both_ways(self):
        body = """\
at 2 join h1 vale chat room member 1
at 2 join h2 vale chat room member 1
at 20 send h1 vale room 1 east
at 30 send h2 vale room 1 west
"""
        sim = run_text(TWO_DOMAINS, scen(model="mmm", body=body))
        assert sim.trace.count("DELIVER", n="h2") == 1
        assert sim.trace.count("DELIVER", n="h1") == 1
        assert sim.metrics.conservation["ok"] is True

    def test_mmm_rejects_split_roles(self):
        body = "at 2 join h1 vale chat room producer 1\n"
        sim = run_text(TWO_DOMAINS, scen(model="mmm", body=body))
        errs = sim.trace.select("SCENARIO_ERROR", verb="join")
        assert len(errs) == 1
        assert sim.trace.count("JOIN") == 0

    def test_join_requires_namespace_access(self):
        body = """\
at 1 visibility alice vale chat protected
at 2 join h2 vale chat room consumer 1
"""
        sim = run_text(TWO_DOMAINS, scen(body=body).replace(
            "at 0 member alice vale bob\n", ""))
        errs = sim.trace.select("SCENARIO_ERROR", verb="join")
        assert len(errs) == 1
        assert "may not join" in dict(errs[0].fields)["reason"]


    def test_grant_opens_a_protected_namespace_to_one_user(self):
        # bob is a member of vale but chat is protected: his first join is
        # refused, the one after alice's grant is admitted, and a grant by
        # bob, who does not administer chat, is refused
        body = """\
at 1 visibility alice vale chat protected
at 2 join h2 vale chat room consumer 1
at 3 grant alice vale chat bob
at 4 join h2 vale chat room consumer 2
at 5 grant bob vale chat carol
"""
        sim = run_text(TWO_DOMAINS, scen(body=body))
        assert [r.line() for r in sim.trace.select("SCENARIO_ERROR")] == [
            "t=2 n=scenario ev=SCENARIO_ERROR line=6 verb=join "
            "reason='bob' may not join vale/chat",
            "t=5 n=scenario ev=SCENARIO_ERROR line=9 verb=grant "
            "reason='bob' does not administer namespace 'chat'"]
        assert [dict(r.fields)["app"] for r in sim.trace.select("JOIN")] \
            == ["2"]

    def test_community_needs_namespace_access(self):
        # alice may create room in her protected namespace; bob, a member
        # of vale without a grant, may not create hall there
        body = """\
at 1 visibility alice vale chat protected
at 2 community alice vale chat room
at 2 community bob vale chat hall
"""
        sim = run_text(TWO_DOMAINS, scen(body=body))
        assert [r.line() for r in sim.trace.select("SCENARIO_ERROR")] == [
            "t=2 n=scenario ev=SCENARIO_ERROR line=7 verb=community "
            "reason='bob' may not touch vale/chat"]
        assert sorted(sim.controller.flows) == [(1, 1, "room")]


class TestAnycast:
    def test_host_stage_picks_one_app(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 2 join h2 vale chat room consumer 2
""" + "".join(f"at {20 + i} send h1 vale room 1 ping\n" for i in range(10))
        sim = run_text(TWO_DOMAINS,
                       scen(model="ac", body=body).replace(
                           "chat ac", "chat ac randomized=on q=1.0"))
        # every send reaches h2 exactly once, never both apps
        assert sim.metrics.deliveries == {"h2": 10}
        per_app = {a: sim.trace.count("DELIVER", n="h2", app=a)
                   for a in ("1", "2")}
        assert sum(per_app.values()) == 10
        assert all(v > 0 for v in per_app.values())  # stable under the seed

    def test_self_lock_needs_anycast_model(self):
        body = """\
at 2 join h2 vale chat room consumer 1
at 10 lock h2 vale room 1
"""
        sim = run_text(TWO_DOMAINS, scen(model="ssm", body=body))
        errs = sim.trace.select("SCENARIO_ERROR", verb="lock")
        assert len(errs) == 1

    def test_self_lock_silences_consumer(self):
        body = """\
at 15 send h1 vale room 1 before
at 25 lock h2 vale room 1
at 30 send h1 vale room 1 muted
at 40 unlock h2 vale room 1
at 45 send h1 vale room 1 after
"""
        joins = ("at 2 join h1 vale chat room producer 1\n"
                 "at 2 join h2 vale chat room consumer 1\n")
        sim = run_text(TWO_DOMAINS, scen(model="ac", body=joins + body))
        # the muted send is filtered at the edge's per-community lock table,
        # so it never even reaches the host link
        assert sim.metrics.deliveries == {"h2": 2}
        assert sim.trace.count("LOCK", n="e2", table="pct") == 1
        assert sim.trace.count("UNLOCK", n="e2", table="pct") == 1
        assert sim.trace.count("RECV", n="h2", k="DATA_YPP") == 2


def test_same_community_name_in_two_namespaces_stays_apart():
    import test_replay_golden as golden
    text = """\
config until 60
at 0 valley alice vale
at 0 member alice vale carol
at 1 namespace alice vale one msm
at 1 namespace alice vale two msm
at 2 join hp vale one draw producer 1
at 2 join hp vale two draw producer 2
at 2 join hr vale one draw consumer 1
at 2 join hr vale two draw consumer 2
at 20 send hp vale draw 1 first
at 22 send hp vale draw 2 second
"""
    sim = run_text((golden.WORLDS / "anycast.topo").read_text(), text)
    sends = [dict(r.fields)
             for r in sim.trace.select("SEND", n="hp", k="data")]
    delivers = [dict(r.fields) for r in sim.trace.select("DELIVER")]
    # each app hears only the send of its own namespace
    assert [(d["app"], d["serial"]) for d in delivers] \
        == [(s["app"], s["serial"]) for s in sends]


def test_two_namespaces_demo_keeps_each_send_in_its_namespace():
    """demos/worlds/two-namespaces: red's sends (app 1 of hp) reach hr's
    app 1 only, blue's (app 2 of hp) hr's app 2 and hq's app 1. hr's lock
    of its red app locks red's row at e3 and no other, with one line."""
    sim = run_text((WORLDS / "two-namespaces.topo").read_text(),
                   (WORLDS / "two-namespaces.scen").read_text(), seed=0)
    # the app hp sent each serial with, 1 in red and 2 in blue
    sender = {f["serial"]: f["app"] for f in
              (dict(r.fields) for r in sim.trace.select("SEND", n="hp",
                                                         k="data"))}
    heard = {(r.node, f["app"], sender[f["serial"]]) for r in
             sim.trace.select("DELIVER") for f in (dict(r.fields),)}
    assert heard == {("hr", "1", "1"), ("hr", "2", "2"), ("hq", "1", "2")}
    hr = sim.nodes["hr"].yni
    assert [r.line() for r in sim.trace.records
            if ("table", "pct") in r.fields] == [
        f"t=31 n=e3 ev=LOCK table=pct community=draw host={hr}",
        f"t=41 n=e3 ev=UNLOCK table=pct community=draw host={hr}"]
    assert sim.metrics.deliveries == {"hr": 5, "hq": 3}


class TestFaults:
    def test_link_down_stops_then_link_up_restores(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 fault link-down e1 c1
at 30 send h1 vale room 1 lost
at 40 fault link-up e1 c1
at 50 send h1 vale room 1 found
"""
        sim = run_text(TWO_DOMAINS, scen(body=body, until=80))
        assert sim.metrics.deliveries == {"h2": 1}
        assert sim.trace.count("PATH_WITHDRAW") >= 1
        assert sim.trace.count("PATH_ADV") >= 2
        assert sim.metrics.conservation["ok"] is True

    def test_crash_reroutes_over_surviving_connector(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 send h1 vale room 1 first
at 30 fault crash c1
at 45 send h1 vale room 1 second
"""
        sim = run_text(TRIANGLE, scen(body=body, until=80))
        assert sim.metrics.deliveries == {"h2": 2}
        assert sim.trace.count("RECV", n="c1", k="DATA_YSYNC") == 1
        assert sim.trace.count("RECV", n="c2", k="DATA_YSYNC") == 1
        assert sim.metrics.conservation["ok"] is True

    def test_reregistration_declares_live_infrastructure_only(self):
        # h1's access line to e1 is up, but hosts are not topology
        sim = run_text(TRIANGLE, scen(body="at 20 fault link-down e1 c1\n",
                                      until=30))
        yni = {label: node.yni for label, node in sim.nodes.items()}
        declared = sim.controller.graph.declared
        assert declared[yni["e1"]] == {yni["c2"]: 2}
        assert declared[yni["c1"]] == {yni["e2"]: 1}

    def test_conservation_names_the_lossy_link(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 fault link-down c1 e2
at 21 send h1 vale room 1 into the void
"""
        sim = run_text(TWO_DOMAINS, scen(body=body))
        cons = sim.metrics.conservation
        assert cons["ok"] is True
        lossy = {k: v for k, v in cons["links"].items() if v["lost"]}
        assert any(k.startswith(("c1>", "e1>")) for k in lossy)


class TestLinkCounters:
    def test_copy_on_the_wire_at_the_horizon_is_in_flight(self):
        # h1>e1 lands at 21, e1>c1 at 22; c1>e2 leaves at 22 and would land
        # at 24, after the horizon
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 send h1 vale room 1 still travelling
"""
        sim = run_text(TWO_DOMAINS, scen(body=body, until=22))
        assert sim.metrics.unicast_by_link == {"c1>e2": 1, "e1>c1": 1}
        assert sim.metrics.conservation["links"]["c1>e2"] == {
            "sent": 1, "received": 0, "lost": 0, "in_flight": 1, "ok": True}
        assert sim.metrics.conservation["ok"] is True

    def test_send_between_unlinked_nodes_is_sent_then_lost(self):
        topo, scen_spec, errors = load_world(TWO_DOMAINS, scen(until=10))
        assert errors == []
        sim = Simulation(topo, scen_spec, SimConfig.from_scenario(scen_spec, 1))
        e1, e2 = sim.nodes["e1"], sim.nodes["e2"]
        msg = YodelMessage(MessageKind.CONTROL_YPP, e1.yni, e2.yni)
        sim.schedule(3, lambda: sim.transmit(e1, [(e2.yni, msg, None)]))
        sim.run()
        lines = sim.trace.lines()
        i = lines.index("t=3 n=e1 ev=SEND to=e2 k=CONTROL_YPP")
        assert lines[i + 1] == "t=3 n=e1 ev=DROP reason=link_down to=e2"
        assert sim.trace.count("SEND", n="e1", to="e2") == 1
        assert sim.metrics.drops == {"e1": {"link_down": 1}}
        assert sim.metrics.conservation["links"]["e1>e2"] == {
            "sent": 1, "received": 0, "lost": 1, "in_flight": 0, "ok": True}
        assert "e2>e1" not in sim.metrics.conservation["links"]

    def test_one_batch_lands_each_copy_on_its_own_link(self):
        # c1 reaches e1 in 1 tick and e2 in 2; the id between them is no node's
        topo, scen_spec, errors = load_world(TWO_DOMAINS, scen(until=10))
        assert errors == []
        sim = Simulation(topo, scen_spec, SimConfig.from_scenario(scen_spec, 1))
        c1, e1, e2 = sim.nodes["c1"], sim.nodes["e1"], sim.nodes["e2"]
        stranger = Yni(b"\x0f" * 6, 0)

        # every copy of one call shares its message and metadata read
        msg = YodelMessage(MessageKind.DATA_YSYNC, c1.yni, c1.yni,
                           FloatingHeader(valley_id=1, channel_id=9,
                                          metadata=data_metadata(41)))
        batch = [(dst, msg, PathTree(dst)) for dst in (e1.yni, stranger,
                                                       e2.yni)]
        sim.schedule(3, lambda: sim.transmit(c1, batch, meta=(41, None)))
        sim.run()
        lines = [line for line in sim.trace.lines()
                 if " n=c1 " in line or "from=c1" in line]
        assert lines == [
            "t=3 n=c1 ev=SEND to=e1 k=DATA_YSYNC serial=41",
            f"t=3 n=c1 ev=DROP reason=unknown_destination to={stranger}",
            "t=3 n=c1 ev=SEND to=e2 k=DATA_YSYNC serial=41",
            "t=4 n=e1 ev=RECV from=c1 k=DATA_YSYNC serial=41",
            "t=5 n=e2 ev=RECV from=c1 k=DATA_YSYNC serial=41",
        ]
        assert sim.metrics.drops["c1"] == {"unknown_destination": 1}
        links = sim.metrics.conservation["links"]
        for key in ("c1>e1", "c1>e2"):
            assert links[key] == {"sent": 1, "received": 1, "lost": 0,
                                  "in_flight": 0, "ok": True}
        assert sim.metrics.conservation["ok"] is True

    # the transmissions test's world: placement puts h1 on e3, h2 on e2,
    # h3 on e4 and h4 on e1. e3 reaches c1, and c1 reaches e4, through the
    # group; c1 reaches e1 by a unicast inside d1 and e2 by one into d2
    MIXED = """\
domain d1
domain d2
node e1 edge d1
node c1 connector d1
node e2 edge d2
node e3 edge d1
node e4 edge d1
link e1 c1 1
link c1 e2 2
link c1 e3 1
link c1 e4 1
mcastgroup d1 c1 e3 e4
host h1 alice domain=d1
host h2 bob domain=d2
host h3 carol domain=d1
host h4 dave domain=d1
"""

    def test_transmissions_are_summed_from_the_link_records(self):
        # per send: two multicast batches and one unicast in d1, one
        # unicast between domains; joins, host access copies and the
        # edges' pushes to their hosts count nothing. The second send's
        # group copy to e4 is lost to the link going down under it, and
        # its batch still counts once
        body = """\
at 0 member alice vale carol
at 0 member alice vale dave
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 2 join h3 vale chat room consumer 1
at 2 join h4 vale chat room consumer 1
at 19 report
at 20 send h1 vale room 1 one
at 30 report
at 40 send h1 vale room 1 two
at 43 fault link-down c1 e3
at 43 fault link-down c1 e4
at 50 report
"""
        sim = run_text(self.MIXED, scen(body=body))
        assert {h: sim.label_of(host.edge) for h, host in sim.hosts.items()} \
            == {"h1": "e3", "h2": "e2", "h3": "e4", "h4": "e1"}
        assert "t=43 n=e4 ev=DROP reason=link_down from=c1" \
            in sim.trace.lines()
        assert sim.metrics.deliveries == {"h2": 2, "h3": 1, "h4": 2}
        assert [dict(r.fields)["transmissions"]
                for r in sim.trace.select("REPORT")] == ["0", "4", "8"]
        assert sim.metrics.to_dict()["transmissions"] == {
            "total": 8, "by_domain": {"d1": 6}, "interdomain": 2,
            "unicast_by_link": {"c1>e1": 2, "c1>e2": 2}}


def _landings(monkeypatch):
    """Every batch of copies scheduled to land, in order, as (tick, batch);
    a batch read after a run holds every copy that joined it."""
    landings = []
    schedule = Simulation.schedule

    def seen(self, tick, fn):
        if getattr(fn, "func", None) == self._land_copies:
            landings.append((tick, fn.args[0]))
        schedule(self, tick, fn)

    monkeypatch.setattr(Simulation, "schedule", seen)
    return landings


def _labeled(landings):
    """`landings` with each copy as "sender>receiver"."""
    return [(tick, [f"{port[4][1]}>{port[0].label}" for port, _, _ in batch])
            for tick, batch in landings]


class TestLandingRuns:
    """Copies that land at one tick, with no other event scheduled there
    between them, land in one event, in the order they were sent."""

    @staticmethod
    def _world():
        """TWO_DOMAINS, and a call that has c1 send one data copy with a
        given serial to e1, one tick away, or to e2, two ticks away."""
        topo, scen_spec, errors = load_world(TWO_DOMAINS, scen(until=10))
        assert errors == []
        sim = Simulation(topo, scen_spec, SimConfig.from_scenario(scen_spec, 1))
        c1 = sim.nodes["c1"]

        def send(dst, serial):
            yni = sim.nodes[dst].yni
            msg = YodelMessage(MessageKind.DATA_YSYNC, c1.yni, c1.yni,
                               FloatingHeader(valley_id=1, channel_id=9,
                                              metadata=data_metadata(serial)))
            sim.transmit(c1, [(yni, msg, PathTree(yni))], meta=(serial, None))
        return sim, send

    @staticmethod
    def _landed(sim):
        return [line for line in sim.trace.lines()
                if "from=c1" in line or " n=probe " in line]

    def test_copies_of_several_calls_landing_at_one_tick_make_one_event(
            self, monkeypatch):
        # the copy to e2 lands at another tick and does not close the batch
        landings = _landings(monkeypatch)
        sim, send = self._world()
        sim.schedule(3, lambda: (send("e1", 41), send("e2", 42),
                                 send("e1", 43)))
        sim.run()
        assert _labeled(landings) == [(4, ["c1>e1", "c1>e1"]),
                                      (5, ["c1>e2"])]
        assert self._landed(sim) == [
            "t=4 n=e1 ev=RECV from=c1 k=DATA_YSYNC serial=41",
            "t=4 n=e1 ev=RECV from=c1 k=DATA_YSYNC serial=43",
            "t=5 n=e2 ev=RECV from=c1 k=DATA_YSYNC serial=42",
        ]

    def test_an_event_scheduled_between_two_calls_splits_their_batch(
            self, monkeypatch):
        landings = _landings(monkeypatch)
        sim, send = self._world()

        def probe():
            sim.trace.emit(sim.now(), "probe", "PROBE")
        sim.schedule(3, lambda: (send("e1", 41), sim.schedule(4, probe),
                                 send("e1", 42)))
        sim.run()
        assert _labeled(landings) == [(4, ["c1>e1"]), (4, ["c1>e1"])]
        assert self._landed(sim) == [
            "t=4 n=e1 ev=RECV from=c1 k=DATA_YSYNC serial=41",
            "t=4 n=probe ev=PROBE",
            "t=4 n=e1 ev=RECV from=c1 k=DATA_YSYNC serial=42",
        ]

    def test_copies_sent_at_latency_0_land_later_in_their_tick(
            self, monkeypatch):
        """Three joins at 2 land in one batch at 2, after the events that
        sent them; e2 sends the data copy it lands at 23 on to both its
        hosts in a new batch that lands later at 23."""
        landings = _landings(monkeypatch)
        body = TestBasicWorld.BODY + "at 2 join h3 vale chat room consumer 1\n"
        sim = run_text(SHARED_EDGE, scen(body=body, until=30)
                       + "config host_link_latency 0\n")
        assert [(t, copies) for t, copies in _labeled(landings)
                if t in (2, 23)] == [
            (2, ["h1>e1", "h2>e2", "h3>e2"]),
            (23, ["c1>e2"]), (23, ["e2>h2", "e2>h3"])]
        lines = sim.trace.lines()
        assert [line for line in lines if line.startswith("t=2 ")][-3:] == [
            "t=2 n=e1 ev=RECV from=h1 k=CONTROL_YPP",
            "t=2 n=e2 ev=RECV from=h2 k=CONTROL_YPP",
            "t=2 n=e2 ev=RECV from=h3 k=CONTROL_YPP",
        ]
        assert [line for line in lines if line.startswith("t=23 ")] == [
            "t=23 n=e2 ev=RECV from=c1 k=DATA_YSYNC serial=1",
            "t=23 n=e2 ev=SEND to=h2 k=DATA_YPP serial=1",
            "t=23 n=e2 ev=SEND to=h3 k=DATA_YPP serial=1",
            "t=23 n=h2 ev=RECV from=e2 k=DATA_YPP serial=1",
            "t=23 n=h2 ev=DELIVER app=1 community=room serial=1",
            "t=23 n=h3 ev=RECV from=e2 k=DATA_YPP serial=1",
            "t=23 n=h3 ev=DELIVER app=1 community=room serial=1",
        ]

    def test_open_batches_are_only_for_ticks_to_come(self):
        """Stopped at any tick, a run holds an open batch only for a tick
        after it and at most one link latency away: one per tick at most,
        however long the run."""
        texts = _world_texts("mcast-fanout")
        sim = build_text(*texts)
        reach = max([link.latency for link in sim.topo.links]
                    + [sim.config.host_link_latency])
        opened = 0
        for tick in range(sim.config.until + 1):
            step(sim, tick)
            assert all(tick < t <= tick + reach for t in sim._landing)
            opened += len(sim._landing)
        assert opened > 0
        assert outputs(sim) == outputs(build_text(*texts).run())


class TestTwinOverSim:
    BODY = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 12 fault host-down h2
at 30 send h1 vale room 1 one
at 31 send h1 vale room 1 two
at 32 send h1 vale room 1 three
at 45 fault host-up h2
"""

    def test_outage_buffers_then_flushes_in_order(self):
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY, until=80))
        assert sim.trace.count("TWIN_ACTIVE", n="e2") == 1
        assert sim.metrics.buffered_total == 3
        assert sim.metrics.buffer_peaks == {"h2": 3}
        flushes = sim.trace.select("TWIN_FLUSH", n="e2")
        assert len(flushes) == 1
        assert dict(flushes[0].fields)["count"] == "3"
        assert sim.metrics.deliveries == {"h2": 3}
        payloads = [r.tick for r in sim.trace.select("DELIVER", n="h2")]
        assert payloads == sorted(payloads)
        assert sim.metrics.buffer_dropped == 0

    def test_buffer_cap_drops_oldest(self):
        text = scen(body=self.BODY, until=80) + "config twin_buffer_max 2\n"
        sim = run_text(TWO_DOMAINS, text)
        assert sim.metrics.buffer_dropped == 1
        assert sim.metrics.deliveries == {"h2": 2}

    def test_sweep_period_and_miss_threshold_come_from_config(self):
        text = (scen(body=self.BODY, until=20)
                + "config twin_miss_threshold 2\nconfig twin_period 3\n")
        sim = run_text(TWO_DOMAINS, text)
        syncs = [(r.tick, dict(r.fields)["missed"])
                 for r in sim.trace.select("TWIN_SYNC", n="e2")]
        # h2 goes down at 12, before that tick's sweep: the second miss
        # in a row, at 15, activates its twin; the sweeps at 6, 9, 15 and
        # 18 repeat their pair and trace nothing
        assert syncs == [(3, "0"), (12, "1")]
        assert [r.tick for r in sim.trace.select("TWIN_ACTIVE")] == [15]
        # after one join op each way, e2 reached h2 at 3, 6 and 9, and e1
        # reached h1 at 3, 6, ..., 18
        links = sim.metrics.conservation["links"]
        for wire, rounds in (("e2>h2", 3), ("h2>e2", 3),
                             ("e1>h1", 6), ("h1>e1", 6)):
            assert links[wire]["sent"] == links[wire]["received"] == 1 + rounds

    def test_expiry_purges_and_return_is_fresh(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 12 fault host-down h2
at 100 fault host-up h2
at 110 send h1 vale room 1 gone
at 120 join h2 vale chat room consumer 1
at 140 send h1 vale room 1 back
"""
        text = scen(body=body, until=170) + "config twin_ttl 40\n"
        sim = run_text(TWO_DOMAINS, text)
        assert sim.trace.count("TWIN_EXPIRE", n="e2") == 1
        assert sim.trace.count("ROLE_REMOVED") >= 1
        # expiry dropped the registration: the first send goes nowhere,
        # the re-join provisions a fresh twin and delivery resumes
        assert sim.trace.count("TWIN_CREATE", n="e2") == 2
        assert sim.metrics.deliveries == {"h2": 1}
        assert sim.trace.count("TWIN_FLUSH") == 0


    def test_flush_on_the_wire_at_the_horizon_is_in_flight(self):
        # h2 reconnects at 45; at 46 e2 swaps h2 back in and flushes the
        # three buffered copies between two control replies, all landing
        # at 47, after the horizon
        sim = run_text(TWO_DOMAINS, scen(body=self.BODY, until=46))
        assert sim.trace.count("TWIN_FLUSH", n="e2", count="3") == 1
        e2_h2 = sim.metrics.conservation["links"]["e2>h2"]
        assert e2_h2["in_flight"] == 5
        assert e2_h2["sent"] == e2_h2["received"] + e2_h2["lost"] + 5
        assert e2_h2["ok"] is True
        assert sim.metrics.conservation["ok"] is True
        assert sim.metrics.deliveries == {}

    def test_consumer_admitted_while_away_gets_what_was_sent(self):
        # k2's join is answered only after its twin went active; the two
        # sends of the outage are buffered for it, not sent down the wire
        sim = run_text((WORLDS / "twin-late-join.topo").read_text(),
                       (WORLDS / "twin-late-join.scen").read_text(), seed=0)
        assert sim.trace.count("TWIN_ACTIVE", n="e2", host="k2") == 1
        assert sim.trace.count("TWIN_FLUSH", n="e2", host="k2",
                               count="2") == 1
        delivers = sim.trace.select("DELIVER", n="k2")
        assert len(delivers) == 2 and all(r.tick > 80 for r in delivers)
        assert sim.metrics.deliveries == {"k2": 2}
        assert sim.metrics.buffered_total == 2


class TestTwinKeepalive:
    """One batched keepalive per edge sweep: sweeps at ticks 5, 10, ...;
    queries land at the hosts one tick later, replies at the edge after
    another (host_link_latency 1)."""

    def test_host_down_between_sweep_and_query_is_a_drop(self):
        sim = run_text(TWO_DOMAINS, scen(body="at 11 fault host-down h2\n",
                                         until=12))
        assert "t=11 n=h2 ev=DROP reason=link_down from=e2" \
            in sim.trace.lines()
        assert sim.metrics.to_dict()["drops"] == {"h2": {"link_down": 1}}
        assert sim.metrics.conservation["links"]["e2>h2"] == {
            "sent": 2, "received": 1, "lost": 1, "in_flight": 0, "ok": True}
        # the sweep at 5 was answered at 7; the one at 10 never arrived
        h2 = sim.hosts["h2"].yni
        assert sim.edges["e2"].twin.records[h2].expire_at == 7 + 50

    def test_replies_on_the_wire_at_the_horizon_are_in_flight(self):
        sim = run_text(TWO_DOMAINS, scen(until=11))
        links = sim.metrics.conservation["links"]
        for host, edge in (("h1", "e1"), ("h2", "e2")):
            assert links[f"{edge}>{host}"] == {
                "sent": 2, "received": 2, "lost": 0, "in_flight": 0,
                "ok": True}
            assert links[f"{host}>{edge}"] == {
                "sent": 2, "received": 1, "lost": 0, "in_flight": 1,
                "ok": True}
        assert sim.metrics.conservation["ok"] is True
        # the sweep at 10 repeats the pair of the one at 5
        assert [(r.tick, r.node) for r in sim.trace.select(
            "TWIN_SYNC", queried="1", missed="0")] == [(5, "e1"), (5, "e2")]

    def test_zero_host_link_latency(self):
        text = (scen(body=TestTwinOverSim.BODY, until=80)
                + "config host_link_latency 0\n")
        sim = run_text(TWO_DOMAINS, text)
        assert sim.trace.count("TWIN_ACTIVE", n="e2") == 1
        assert sim.metrics.deliveries == {"h2": 3}
        assert sim.metrics.conservation["ok"] is True


# every fault that can touch a twin round in SHARED_EDGE: h1 sits on e1,
# h2 and h3 on e2
_ACCESS = {"h1": "e1", "h2": "e2", "h3": "e2"}
_TWIN_FAULTS = [f"{mode} {host}" for host in _ACCESS
                for mode in ("host-down", "host-up", "crash")] \
    + [f"{mode} {host} {edge}" for host, edge in _ACCESS.items()
       for mode in ("link-down", "link-up")] \
    + ["crash e1", "crash e2"]


@st.composite
def _twin_worlds(draw):
    """A SHARED_EDGE scenario with faults at, one tick after, and one
    round trip after sweep ticks, so rounds overlap faults and each
    other; and an optional stop inside a round. Horizons run long enough
    that tables sleep across an expiry and a returning host's hello."""
    period, lat = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    until = draw(st.integers(20, 90))
    sweeps = st.integers(1, until // period)
    near_sweep = st.tuples(sweeps, st.sampled_from([0, 1, 2 * lat])).map(
        lambda t: t[0] * period + t[1])
    faults = draw(st.lists(st.tuples(near_sweep,
                                     st.sampled_from(_TWIN_FAULTS)),
                           max_size=6))
    sends = draw(st.lists(st.integers(3, until), max_size=4))
    stop = draw(st.none() | st.tuples(sweeps, st.integers(0, 2 * lat)).map(
        lambda t: t[0] * period + t[1]).filter(lambda t: t < until))
    body = "".join(
        [f"at 2 join {h} vale chat room {role} 1\n" for h, role in
         (("h1", "producer"), ("h2", "consumer"), ("h3", "consumer"))]
        + [f"at {t} fault {f}\n" for t, f in faults]
        + [f"at {t} send h1 vale room 1 m{t}\n" for t in sends])
    config = (f"config twin_period {period}\nconfig host_link_latency {lat}\n"
              f"config twin_ttl {draw(st.integers(3, 15))}\n"
              f"config twin_miss_threshold {draw(st.integers(1, 3))}\n")
    return scen(body=body, until=until) + config, stop


@contextlib.contextmanager
def _every_round_sent():
    """No twin table settles a round in closed form: every keepalive round
    is sent."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "settle_sync", lambda self, edge: None)
        yield


def _stepped_outputs(text, stop):
    """Outputs of SHARED_EDGE under `text` at `stop`, if given, and at the
    horizon. Built from the parsed files without `cross_check`, which
    allows no access line in a link fault and no host in a crash; the
    simulator runs both."""
    topo, errors = parse_topology(SHARED_EDGE)
    scen_spec, more = parse_scenario(text)
    assert errors + more == []
    sim = Simulation(topo, scen_spec, SimConfig.from_scenario(scen_spec, 1))
    ticks = [sim.config.until] if stop is None else [stop, sim.config.until]
    return [outputs(step(sim, tick)) for tick in ticks]


@settings(max_examples=120, deadline=None)
@given(world=_twin_worlds())
# the round of the first sweep, at 5, lands at 11, after the sweep at 10 was
# settled in closed form (period 5 < 2 x latency 3); h2 then loses the reply
# of the sweep at 15, and its twin must expire 13 ticks after the reply of
# the sweep at 10, not after the earlier one
@example(world=(scen(body="at 2 join h2 vale chat room consumer 1\n"
                          "at 21 fault host-down h2\n", until=45)
                + "config twin_period 5\nconfig host_link_latency 3\n"
                  "config twin_ttl 13\nconfig twin_miss_threshold 1\n", None))
# h3's record expires at 4; its hello lands at 7, after its host-up at 5,
# while e2 sleeps from its sweep at 6 towards its horizon at 17. The fresh
# record must wake e2: it counts the round of 6, not those up to 17, and
# its sweep at 7 traces queried=2
@example(world=(scen(body="at 1 fault host-down h3\n"
                          "at 5 fault host-up h3\n", until=20)
                + "config twin_period 1\nconfig host_link_latency 2\n"
                  "config twin_ttl 3\nconfig twin_miss_threshold 1\n", None))
def test_quiet_sweeps_equal_sent_rounds(world):
    """Quiet twin tables settle their keepalive rounds in closed form and
    sleep through them; the trace and report equal those of every round
    sent, also when a run stops inside a round."""
    text, stop = world
    quiet = _stepped_outputs(text, stop)
    with _every_round_sent():
        assert _stepped_outputs(text, stop) == quiet


def _sweeps(monkeypatch):
    """(tick, edge) of every twin table sweep, in order."""
    calls = []
    sweep = TwinManager.sweep

    def counted(self):
        calls.append((self.env.now(), self.edge.label))
        sweep(self)

    monkeypatch.setattr(TwinManager, "sweep", counted)
    return calls


def test_quiet_tables_sleep_until_their_horizon(monkeypatch):
    """With no fault, a table is swept until it is quiet, once more to
    settle the rounds to come, and next at the first round whose replies
    would land past `until`, 62 for the sweep at 60; its rounds count as
    if sent."""
    calls = _sweeps(monkeypatch)
    text = scen(body=TestBasicWorld.BODY, until=61)
    sim = run_text(SHARED_EDGE, text)
    assert calls == [(5, "e1"), (5, "e2"), (10, "e1"), (10, "e2"),
                     (60, "e1"), (60, "e2")]
    with _every_round_sent():
        assert outputs(sim) == outputs(run_text(SHARED_EDGE, text))


def test_a_table_wakes_for_the_first_round_a_fault_can_reach(monkeypatch):
    """h2 goes down at 31, inside the round of the sweep at 30, which
    lands at 32: e2 sleeps from 10 until that round and sends it, its
    query to h2 is lost, and e2 is swept every period from then on. No
    fault names e1, which sleeps to the end."""
    calls = _sweeps(monkeypatch)
    text = scen(body=TestBasicWorld.BODY + "at 31 fault host-down h2\n",
                until=62)
    sim = run_text(SHARED_EDGE, text)
    assert [t for t, edge in calls if edge == "e1"] == [5, 10]
    assert [t for t, edge in calls if edge == "e2"] == \
        [5, 10] + list(range(30, 61, 5))
    assert "t=31 n=h2 ev=DROP reason=link_down from=e2" in sim.trace.lines()
    with _every_round_sent():
        assert outputs(sim) == outputs(run_text(SHARED_EDGE, text))


def test_quiet_edges_schedule_no_keepalives(monkeypatch):
    """With no fault, an edge sends keepalive rounds only until its first
    quiet sweep; every later round is settled in closed form and still
    counted on the access lines."""
    batches = []
    send_batch = Simulation._send_batch

    def counted(self, batch, land):
        batches.append((self.now(), batch[0][0].label))
        send_batch(self, batch, land)

    monkeypatch.setattr(Simulation, "_send_batch", counted)
    sim = run_text(SHARED_EDGE, scen(body=TestBasicWorld.BODY, until=62))
    assert [(r.tick, r.node, dict(r.fields)["queried"])
            for r in sim.trace.select("TWIN_SYNC", missed="0")] == \
        [(5, "e1", "1"), (5, "e2", "2")]
    # the first sweep's queries at 5 and their replies at 6
    assert batches == [(5, "e1"), (5, "e2"), (6, "h1"), (6, "h2")]
    # the rounds of the sweeps at 5, 10, ..., 60 on every access line;
    # h3 neither joins nor sends, so its line carries nothing else
    links = sim.metrics.conservation["links"]
    for host, edge in _ACCESS.items():
        for wire in (f"{edge}>{host}", f"{host}>{edge}"):
            assert links[wire]["sent"] == links[wire]["received"] >= 12
    assert links["e2>h3"]["sent"] == links["h3>e2"]["sent"] == 12


class TestPartitioning:
    def test_manual_split_localizes_traffic(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h1 vale chat room consumer 2
at 2 join h2 vale chat room producer 1
at 2 join h2 vale chat room consumer 2
at 20 send h2 vale room 1 held
at 30 partition-now vale chat room
at 40 send h2 vale room 1 mine now
at 45 send h1 vale room 1 stays home
"""
        sim = run_text(TWO_DOMAINS, scen(
            model="slsm", body=body).replace("chat slsm",
                                             "chat slsm partition=manual"))
        # second producer edge starts on hold, so the early send is refused
        assert sim.metrics.drops["h2"]["producer_locked"] == 1
        parts = sim.trace.select("PARTITION")
        assert len(parts) == 1
        assert dict(parts[0].fields)["partitions"] == "2"
        # once split, each producer reaches only its own partition: both
        # late sends land on the co-located consumer app and nowhere else
        assert sim.trace.count("DELIVER", n="h1", app="2") == 1
        assert sim.trace.count("DELIVER", n="h2", app="2") == 1
        assert sim.trace.count("DELIVER") == 2
        assert sim.metrics.conservation["ok"] is True

    def test_channel_update_for_an_away_host_names_the_host(self):
        # h3 is twin-active when the split gives e2 a channel of its own:
        # the update goes to h3 and is lost on its down link, and the
        # resync on its return carries the new channel
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room producer 1
at 2 join h3 vale chat room consumer 1
at 12 fault host-down h3
at 30 partition-now vale chat room
at 60 fault host-up h3
at 70 send h2 vale room 1 back
"""
        text = scen(model="slsm", body=body, until=90).replace(
            "chat slsm", "chat slsm partition=manual")
        sim = run_text(SHARED_EDGE, text + "config twin_ttl 1000\n")
        assert sim.trace.count("TWIN_ACTIVE", n="e2", host="h3") == 1
        lines = sim.trace.lines()
        assert "t=31 n=e2 ev=SEND to=h3 k=CONTROL_YPP" in lines
        assert "t=31 n=e2 ev=DROP reason=link_down to=h3" in lines
        assert sim.metrics.to_dict()["drops"] == {"e2": {"link_down": 2}}
        assert sim.metrics.deliveries == {"h3": 1}


    # e3's only link is down, so the partition that takes its consumer
    # cuts it off
    CUT_TOPOLOGY = """\
domain d1
domain d2
domain d3
node e1 edge d1
node e2 edge d2
node e3 edge d3
node c1 connector d1
link e1 c1 1
link e2 c1 1
link e3 c1 1
host h1 alice domain=d1
host h2 bob domain=d2
host h3 bob domain=d3
"""

    def test_partition_now_reports_each_cut_tree_once(self):
        body = """\
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room producer 1
at 2 join h3 vale chat room consumer 1
at 20 fault link-down e3 c1
at 30 partition-now vale chat room
"""
        sim = run_text(self.CUT_TOPOLOGY, scen(model="slsm", body=body).replace(
            "chat slsm", "chat slsm partition=manual"))
        assert [r.tick for r in sim.trace.select("PARTITION")] == [30]
        cut = [r.line() for r in sim.trace.select("UNREACHABLE")
               if r.tick == 30]
        e2, e3 = (str(sim.nodes[label].yni) for label in ("e2", "e3"))
        assert cut == [f"t=30 n=controller ev=UNREACHABLE valley=1 "
                       f"community=room edge={e2} cut={e3}"]


class TestScenarioErrors:
    def test_unknown_reference_is_traced_not_fatal(self):
        body = "at 5 send h1 nowhere room 1 hi\nat 6 report\n"
        sim = run_text(TWO_DOMAINS, scen(body=body))
        errs = sim.trace.select("SCENARIO_ERROR", verb="send")
        assert len(errs) == 1
        assert "unknown valley 'nowhere'" in dict(errs[0].fields)["reason"]
        assert sim.trace.count("REPORT") == 1  # the run keeps going

    def test_partition_now_needs_partitionable_model(self):
        body = "at 2 join h1 vale chat room producer 1\n" \
               "at 10 partition-now vale chat room\n"
        sim = run_text(TWO_DOMAINS, scen(model="ssm", body=body))
        errs = sim.trace.select("SCENARIO_ERROR", verb="partition-now")
        assert len(errs) == 1
        assert "do not partition" in dict(errs[0].fields)["reason"]
        assert errs[0].line() == (
            "t=10 n=scenario ev=SCENARIO_ERROR line=6 verb=partition-now "
            "reason=SSM communities do not partition")

    def test_an_unresolved_reference_is_traced_not_fatal(self):
        # `cross_check` rejects a host no topology declares, so the world
        # is built from the parsed files without it
        body = "at 2 send hx vale room 1 hi\nat 6 report\n"
        topo, errors = parse_topology(TWO_DOMAINS)
        scen_spec, more = parse_scenario(scen(body=body))
        assert errors + more == []
        sim = Simulation(topo, scen_spec,
                         SimConfig.from_scenario(scen_spec, 1)).run()
        errs = sim.trace.select("SCENARIO_ERROR")
        assert [r.line() for r in errs] == [
            "t=2 n=scenario ev=SCENARIO_ERROR line=5 verb=send "
            "reason=unresolved reference 'hx'"]
        assert [r.tick for r in sim.trace.select("REPORT")] == [6]

    def test_unknown_config_key_rejected(self):
        _, _, errors = load_world(TWO_DOMAINS, "at 0 report\nconfig warp 9\n")
        assert [str(e) for e in errors] == [
            "<scenario>:2: unknown config key 'warp'"]

    def test_bad_config_value_rejected(self):
        _, _, errors = load_world(TWO_DOMAINS, "config until soonish\n")
        assert [str(e) for e in errors] == [
            "<scenario>:1: config until: bad value 'soonish'"]

    # run() is never called with these values: a twin period of 0 never
    # returns, a negative latency schedules events in the past
    @pytest.mark.parametrize("key,value", [
        ("twin_period", 0), ("twin_period", -5), ("rpc_latency", -1),
        ("host_link_latency", -3), ("twin_buffer_max", -1)])
    def test_config_value_below_its_least_rejected(self, key, value):
        _, _, errors = load_world(TWO_DOMAINS, f"config {key} {value}\n")
        assert [e.line for e in errors] == [1]
        assert errors[0].reason.startswith(f"config {key}: must be at least ")
        assert errors[0].reason.endswith(f", got {value}")

    @pytest.mark.parametrize("key,value", [
        ("twin_period", 1), ("rpc_latency", 0), ("host_link_latency", 0),
        ("twin_buffer_max", 0)])
    def test_config_least_value_accepted(self, key, value):
        _, scen_spec, errors = load_world(
            TWO_DOMAINS, f"config {key} {value}\n")
        assert errors == []
        assert getattr(SimConfig.from_scenario(scen_spec, 0), key) == value


# near-valid tokens sit beside the valid ones, so some generated worlds pass
# `load_world` with values at the edge of what it accepts
_INT = st.one_of(st.integers(0, 3), st.sampled_from([
    2**31, 2**32 - 1, 2**32, 2**64, 10**30])).map(str) \
    | st.sampled_from(["-1", "1.5", "\u00b2", "\u0663", "0x1", ""])
_W = {
    "host": st.sampled_from(["h1", "h2", "h9"]),
    "user": st.sampled_from(["alice", "bob", "carol"]),
    "valley": st.sampled_from(["vale", "vale", "nowhere"]),
    "ns": st.sampled_from(["chat", "chat", "hall"]),
    "community": st.sampled_from(["room", "room", "den"]),
    "role": st.sampled_from(["producer", "consumer", "member", "listener"]),
    "model": st.sampled_from(["ssm", "SLSM", "msac", "mmm", "bogus"]),
    "node": st.sampled_from(["e1", "e2", "c1", "h1", "x"]),
    "vis": st.sampled_from(["open", "protected", "secret"]),
}
_NS_OPTION = st.sampled_from([
    "visibility=open", "visibility=protected", "visibility=hidden",
    "randomized=on", "randomized=off", "randomized=1", "q=0.5", "q=1e-400",
    "q=nan", "q=inf", "q=-0", "q=1.01", "partition=auto", "partition=manual",
    "partition=", "shape=star", "q"])
_TTL = _INT.map(lambda v: f"ttl={v}") | st.sampled_from(["tll=5", "ttl"])


def _command(verb, *parts, extra=st.just([])):
    return st.tuples(st.tuples(*parts), extra).map(
        lambda t: " ".join((verb,) + t[0] + tuple(t[1])))


_COMMANDS = st.one_of(
    _command("valley", _W["user"], _W["valley"]),
    _command("namespace", _W["user"], _W["valley"], _W["ns"], _W["model"],
             extra=st.lists(_NS_OPTION, max_size=3)),
    _command("community", _W["user"], _W["valley"], _W["ns"],
             _W["community"]),
    _command("member", _W["user"], _W["valley"], _W["user"]),
    _command("grant", _W["user"], _W["valley"], _W["ns"], _W["user"]),
    _command("visibility", _W["user"], _W["valley"], _W["ns"], _W["vis"]),
    _command("join", _W["host"], _W["valley"], _W["ns"], _W["community"],
             _W["role"], _INT, extra=st.lists(_TTL, max_size=1)),
    _command("withdraw", _W["host"], _W["valley"], _W["ns"], _W["community"],
             _W["role"], _INT),
    _command("send", _W["host"], _W["valley"], _W["community"], _INT,
             extra=st.lists(st.sampled_from(["hi", "\u00e9t\u00e9", "x" * 9]),
                            min_size=1, max_size=2)),
    _command("lock", _W["host"], _W["valley"], _W["community"], _INT),
    _command("unlock", _W["host"], _W["valley"], _W["community"], _INT),
    _command("fault", st.sampled_from(["link-down", "link-up", "crash"]),
             _W["node"], extra=st.lists(_W["node"], max_size=1)),
    _command("fault", st.sampled_from(["host-down", "host-up"]), _W["host"]),
    _command("partition-now", _W["valley"], _W["ns"], _W["community"]),
    st.just("report"),
)
_AT_LINE = st.tuples(st.integers(2, 50), _COMMANDS).map(
    lambda t: f"at {t[0]} {t[1]}\n")


@settings(max_examples=150, deadline=None)
@given(model=_W["model"], lines=st.lists(_AT_LINE, max_size=8))
@example(model="ssm", lines=["at 2 join h1 vale chat room producer 1 "
                             "ttl=4294967296\n"])
def test_every_world_load_world_accepts_runs_to_the_end(model, lines):
    """Any world `load_world` accepts runs to its end, leaves no garbage
    cycle, which run()'s paused collector would keep until the run ends,
    and gives the same bytes when run in two steps."""
    topo, scen_spec, errors = load_world(
        TWO_DOMAINS, scen(model=model, body="".join(lines)))
    if errors:
        return

    def world():
        return Simulation(topo, scen_spec,
                          SimConfig.from_scenario(scen_spec, 1))
    assert cycles_left(world) == 0
    assert outputs(run_in_steps(world())) == outputs(world().run())


class _NoOpenBatch(dict):
    """A `Simulation._landing` that offers no open batch: each copy lands
    in an event of its own."""

    def get(self, tick, default=None):
        return default


@contextlib.contextmanager
def _every_copy_alone():
    """Every copy `transmit` sends lands in an event of its own: the
    reference the runs of copies landed in one event must match."""
    init = Simulation.__init__

    def alone(self, *args):
        init(self, *args)
        self._landing = _NoOpenBatch()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "__init__", alone)
        yield


@settings(max_examples=150, deadline=None)
@given(model=_W["model"], lines=st.lists(_AT_LINE, max_size=8),
       latency=st.integers(0, 3))
def test_fuzzed_worlds_land_copies_as_one_event_per_copy_would(
        model, lines, latency):
    """On any world `load_world` accepts, at any host link latency, copies
    landed in runs give the bytes of one event per copy."""
    text = (scen(model=model, body="".join(lines))
            + f"config host_link_latency {latency}\n")
    topo, scen_spec, errors = load_world(TWO_DOMAINS, text)
    if errors:
        return

    def run():
        return Simulation(topo, scen_spec,
                          SimConfig.from_scenario(scen_spec, 1)).run()
    batched = outputs(run())
    with _every_copy_alone():
        assert outputs(run()) == batched


@settings(max_examples=120, deadline=None)
@given(world=_twin_worlds())
# at 20 h1's copy to e1 opens the batch for 22, e2's sweep schedules its
# keepalives there, and e2 lands m15 and sends it on to h2 and h3: those
# copies land after the keepalives, whose DROP line at h2, down since 21,
# comes first
@example(world=(scen(body="at 2 join h1 vale chat room producer 1\n"
                          "at 2 join h2 vale chat room consumer 1\n"
                          "at 2 join h3 vale chat room consumer 1\n"
                          "at 15 send h1 vale room 1 m15\n"
                          "at 20 send h1 vale room 1 m20\n"
                          "at 21 fault host-down h2\n", until=40)
                + "config twin_period 5\nconfig host_link_latency 2\n", None))
def test_twin_worlds_land_copies_as_one_event_per_copy_would(world):
    """On faulted twin worlds, at host link latencies 0 to 3 and stopped
    inside a round, copies landed in runs give the bytes of one event per
    copy."""
    text, stop = world
    batched = _stepped_outputs(text, stop)
    with _every_copy_alone():
        assert _stepped_outputs(text, stop) == batched
