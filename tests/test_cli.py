"""Front-end behavior: exit codes, outputs, seed resolution, diffing."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from yodel.cli import main
from yodel.errors import InvariantViolation
from yodel.sim import Simulation

ROOT = pathlib.Path(__file__).parent.parent

TOPO = """\
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

SCEN = """\
config until 60
at 0 valley alice vale
at 0 member alice vale bob
at 1 namespace alice vale chat ssm
at 2 join h1 vale chat room producer 1
at 2 join h2 vale chat room consumer 1
at 20 send h1 vale room 1 hello there
at 30 report
"""


def star(edges):
    """(topology, scenario) of one connector `c` linked to `edges` edges,
    one host each: the last host sends to a multi-source community that
    every other host consumes."""
    topo = ("domain d\nnode c connector d\n"
            + "".join(f"node e{i} edge d\nlink c e{i} 1\n"
                      for i in range(edges))
            + "".join(f"host h{i} u{i}\n" for i in range(edges)))
    last = edges - 1
    scen = ("config until 40\nat 0 valley u0 vale\n"
            + "".join(f"at 0 member u0 vale u{i}\n" for i in range(1, edges))
            + "at 1 namespace u0 vale fan msm\n"
            + "".join(f"at 2 join h{i} vale fan out consumer 1\n"
                      for i in range(last))
            + f"at 3 join h{last} vale fan out producer 1\n"
            + f"at 20 send h{last} vale out 1 x\n")
    return topo, scen


def write_world(tmp_path, topo=TOPO, scen=SCEN):
    t = tmp_path / "world.topo"
    s = tmp_path / "world.scen"
    t.write_text(topo)
    s.write_text(scen)
    return str(t), str(s)


def run_cli(tmp_path, *extra, topo=TOPO, scen=SCEN):
    t, s = write_world(tmp_path, topo, scen)
    out = tmp_path / "trace.txt"
    rep = tmp_path / "report.json"
    code = main(["run", "--topology", t, "--scenario", s,
                 "--out", str(out), "--report", str(rep), *extra])
    return code, out, rep


class TestValidate:
    def test_clean_world(self, tmp_path, capsys):
        t, s = write_world(tmp_path)
        assert main(["validate", "--topology", t, "--scenario", s]) == 0
        assert capsys.readouterr().out == "ok: 3 nodes, 2 hosts, 7 commands\n"

    def test_diagnostics_with_locations(self, tmp_path, capsys):
        t, s = write_world(tmp_path, topo=TOPO + "node e1 edge d1\n")
        assert main(["validate", "--topology", t, "--scenario", s]) == 1
        out = capsys.readouterr().out
        assert f"{t}:10: duplicate node name 'e1'" in out

    def test_config_keys_are_checked(self, tmp_path, capsys):
        t, s = write_world(tmp_path, scen="config warp 9\n" + SCEN)
        assert main(["validate", "--topology", t, "--scenario", s]) == 1
        assert "unknown config key 'warp'" in capsys.readouterr().out

    def test_config_values_that_hang_or_rewind_are_rejected(
            self, tmp_path, capsys):
        for line in ("config twin_period 0", "config rpc_latency -1"):
            t, s = write_world(tmp_path, scen=line + "\n" + SCEN)
            assert main(["validate", "--topology", t, "--scenario", s]) == 1
            assert "must be at least" in capsys.readouterr().out

    def test_every_bad_line_is_named_by_file_and_line(self, tmp_path, capsys):
        bad = ("config twin_period 0\nconfig warp 9\n"
               + SCEN.replace("producer 1", "producer 1 ttl=4294967296"))
        t, s = write_world(tmp_path, scen=bad)
        expected = [f"{s}:1: config twin_period: must be at least 1, got 0",
                    f"{s}:2: unknown config key 'warp'",
                    f"{s}:7: ttl must be at most 4294967295"]
        assert main(["validate", "--topology", t, "--scenario", s]) == 1
        assert capsys.readouterr().out.splitlines() == expected
        code, out, _ = run_cli(tmp_path, scen=bad)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == expected

    def test_fan_out_the_wire_cannot_carry_is_rejected(self, tmp_path,
                                                        capsys):
        # a delivery tree may take every link of a node as its children and
        # the wire holds a child count in one byte: from the 256th link of
        # the star's connector on, each link line is a diagnostic, where
        # `run` used to stop on the tree
        topo, scen = star(300)
        t, s = write_world(tmp_path, topo, scen)
        assert main(["validate", "--topology", t, "--scenario", s]) == 1
        reason = ("node 'c' has more than 255 links: "
                  "a path-tree node holds at most 255 children")
        # link i is on line 2i + 4
        assert capsys.readouterr().out.splitlines() == [
            f"{t}:{2 * i + 4}: {reason}" for i in range(255, 300)]
        code, out, _ = run_cli(tmp_path, topo=topo, scen=scen)
        assert code == 2 and not out.exists()

    def test_a_star_at_the_fan_out_limit_runs(self, tmp_path, capsys):
        topo, scen = star(255)
        t, s = write_world(tmp_path, topo, scen)
        assert main(["validate", "--topology", t, "--scenario", s]) == 0
        code, out, _ = run_cli(tmp_path, topo=topo, scen=scen)
        assert code == 0
        assert out.read_text().count(" ev=DELIVER ") == 254

    def test_missing_file(self, tmp_path, capsys):
        t, _ = write_world(tmp_path)
        code = main(["validate", "--topology", t,
                     "--scenario", str(tmp_path / "absent.scen")])
        assert code == 3
        assert "cannot read input" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2


class TestRun:
    def test_writes_trace_and_report(self, tmp_path, capsys):
        code, out, rep = run_cli(tmp_path, "--seed", "5")
        assert code == 0
        summary = capsys.readouterr().out
        assert summary.startswith("seed=5 ticks<=60 ")
        assert "delivered=1 proto_errors=0" in summary
        trace = out.read_text()
        assert trace.splitlines()[0].startswith("t=0 n=controller ev=PROVISION")
        assert " ev=DELIVER " in trace
        report_text = rep.read_text()
        assert report_text.endswith("}\n")
        assert not report_text.endswith("\n\n")
        report = json.loads(report_text)
        assert report["deliveries"] == {"h2": 1}
        assert report["conservation"]["ok"] is True

    def test_same_seed_same_bytes(self, tmp_path):
        _, out1, rep1 = run_cli(tmp_path, "--seed", "9")
        first = (out1.read_text(), rep1.read_text())
        _, out2, rep2 = run_cli(tmp_path, "--seed", "9")
        assert (out2.read_text(), rep2.read_text()) == first

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("YODEL_SIM_SEED", "77")
        code, _, _ = run_cli(tmp_path)
        assert code == 0
        assert capsys.readouterr().out.startswith("seed=77 ")

    def test_seed_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("YODEL_SIM_SEED", "77")
        run_cli(tmp_path, "--seed", "3")
        assert capsys.readouterr().out.startswith("seed=3 ")

    def test_bad_environment_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("YODEL_SIM_SEED", "many")
        code, _, _ = run_cli(tmp_path)
        assert code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_until_flag_cuts_the_run(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, "--until", "10")
        assert code == 0
        assert capsys.readouterr().out.startswith("seed=0 ticks<=10 ")
        assert " ev=DELIVER " not in out.read_text()

    def test_invalid_world_is_not_run(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, scen="at -1 report\n" + SCEN)
        assert code == 2
        assert not out.exists()
        assert "tick must be non-negative" in capsys.readouterr().err

    def test_a_world_that_cannot_run_exits_2(self, tmp_path, capsys,
                                             monkeypatch):
        # a valid world whose run stops on a typed error, as the controller
        # does on a tree too large to advertise
        def stop(sim):
            raise InvariantViolation("floating header above 64KiB")
        monkeypatch.setattr(Simulation, "run", stop)
        code, out, rep = run_cli(tmp_path)
        assert code == 2
        assert not out.exists() and not rep.exists()
        assert capsys.readouterr().err \
            == "cannot run world: floating header above 64KiB\n"

    def test_an_output_that_cannot_be_written_exits_3(self, tmp_path,
                                                      capsys):
        # the report goes to a directory that does not exist; the trace,
        # written first, is there
        t, s = write_world(tmp_path)
        out = tmp_path / "trace.txt"
        rep = tmp_path / "absent" / "report.json"
        code = main(["run", "--topology", t, "--scenario", s,
                     "--out", str(out), "--report", str(rep)])
        assert code == 3
        assert " ev=DELIVER " in out.read_text()
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and str(rep) in err


class TestDiff:
    def test_identical(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one\ntwo\n")
        b.write_text("one\ntwo\n")
        assert main(["diff", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "identical (2 lines)\n"

    def test_first_difference_with_context(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one\ntwo\nthree\nfour\n")
        b.write_text("one\ntwo\nTHREE\nfour\n")
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first difference at line 3" in out
        assert "< 3: three" in out
        assert "> 3: THREE" in out
        assert "  1: one" in out and "  2: two" in out

    def test_truncation_reads_as_end_of_file(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one\ntwo\n")
        b.write_text("one\n")
        assert main(["diff", str(a), str(b)]) == 1
        assert "> 2: <end of file>" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("one\n")
        assert main(["diff", str(a), str(tmp_path / "gone.txt")]) == 3


class TestRoundTrip:
    def test_run_then_diff_traces(self, tmp_path, capsys):
        _, out1, _ = run_cli(tmp_path, "--seed", "4")
        keep = tmp_path / "kept.txt"
        keep.write_text(out1.read_text())
        run_cli(tmp_path, "--seed", "8")
        capsys.readouterr()
        assert main(["diff", str(keep), str(out1)]) == 1


class TestHashSeed:
    # node ids are bytes, whose hash differs per process; no table order
    # that reaches the output may follow it
    @pytest.mark.parametrize("demo", ["twin", "flap"])
    def test_output_does_not_depend_on_hash_seed(self, tmp_path, demo):
        worlds = ROOT / "demos" / "worlds"
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"trace{hash_seed}.txt"
            rep = tmp_path / f"report{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "yodel.cli", "run",
                 "--topology", str(worlds / f"{demo}.topo"),
                 "--scenario", str(worlds / f"{demo}.scen"),
                 "--seed", "3", "--out", str(out), "--report", str(rep)],
                env=env, check=True, capture_output=True, timeout=120)
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]
