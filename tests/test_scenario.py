"""World-file parsing: happy paths, per-line diagnostics, cross-checks."""

import pytest

from yodel.scenario import (
    MODEL_NAMES,
    cross_check,
    load_world,
    parse_scenario,
    parse_topology,
)
from yodel.model import Visibility
from yodel.services import AnycastMode, ServiceModel

GOOD_TOPO = """\
# two domains joined by a connector
domain d1
domain d2

node e1 edge d1 cpu=4 mem=2.5
node e2 edge d2
node c1 connector d1

link e1 c1 1
link c1 e2 3
mcastgroup d1 e1 c1

host h1 alice domain=d1 max_latency=9
host h2 bob
"""

GOOD_SCEN = """\
config until 40
config rpc_latency 2

at 0 valley alice vale
at 0 member alice vale bob
at 1 namespace alice vale chat SSM visibility=protected q=0.5
at 1 community alice vale chat room
at 2 join h1 vale chat room producer 1 ttl=30
at 2 join h2 vale chat room consumer 1
at 5 send h1 vale room 1 hello out there
at 6 lock h2 vale room 1
at 7 unlock h2 vale room 1
at 8 withdraw h1 vale chat room producer 1
at 9 fault link-down e1 c1
at 10 fault link-up e1 c1
at 11 fault host-down h1
at 12 fault host-up h1
at 13 fault crash c1
at 14 partition-now vale chat room
at 15 report
"""


def reasons(errors):
    return [e.reason for e in errors]


class TestParseTopology:
    def test_good_file(self):
        spec, errors = parse_topology(GOOD_TOPO)
        assert errors == []
        assert spec.domains == ["d1", "d2"]
        assert [n.name for n in spec.nodes] == ["e1", "e2", "c1"]
        assert spec.node("e1").stats == (("cpu", 4.0), ("mem", 2.5))
        assert spec.node("c1").role == "connector"
        assert [(l.a, l.b, l.latency) for l in spec.links] == [
            ("e1", "c1", 1), ("c1", "e2", 3)]
        assert spec.groups[0].members == ("e1", "c1")
        assert spec.host("h1").domain == "d1"
        assert spec.host("h1").max_latency == 9
        assert spec.host("h2").domain is None

    def test_comments_and_blank_lines_skipped(self):
        spec, errors = parse_topology("\n# note\n  # more\ndomain d\n")
        assert errors == []
        assert spec.domains == ["d"]

    def test_line_numbers_in_diagnostics(self):
        _, errors = parse_topology("domain d\n\nnode x spoke d\n",
                                   path="topo.txt")
        assert len(errors) == 1
        assert errors[0].path == "topo.txt"
        assert errors[0].line == 3
        assert str(errors[0]).startswith("topo.txt:3: ")

    def test_duplicate_domain(self):
        _, errors = parse_topology("domain d\ndomain d\n")
        assert reasons(errors) == ["duplicate domain 'd'"]

    def test_duplicate_node_name(self):
        _, errors = parse_topology(
            "domain d\nnode n edge d\nnode n connector d\n")
        assert reasons(errors) == ["duplicate node name 'n'"]

    def test_duplicate_link(self):
        # either order names the same wire; the first latency stands
        spec, errors = parse_topology(
            "domain d\nnode a edge d\nnode b connector d\n"
            "link a b 1\nlink b a 3\nlink a b 1\n")
        assert reasons(errors) == ["duplicate link 'b' 'a'",
                                   "duplicate link 'a' 'b'"]
        assert [(l.a, l.b, l.latency) for l in spec.links] == [("a", "b", 1)]

    def test_host_clashing_with_node_name(self):
        _, errors = parse_topology("domain d\nnode n edge d\nhost n u\n")
        assert reasons(errors) == ["duplicate node name 'n'"]

    def test_bad_stat_value(self):
        _, errors = parse_topology("domain d\nnode n edge d cpu=lots\n")
        assert reasons(errors) == ["stat 'cpu' is not a number"]
        for value in ("nan", "NaN", "inf", "-inf", "Infinity", "1e999"):
            topo, errors = parse_topology(
                f"domain d\nnode n edge d compute={value}\n")
            assert reasons(errors) == ["stat 'compute' is not finite"], value
            assert topo.nodes == []
        topo, errors = parse_topology("domain d\nnode n edge d compute=-1.5e3\n")
        assert errors == [] and topo.nodes[0].stats == (("compute", -1500.0),)

    def test_link_latency_must_be_positive_integer(self):
        _, errors = parse_topology("link a b fast\nlink a b 0\nlink a a 1\n")
        assert reasons(errors) == [
            "latency 'fast' is not an integer",
            "latency must be at least 1",
            "link endpoints must differ",
        ]

    def test_mcastgroup_needs_two_distinct_members(self):
        _, errors = parse_topology("mcastgroup d a\nmcastgroup d a a\n")
        assert len(errors) == 2

    def test_unknown_host_option(self):
        _, errors = parse_topology("host h u color=red\n")
        assert reasons(errors) == ["unknown host option 'color'"]

    def test_unknown_directive(self):
        _, errors = parse_topology("router r\n")
        assert reasons(errors) == ["unknown directive 'router'"]

    def test_collects_every_bad_line(self):
        text = "domain d\ndomain d\nnode n hub d\nlink a a 1\n"
        _, errors = parse_topology(text)
        assert [e.line for e in errors] == [2, 3, 4]


@pytest.mark.parametrize("file,line,reason", [
    ("topo", "domain d1 d2", "domain takes exactly one name"),
    ("topo", "node e1 edge", "node needs <name> <role> <domain>"),
    ("topo", "node e1 hub d",
     "node role must be edge or connector, got 'hub'"),
    ("topo", "node e1 edge d cpu", "expected key=value stat, got 'cpu'"),
    ("topo", "link e1 c1", "link needs <a> <b> <latency>"),
    ("topo", "mcastgroup d e1",
     "mcastgroup needs <domain> and at least two nodes"),
    ("topo", "mcastgroup d e1 c1 e1", "mcastgroup members must be distinct"),
    ("topo", "host h1", "host needs <name> <user>"),
    ("topo", "host h1 alice d1", "expected key=value, got 'd1'"),
    ("topo", "host h1 alice max_latency=9.5",
     "max_latency is not an integer"),
    ("scen", "at 5", "at needs <tick> <command>"),
    ("scen", "at 1 namespace alice vale chat ssm open",
     "expected key=value option, got 'open'"),
])
def test_a_bad_line_is_named_by_file_line_and_reason(file, line, reason):
    """Each of these diagnostics names the file and line of the one bad
    line, after a good first line."""
    if file == "topo":
        _, errors = parse_topology(f"domain d\n{line}\n", path="w.topo")
    else:
        _, errors = parse_scenario(f"config until 9\n{line}\n",
                                   path="w.scen")
    assert [str(e) for e in errors] == [f"w.{file}:2: {reason}"]


class TestParseScenario:
    def test_good_file(self):
        spec, errors = parse_scenario(GOOD_SCEN)
        assert errors == []
        assert spec.config == {"until": 40, "rpc_latency": 2}
        assert len(spec.commands) == 17
        first = spec.commands[0]
        assert (first.tick, first.verb, first.args) == (
            0, "valley", ("alice", "vale"))
        send = next(c for c in spec.commands if c.verb == "send")
        assert send.args == ("h1", "vale", "room", 1, b"hello out there")

    def test_model_name_case_insensitive(self):
        for name in ("ssm", "SSM", "Ssm"):
            _, errors = parse_scenario(f"at 0 namespace u v n {name}\n")
            assert errors == []
        assert MODEL_NAMES["mmm"] is ServiceModel.MMM

    def test_unknown_model_lists_choices(self):
        _, errors = parse_scenario("at 0 namespace u v n bogus\n")
        assert len(errors) == 1
        assert "unknown service model 'bogus'" in errors[0].reason
        assert "ssm" in errors[0].reason

    def test_bad_tick(self):
        _, errors = parse_scenario("at soon report\nat -1 report\n")
        assert reasons(errors) == [
            "tick 'soon' is not an integer", "tick must be non-negative"]

    def test_unknown_command(self):
        _, errors = parse_scenario("at 0 teleport h1\n")
        assert reasons(errors) == ["unknown command 'teleport'"]

    def test_wrong_arity(self):
        _, errors = parse_scenario("at 0 valley alice\n")
        assert reasons(errors) == ["wrong argument count for 'valley'"]

    def test_namespace_option_checks(self):
        cases = {
            "visibility=secret": "visibility must be open or protected",
            "randomized=maybe": "randomized must be on or off",
            "q=high": "q is not a number",
            "q=1.5": "q must be between 0 and 1",
            "partition=never": "partition must be auto or manual",
            "shape=star": "unknown namespace option 'shape'",
        }
        for option, reason in cases.items():
            _, errors = parse_scenario(f"at 0 namespace u v n ssm {option}\n")
            assert reasons(errors) == [reason], option

    def test_join_role_and_app_checks(self):
        _, errors = parse_scenario("at 0 join h v n c listener 1\n")
        assert "role must be one of" in errors[0].reason
        _, errors = parse_scenario("at 0 join h v n c producer one\n")
        assert reasons(errors) == ["app id must be a non-negative integer"]
        _, errors = parse_scenario("at 0 join h v n c producer 1 ttl=soon\n")
        assert reasons(errors) == ["join option must be ttl=<ticks>"]

    def test_fault_shapes(self):
        _, errors = parse_scenario("at 0 fault link-down e1\n")
        assert reasons(errors) == ["fault link-down needs two node names"]
        _, errors = parse_scenario("at 0 fault crash a b\n")
        assert reasons(errors) == ["fault crash needs one name"]
        _, errors = parse_scenario("at 0 fault meteor x\n")
        assert reasons(errors) == ["unknown fault 'meteor'"]

    def test_config_arity(self):
        _, errors = parse_scenario("config until\n")
        assert reasons(errors) == ["config takes <key> <value>"]

    def test_arguments_arrive_typed(self):
        spec, errors = parse_scenario(GOOD_SCEN + """\
at 16 namespace alice vale open2 msac randomized=on partition=manual
at 17 visibility alice vale chat open
""")
        assert errors == []
        args = {c.line: c.args for c in spec.commands}
        assert args[6] == ("alice", "vale", "chat", ServiceModel.SSM,
                            Visibility.PROTECTED, AnycastMode(False, 0.5),
                            True)
        assert args[21] == ("alice", "vale", "open2", ServiceModel.MSAC,
                            Visibility.OPEN, AnycastMode(True, 1.0), False)
        assert args[8] == ("h1", "vale", "chat", "room", "producer", 1, 30)
        assert args[9] == ("h2", "vale", "chat", "room", "consumer", 1, None)
        assert args[11] == ("h2", "vale", "room", 1)
        assert args[13] == ("h1", "vale", "chat", "room", "producer", 1)
        assert args[22] == ("alice", "vale", "chat", Visibility.OPEN)
        assert args[14] == ("link-down", "e1", "c1")

    def test_numbers_the_run_cannot_carry_are_rejected(self):
        # the join request carries the ttl in 32 bits; int() rejects a
        # superscript digit, which str.isdigit accepts
        _, errors = parse_scenario(
            "at 0 join h v n c producer 1 ttl=4294967295\n"
            "at 0 join h v n c producer 1 ttl=4294967296\n"
            "at 0 lock h v c \u00b2\n"
            "at 0 join h v n c producer 1 ttl=\u00b2\n")
        assert [(e.line, e.reason) for e in errors] == [
            (2, "ttl must be at most 4294967295"),
            (3, "app id must be a non-negative integer"),
            (4, "join option must be ttl=<ticks>")]


class TestCrossCheck:
    def topo(self, text=GOOD_TOPO):
        spec, errors = parse_topology(text)
        assert errors == []
        return spec

    def scen(self, text=GOOD_SCEN):
        spec, errors = parse_scenario(text)
        assert errors == []
        return spec

    def test_clean_pair(self):
        assert cross_check(self.topo(), self.scen()) == []

    def test_node_in_unknown_domain(self):
        topo = self.topo("domain d\nnode n edge elsewhere\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert reasons(errors) == ["node 'n' in unknown domain 'elsewhere'"]

    def test_link_endpoint_missing(self):
        topo = self.topo("domain d\nnode n edge d\nlink n ghost 1\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert reasons(errors) == [
            "link endpoint 'ghost' is not an infrastructure node"]

    def test_group_member_outside_domain(self):
        topo = self.topo("domain d1\ndomain d2\nnode a edge d1\n"
                         "node b edge d2\nmcastgroup d1 a b\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert reasons(errors) == ["mcastgroup member 'b' is outside 'd1'"]

    def test_group_in_unknown_domain(self):
        topo = self.topo("domain d\nnode a edge d\nnode b edge d\n"
                         "mcastgroup elsewhere a b\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert [(e.path, e.line, e.reason) for e in errors] == [
            ("<topology>", 0, "mcastgroup in unknown domain 'elsewhere'"),
            ("<topology>", 0, "mcastgroup member 'a' is outside 'elsewhere'"),
            ("<topology>", 0, "mcastgroup member 'b' is outside 'elsewhere'")]

    def test_group_member_not_a_node(self):
        topo = self.topo("domain d\nnode a edge d\nhost h u\n"
                         "mcastgroup d a ghost h\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert [(e.path, e.line, e.reason) for e in errors] == [
            ("<topology>", 0, "mcastgroup member 'ghost' is not a node"),
            ("<topology>", 0, "mcastgroup member 'h' is not a node")]

    def test_host_prefers_unknown_domain(self):
        topo = self.topo("domain d\nnode e edge d\n"
                         "host h u domain=elsewhere\n")
        errors = cross_check(topo, self.scen("at 0 report\n"), "w.topo")
        assert [(e.path, e.line, e.reason) for e in errors] == [
            ("w.topo", 0, "host 'h' prefers unknown domain 'elsewhere'")]

    def test_hosts_but_no_edges(self):
        topo = self.topo("domain d\nhost h u\n")
        errors = cross_check(topo, self.scen("at 0 report\n"))
        assert reasons(errors) == ["hosts but no edge nodes"]

    def test_command_host_must_exist(self):
        errors = cross_check(
            self.topo(), self.scen("at 0 send ghost v c 1 hi\n"))
        assert reasons(errors) == ["unknown host 'ghost'"]

    def test_link_fault_must_name_existing_link(self):
        errors = cross_check(
            self.topo(), self.scen("at 0 fault link-down e1 e2\n"))
        assert reasons(errors) == ["no link between 'e1' and 'e2'"]

    def test_crash_fault_must_name_infra_node(self):
        errors = cross_check(
            self.topo(), self.scen("at 0 fault crash h1\n"))
        assert reasons(errors) == ["unknown node 'h1'"]


class TestLoadWorld:
    def test_clean(self):
        topo, scen, errors = load_world(GOOD_TOPO, GOOD_SCEN)
        assert errors == []
        assert topo.host("h2") is not None
        assert scen.commands

    def test_cross_check_suppressed_while_parses_fail(self):
        # a broken line plus a dangling reference: only the parse error shows,
        # cross-references are meaningless until the files parse
        topo_text = "domain d\nnode n hub d\n"
        scen_text = "at 0 send ghost v c 1 hi\n"
        _, _, errors = load_world(topo_text, scen_text)
        assert reasons(errors) == ["node role must be edge or connector, "
                                   "got 'hub'"]

    def test_an_app_joins_a_community_name_in_one_namespace(self):
        # h1's app 1 joins draw in red and then in blue of v, as consumer
        # and as producer: send, lock and unlock could not tell the two
        # apart. A second join in red, another app or host in blue, and the
        # same app in another valley are all fine
        scen_text = ("at 0 join h1 v red draw consumer 1\n"
                     "at 1 join h1 v red draw consumer 1\n"
                     "at 2 join h1 v blue draw consumer 1\n"
                     "at 3 join h1 v blue draw consumer 2\n"
                     "at 4 join h2 v blue draw consumer 1\n"
                     "at 5 join h1 v blue draw producer 1\n"
                     "at 6 join h1 w blue draw consumer 1\n")
        _, _, errors = load_world(GOOD_TOPO, scen_text, scen_path="b.scen")
        reason = ("app 1 of 'h1' joined 'draw' in namespace 'red' of 'v' at "
                  "line 1; send, lock and unlock could not tell the two apart")
        assert [str(e) for e in errors] == [f"b.scen:3: {reason}",
                                            f"b.scen:6: {reason}"]

    def test_paths_flow_into_diagnostics(self):
        _, _, errors = load_world("domain d\ndomain d\n", "at -1 report\n",
                                  topo_path="a.topo", scen_path="b.scen")
        assert [str(e) for e in errors] == [
            "a.topo:2: duplicate domain 'd'",
            "b.scen:1: tick must be non-negative",
        ]
