"""World description files: topology and scenario parsing plus cross-checks.

Both formats are line oriented. Blank lines and `#` comments are skipped,
tokens split on any whitespace. Parsers collect one diagnostic per bad line
instead of stopping, so a validate run reports everything at once.

Topology lines:

    domain <name>
    node <name> edge|connector <domain> [<key>=<finite number> ...]
    link <a> <b> <latency>        (at most 255 links per node)
    mcastgroup <domain> <node> <node> [<node> ...]
    host <name> <user> [domain=<name>] [max_latency=<ticks>]

Scenario lines:

    config <key> <value>
    at <tick> <command> [args ...]

Config keys take integers (default, least value): until (200), rpc_latency
(1, 0), host_link_latency (1, 0), twin_period (5, 1), twin_miss_threshold
(3), twin_ttl (50), twin_buffer_max (unbounded, 0).

Commands:

    valley <user> <name>
    namespace <user> <valley> <name> <model> [visibility=open|protected]
              [randomized=on|off] [q=<0..1>] [partition=auto|manual]
    community <user> <valley> <namespace> <name>
    member <admin> <valley> <user>
    grant <admin> <valley> <namespace> <user>
    visibility <admin> <valley> <namespace> open|protected
    join <host> <valley> <namespace> <community> <role> <app> [ttl=<ticks>]
    withdraw <host> <valley> <namespace> <community> <role> <app>
    send <host> <valley> <community> <app> <payload ...>
    lock <host> <valley> <community> <app>
    unlock <host> <valley> <community> <app>
    fault link-down|link-up <a> <b>
    fault host-down|host-up <host>
    fault crash <node>
    partition-now <valley> <namespace> <community>
    report

A join's ttl is at most 4294967295, the join request's 32-bit field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

from .codec import MAX_FANOUT
from .errors import ScenarioError
from .model import Visibility
from .services import AnycastMode, ServiceModel

__all__ = [
    "NodeSpec", "LinkSpec", "GroupSpec", "HostSpec", "TopologySpec",
    "CommandSpec", "ScenarioSpec", "SimConfig",
    "parse_topology", "parse_scenario", "cross_check", "load_world",
]

MODEL_NAMES = {m.value.lower(): m for m in ServiceModel}
ROLES = ("producer", "consumer", "member")
_TTL_MAX = 0xFFFFFFFF


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: str              # "edge" | "connector"
    domain: str
    stats: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency: int


@dataclass(frozen=True)
class GroupSpec:
    domain: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class HostSpec:
    name: str
    user: str
    domain: Optional[str] = None
    max_latency: Optional[int] = None


@dataclass
class TopologySpec:
    domains: list[str] = field(default_factory=list)
    nodes: list[NodeSpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    groups: list[GroupSpec] = field(default_factory=list)
    hosts: list[HostSpec] = field(default_factory=list)

    def node(self, name: str) -> Optional[NodeSpec]:
        for n in self.nodes:
            if n.name == name:
                return n
        return None

    def host(self, name: str) -> Optional[HostSpec]:
        for h in self.hosts:
            if h.name == name:
                return h
        return None


class CommandSpec(NamedTuple):
    """One `at` line. Names stay strings in their written positions; app
    ids, a join's ttl (None if absent), a send's payload and every option
    value arrive converted, namespace options with their defaults. A named
    tuple: one is built per line, at half a frozen dataclass's cost."""
    tick: int
    line: int
    verb: str
    args: tuple


@dataclass
class ScenarioSpec:
    config: dict[str, int] = field(default_factory=dict)
    commands: list[CommandSpec] = field(default_factory=list)


@dataclass
class SimConfig:
    """The seed and every key a `config` line may set, with its least value:
    a latency below 0 schedules events in the past, a twin period below 1
    reschedules the sweep at the same tick forever."""
    seed: int = 0
    until: int = 200
    rpc_latency: int = field(default=1, metadata={"least": 0})
    host_link_latency: int = field(default=1, metadata={"least": 0})
    twin_period: int = field(default=5, metadata={"least": 1})
    twin_miss_threshold: int = 3
    twin_ttl: int = 50
    twin_buffer_max: Optional[int] = field(default=None, metadata={"least": 0})

    @classmethod
    def from_scenario(cls, scen: ScenarioSpec, seed: int) -> "SimConfig":
        return cls(seed=seed, **scen.config)


_CONFIG_LEAST = {f.name: f.metadata.get("least")
                 for f in fields(SimConfig) if f.name != "seed"}


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _kv(token: str) -> Optional[tuple[str, str]]:
    if "=" not in token:
        return None
    k, v = token.split("=", 1)
    return (k, v) if k and v else None


class _Rejected(Exception):
    """A world-file line that fails its check; the message is the reason."""


def parse_topology(text: str, path: str = "<topology>"):
    spec = TopologySpec()
    errors: list[ScenarioError] = []
    names: set[str] = set()
    linked: set[frozenset[str]] = set()
    degree: dict[str, int] = {}     # node name -> links naming it
    for line_no, tok in _lines(text):
        kind, rest = tok[0], tok[1:]
        try:
            if kind == "domain":
                spec.domains.append(_domain(rest, spec.domains))
            elif kind == "node":
                node = _node(rest, names)
                names.add(node.name)
                spec.nodes.append(node)
            elif kind == "link":
                link = _link(rest, linked, degree)
                linked.add(frozenset((link.a, link.b)))
                for end in (link.a, link.b):
                    degree[end] = degree.get(end, 0) + 1
                spec.links.append(link)
            elif kind == "mcastgroup":
                spec.groups.append(_group(rest))
            elif kind == "host":
                host = _host(rest, names)
                names.add(host.name)
                spec.hosts.append(host)
            else:
                raise _Rejected(f"unknown directive {kind!r}")
        except _Rejected as exc:
            errors.append(ScenarioError(path, line_no, str(exc)))
    return spec, errors


def _domain(rest: list[str], domains: list[str]) -> str:
    if len(rest) != 1:
        raise _Rejected("domain takes exactly one name")
    if rest[0] in domains:
        raise _Rejected(f"duplicate domain {rest[0]!r}")
    return rest[0]


def _node(rest: list[str], names: set[str]) -> NodeSpec:
    if len(rest) < 3:
        raise _Rejected("node needs <name> <role> <domain>")
    name, role, domain = rest[:3]
    if role not in ("edge", "connector"):
        raise _Rejected(f"node role must be edge or connector, got {role!r}")
    if name in names:
        raise _Rejected(f"duplicate node name {name!r}")
    return NodeSpec(name, role, domain, tuple(_stat(t) for t in rest[3:]))


def _stat(token: str) -> tuple[str, float]:
    kv = _kv(token)
    if kv is None:
        raise _Rejected(f"expected key=value stat, got {token!r}")
    try:
        value = float(kv[1])
    except ValueError:
        raise _Rejected(f"stat {kv[0]!r} is not a number") from None
    if not math.isfinite(value):
        # placement compares stats; nan has no order
        raise _Rejected(f"stat {kv[0]!r} is not finite")
    return kv[0], value


def _link(rest: list[str], linked: set[frozenset[str]],
          degree: dict[str, int]) -> LinkSpec:
    if len(rest) != 3:
        raise _Rejected("link needs <a> <b> <latency>")
    a, b, raw = rest
    try:
        latency = int(raw)
    except ValueError:
        raise _Rejected(f"latency {raw!r} is not an integer") from None
    if latency < 1:
        raise _Rejected("latency must be at least 1")
    if a == b:
        raise _Rejected("link endpoints must differ")
    if frozenset((a, b)) in linked:
        raise _Rejected(f"duplicate link {a!r} {b!r}")
    for end in (a, b):
        # a delivery tree may take every link of a node as its children,
        # and the wire holds a node's child count in one byte
        if degree.get(end, 0) >= MAX_FANOUT:
            raise _Rejected(f"node {end!r} has more than {MAX_FANOUT} links: "
                            f"a path-tree node holds at most {MAX_FANOUT} "
                            f"children")
    return LinkSpec(a, b, latency)


def _group(rest: list[str]) -> GroupSpec:
    if len(rest) < 3:
        raise _Rejected("mcastgroup needs <domain> and at least two nodes")
    members = rest[1:]
    if len(set(members)) != len(members):
        raise _Rejected("mcastgroup members must be distinct")
    return GroupSpec(rest[0], tuple(members))


def _host(rest: list[str], names: set[str]) -> HostSpec:
    if len(rest) < 2:
        raise _Rejected("host needs <name> <user>")
    name, user = rest[:2]
    if name in names:
        raise _Rejected(f"duplicate node name {name!r}")
    domain = max_latency = None
    for extra in rest[2:]:
        kv = _kv(extra)
        if kv is None:
            raise _Rejected(f"expected key=value, got {extra!r}")
        key, value = kv
        if key == "domain":
            domain = value
        elif key == "max_latency":
            try:
                max_latency = int(value)
            except ValueError:
                raise _Rejected("max_latency is not an integer") from None
        else:
            raise _Rejected(f"unknown host option {key!r}")
    return HostSpec(name, user, domain, max_latency)


_COMMAND_ARITY = {
    # verb: (min args, max args or None for open-ended)
    "valley": (2, 2),
    "namespace": (4, 8),
    "community": (4, 4),
    "member": (3, 3),
    "grant": (4, 4),
    "visibility": (4, 4),
    "join": (6, 7),
    "withdraw": (6, 6),
    "send": (5, None),
    "lock": (4, 4),
    "unlock": (4, 4),
    "fault": (2, 3),
    "partition-now": (3, 3),
    "report": (0, 0),
}


def parse_scenario(text: str, path: str = "<scenario>"):
    spec = ScenarioSpec()
    errors: list[ScenarioError] = []
    for line_no, tok in _lines(text):
        kind, rest = tok[0], tok[1:]
        try:
            if kind == "at":
                spec.commands.append(_command(line_no, rest))
            elif kind == "config":
                key, value = _config_entry(rest)
                spec.config[key] = value
            else:
                raise _Rejected(f"unknown directive {kind!r}")
        except _Rejected as exc:
            errors.append(ScenarioError(path, line_no, str(exc)))
    return spec, errors


def _config_entry(rest: list[str]) -> tuple[str, int]:
    if len(rest) != 2:
        raise _Rejected("config takes <key> <value>")
    key, raw = rest
    if key not in _CONFIG_LEAST:
        raise _Rejected(f"unknown config key {key!r}")
    try:
        value = int(raw)
    except ValueError:
        raise _Rejected(f"config {key}: bad value {raw!r}") from None
    least = _CONFIG_LEAST[key]
    if least is not None and value < least:
        raise _Rejected(f"config {key}: must be at least {least}, got {value}")
    return key, value


def _command(line_no: int, rest: list[str]) -> CommandSpec:
    if len(rest) < 2:
        raise _Rejected("at needs <tick> <command>")
    try:
        tick = int(rest[0])
    except ValueError:
        raise _Rejected(f"tick {rest[0]!r} is not an integer") from None
    if tick < 0:
        raise _Rejected("tick must be non-negative")
    verb, args = rest[1], tuple(rest[2:])
    arity = _COMMAND_ARITY.get(verb)
    if arity is None:
        raise _Rejected(f"unknown command {verb!r}")
    lo, hi = arity
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise _Rejected(f"wrong argument count for {verb!r}")
    return CommandSpec(tick, line_no, verb, _convert_args(verb, args))


def _app(token: str) -> int:
    # isdecimal, not isdigit: int() rejects digits such as superscripts
    if not token.isdecimal():
        raise _Rejected("app id must be a non-negative integer")
    return int(token)


_CHOICES = {"visibility": ("open", "protected"), "randomized": ("on", "off"),
            "partition": ("auto", "manual")}


def _choice(key: str, value: str) -> str:
    if value not in _CHOICES[key]:
        raise _Rejected(f"{key} must be {' or '.join(_CHOICES[key])}")
    return value


def _convert_args(verb: str, args: tuple[str, ...]) -> tuple:
    """Check the shape of one command's arguments and convert them; see
    `CommandSpec`. Cross-references need the topology."""
    if verb == "namespace":
        user, valley, name, model_name = args[:4]
        model = MODEL_NAMES.get(model_name.lower())
        if model is None:
            raise _Rejected(f"unknown service model {model_name!r}; pick one "
                            "of " + ", ".join(sorted(MODEL_NAMES)))
        opt = {"visibility": "open", "randomized": "off", "q": 1.0,
               "partition": "auto"}
        for extra in args[4:]:
            kv = _kv(extra)
            if kv is None:
                raise _Rejected(f"expected key=value option, got {extra!r}")
            key, value = kv
            if key in _CHOICES:
                opt[key] = _choice(key, value)
            elif key == "q":
                try:
                    opt[key] = float(value)
                except ValueError:
                    raise _Rejected("q is not a number") from None
                if not 0.0 <= opt[key] <= 1.0:
                    raise _Rejected("q must be between 0 and 1")
            else:
                raise _Rejected(f"unknown namespace option {key!r}")
        return (user, valley, name, model, Visibility(opt["visibility"]),
                AnycastMode(opt["randomized"] == "on", opt["q"]),
                opt["partition"] == "auto")
    if verb in ("join", "withdraw"):
        if args[4] not in ROLES:
            raise _Rejected(f"role must be one of {', '.join(ROLES)}")
        app = _app(args[5])
        if verb == "withdraw":
            return args[:5] + (app,)
        ttl = None
        if len(args) == 7:
            kv = _kv(args[6])
            if kv is None or kv[0] != "ttl" or not kv[1].isdecimal():
                raise _Rejected("join option must be ttl=<ticks>")
            ttl = int(kv[1])
            if ttl > _TTL_MAX:
                raise _Rejected(f"ttl must be at most {_TTL_MAX}")
        return args[:5] + (app, ttl)
    if verb == "send":
        return args[:3] + (_app(args[3]), " ".join(args[4:]).encode())
    if verb in ("lock", "unlock"):
        return args[:3] + (_app(args[3]),)
    if verb == "visibility":
        return args[:3] + (Visibility(_choice("visibility", args[3])),)
    if verb == "fault":
        mode = args[0]
        if mode in ("link-down", "link-up"):
            if len(args) != 3:
                raise _Rejected(f"fault {mode} needs two node names")
        elif mode in ("host-down", "host-up", "crash"):
            if len(args) != 2:
                raise _Rejected(f"fault {mode} needs one name")
        else:
            raise _Rejected(f"unknown fault {mode!r}")
    return args


def cross_check(topo: TopologySpec, scen: ScenarioSpec,
                topo_path: str = "<topology>",
                scen_path: str = "<scenario>") -> list[ScenarioError]:
    """Reference resolution across the pair of files."""
    errors: list[ScenarioError] = []
    domains = set(topo.domains)
    infra = {n.name: n for n in topo.nodes}
    hosts = {h.name for h in topo.hosts}
    links = {frozenset((l.a, l.b)) for l in topo.links}

    for n in topo.nodes:
        if n.domain not in domains:
            errors.append(ScenarioError(
                topo_path, 0, f"node {n.name!r} in unknown domain {n.domain!r}"))
    for l in topo.links:
        for end in (l.a, l.b):
            if end not in infra:
                errors.append(ScenarioError(
                    topo_path, 0,
                    f"link endpoint {end!r} is not an infrastructure node"))
    for g in topo.groups:
        if g.domain not in domains:
            errors.append(ScenarioError(
                topo_path, 0, f"mcastgroup in unknown domain {g.domain!r}"))
        for m in g.members:
            node = infra.get(m)
            if node is None:
                errors.append(ScenarioError(
                    topo_path, 0, f"mcastgroup member {m!r} is not a node"))
            elif node.domain != g.domain:
                errors.append(ScenarioError(
                    topo_path, 0,
                    f"mcastgroup member {m!r} is outside {g.domain!r}"))
    for h in topo.hosts:
        if h.domain is not None and h.domain not in domains:
            errors.append(ScenarioError(
                topo_path, 0, f"host {h.name!r} prefers unknown domain "
                              f"{h.domain!r}"))
    if not any(n.role == "edge" for n in topo.nodes) and topo.hosts:
        errors.append(ScenarioError(topo_path, 0, "hosts but no edge nodes"))

    for cmd in scen.commands:
        def cerr(reason):
            errors.append(ScenarioError(scen_path, cmd.line, reason))
        if cmd.verb in ("join", "withdraw", "send", "lock", "unlock"):
            if cmd.args[0] not in hosts:
                cerr(f"unknown host {cmd.args[0]!r}")
        elif cmd.verb == "fault":
            mode = cmd.args[0]
            if mode in ("link-down", "link-up"):
                a, b = cmd.args[1], cmd.args[2]
                for end in (a, b):
                    if end not in infra:
                        cerr(f"{end!r} is not an infrastructure node")
                if a in infra and b in infra \
                        and frozenset((a, b)) not in links:
                    cerr(f"no link between {a!r} and {b!r}")
            elif mode in ("host-down", "host-up"):
                if cmd.args[1] not in hosts:
                    cerr(f"unknown host {cmd.args[1]!r}")
            elif mode == "crash":
                if cmd.args[1] not in infra:
                    cerr(f"unknown node {cmd.args[1]!r}")
    return errors


def load_world(topo_text: str, scen_text: str, topo_path: str = "<topology>",
               scen_path: str = "<scenario>"):
    """Parse both files and resolve references; errors come back together."""
    topo, errs_t = parse_topology(topo_text, topo_path)
    scen, errs_s = parse_scenario(scen_text, scen_path)
    errors = errs_t + errs_s
    if not errors:
        errors += cross_check(topo, scen, topo_path, scen_path)
    return topo, scen, errors
