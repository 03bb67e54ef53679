"""Correctness checks on one run's outputs.

An op is one (send, consumer registered at the send tick) pair from the
generator's membership record. The trace maps each scheduled send to the
serial the simulator gave it (the producer's `ev=SEND k=data` line) and each
`ev=DELIVER` line to a (serial, host, app) delivery. An op fails when it is
missing at the horizon or delivered more than once; a delivery to a host or
app that was not registered, or of a serial no scheduled send produced, is a
failure too. Run-level checks (per-link conservation, no protocol errors)
fail every op of the run.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["RunCheck", "check_run"]


@dataclass
class RunCheck:
    trace_sha256: str
    report_sha256: str
    delivered: int                  # ops delivered exactly once
    failed: set = field(default_factory=set)  # failed op keys
    problems: list[str] = field(default_factory=list)  # run-level failures


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split(" "))


def check_run(world, trace_text: str, report_text: str, metrics) -> RunCheck:
    result = RunCheck(hashlib.sha256(trace_text.encode()).hexdigest(),
                      hashlib.sha256(report_text.encode()).hexdigest(), 0)
    serials: dict[tuple[str, str, str], str] = {}
    delivered: Counter = Counter()
    for line in trace_text.splitlines():
        if " ev=DELIVER " in line:
            f = _fields(line)
            delivered[(f["serial"], f["n"], f["app"])] += 1
        elif " ev=SEND k=data " in line:
            f = _fields(line)
            serials[(f["t"], f["n"], f["community"])] = f["serial"]
    expected = set()
    for i, send in enumerate(world.sends):
        serial = serials.get((str(send.tick), send.host, send.community))
        for host, app in send.consumers:
            op = (i, host, app)
            if serial is None:
                result.failed.add(op)
                continue
            key = (serial, host, str(app))
            expected.add(key)
            if delivered[key] == 1:
                result.delivered += 1
            else:
                result.failed.add(op)
    for key in delivered.keys() - expected:
        result.failed.add(("unexpected",) + key)
    if not metrics.conservation.get("ok"):
        result.problems.append("per-link conservation does not hold")
    if metrics.proto_errors:
        result.problems.append(f"{metrics.proto_errors} protocol errors")
    return result
