"""The host-speed reference: a fixed job in plain Python timed beside every
phase of every repetition.

The benchmark runs on shared hosts whose speed moves by up to 2x over
minutes, with the same code, as neighbours come and go. The job below never
changes and touches nothing of `yodel`, so its time tracks the host's speed
alone. `scale()` times it and returns the factor that turns host seconds
measured at that moment into seconds on the reference host, the one on
which the job takes `REFERENCE_S`.

The job does the two kinds of work the simulator does. A small
discrete-event loop runs on data that stays in cache: a heap of events,
slotted objects, dict counters keyed by tuples, and formatted trace lines
joined at the end. A walk around a ring of slotted objects, linked in a
shuffled order over a few megabytes, misses the cache the way the
simulator's object graph does. With the loop alone the job sped up more
than the simulator when the host did; with both, the two moved together.
The job's control flow uses no `str` hashes, so it does the same work in
every interpreter.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

__all__ = ["REFERENCE_S", "job", "scale"]

# Seconds the job takes on the reference host: a round figure within the
# range it took (0.011 to 0.027 s) on a shared 2-vCPU x86-64 VM under
# CPython 3.11.7.
REFERENCE_S = 0.018
EVENTS = 2000
RING = 50_000       # ring nodes, about 9 MB of objects
STEPS = 30_000      # ring steps per job
SAMPLES = 2


class _Event:
    __slots__ = ("tick", "node", "body")

    def __init__(self, tick: int, node: int, body: tuple[int, int]):
        self.tick = tick
        self.node = node
        self.body = body


class _Link:
    __slots__ = ("next", "value", "name")


def _ring(size: int) -> list[_Link]:
    links = [_Link() for _ in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for i, link in enumerate(links):
        link.next = links[order[i]]
        link.value = i
        link.name = f"n{i}"
    return links


_LINKS: list[_Link] = []


def _loop(events: int) -> int:
    heap: list[tuple[int, int, _Event]] = []
    table: dict[tuple[int, int], int] = {}
    lines: list[str] = []
    seq = 0
    for i in range(64):
        seq += 1
        heapq.heappush(heap, (i % 7, seq, _Event(i % 7, i % 40, (i, 3 * i))))
    for done in range(events):
        tick, _, ev = heapq.heappop(heap)
        key = (ev.node, ev.body[0] % 13)
        count = table[key] = table.get(key, 0) + 1
        lines.append(f"t={tick} n=n{ev.node} k={key[1]} c={count}")
        for j in (1, 2):
            seq += 1
            node = (ev.node * 7 + j + done) % 40
            heapq.heappush(heap, (tick + j, seq,
                                  _Event(tick + j, node, (done, j))))
    return len("\n".join(lines))


def _walk(steps: int) -> int:
    if not _LINKS:
        _LINKS.extend(_ring(RING))
    link, total, seen = _LINKS[0], 0, {}
    for i in range(steps):
        link = link.next
        total += link.value
        if i % 7 == 0:
            seen[link.value] = link.name
    return total + len(seen)


def job() -> int:
    """Run the fixed job once; returns a checksum of its work."""
    return _loop(EVENTS) + _walk(STEPS)


def scale() -> float:
    """REFERENCE_S over the job's time now, the fastest of SAMPLES runs."""
    best = float("inf")
    for _ in range(SAMPLES):
        t0 = perf_counter()
        job()
        best = min(best, perf_counter() - t0)
    return REFERENCE_S / best
