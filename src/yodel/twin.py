"""Host resiliency: per-edge twin records that stand in for silent hosts.

Each edge owns one twin table, and each host attached to it gets a twin
record: a miss count, a lifetime, a buffer and a stand-in name minted by the
edge for the trace. The simulator sweeps every edge's table each
`twin_period` ticks; a sweep sends one batched keepalive to every reachable
host and counts the unreachable ones as missed, and a reply resets the count
and renews the lifetime. A sweep traces a TWIN_SYNC line only when its
(queried, missed) pair differs from the table's last line.

A table is quiet after a sweep that reached every host and found no
stand-in active. Its next sweep settles in closed form, with no events, the
rounds up to the first one that a scenario fault naming the edge or one of
its hosts could reach, or whose replies would land past the run's horizon,
and the table sleeps until that round. Anything that could change a sweep's
outcome wakes it first (`wake`): a new record, a hello, an expiry or a fault.
Only then are the rounds it slept through counted, those whose sweep tick
has passed, on the access lines and in the lifetimes, as their replies would
have; the run counts the rest at its end. The counts, the lifetimes and the
trace are those of every round sent.

After `twin_miss_threshold` consecutive missed sweeps the record
goes active. The stand-in keeps the host's own id in the edge's tables:
where the edge hands out a copy it asks `is_active(host)` and buffers
instead of sending, keeping at most `twin_buffer_max` messages, so a
consumer admitted during the outage is covered too. When the host announces
its return, refreshed registration state goes out, the buffer flushes in
arrival order, and only then is the host allowed to send again. Records
that stay active past their lifetime (`twin_ttl` ticks without contact) are
purged along with the host's registrations. The table reads these settings
from the scenario config its edge's environment holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .codec import YodelMessage
from .ynid import Yni, generate_yni

__all__ = ["TwinRecord", "TwinManager"]

# a data copy's metadata read, (serial, q), as `dataplane` passes it on
_Meta = tuple[int, Optional[int]]


@dataclass
class TwinRecord:
    host: Yni
    alphorn: Yni             # stand-in name minted by the edge, traced only
    expire_at: int
    missed: int = 0
    active: bool = False
    buffer: list[tuple[YodelMessage, _Meta]] = field(default_factory=list)


class TwinManager:
    """Twin table for one edge node.

    The edge owns the wire and its tables, which always name the real host;
    this class owns the records, keyed by that host id, and reads none of
    the edge's tables: it drives the edge through its failover, resync and
    purge hooks, and asks it how many consumer rows a host holds for the
    TWIN_SWAP line. It asks the edge's environment
    whether a host's link is usable (`host_attached`), for trace-friendly
    node names (`label_of`) and for the twin settings (`config`).
    """

    def __init__(self, edge):
        self.edge = edge
        self.env = edge.env
        self.records: dict[Yni, TwinRecord] = {}
        # set by a sweep that queried every record and found none active;
        # cleared by `wake`, before anything that could change the next
        # sweep's outcome
        self.quiet = False
        # sweep ticks of the rounds settled in closed form and not counted
        # yet; the environment sweeps the table again at `settled.stop`
        self.settled = range(0)
        # (queried, missed) of the last TWIN_SYNC line
        self.synced: Optional[tuple[int, int]] = None

    # -- queries ---------------------------------------------------------------

    def is_active(self, host: Yni) -> bool:
        rec = self.records.get(host)
        return rec is not None and rec.active

    def active_hosts(self) -> set[Yni]:
        return {r.host for r in self.records.values() if r.active}

    # -- lifecycle -------------------------------------------------------------

    def host_connected(self, host: Yni) -> None:
        if host in self.records:
            return
        self.wake()
        env = self.env
        alphorn = generate_yni(env.rng(f"{self.edge.label}:twin"), env.now())
        rec = TwinRecord(host, alphorn, env.now() + env.config.twin_ttl)
        self.records[host] = rec
        self.edge.emit("TWIN_CREATE", ("host", env.label_of(host)),
                       ("alphorn", str(alphorn)))

    def sweep(self) -> None:
        """One sync round: count the silent hosts, activate at the miss
        threshold, purge overdue active records, then send one batched
        keepalive to the reachable hosts.

        A quiet table first counts the rounds it slept through, then asks
        the environment which rounds from now on it can vouch will be
        answered (`settle_sync`). When that includes this one, the table
        settles them with no events and sleeps until the first round that
        is left out. Nothing is traced: the pair of a settled sweep is the
        one the quiet sweep traced, or empty. Miss counts stay as they are;
        the round of the quiet sweep resets them, since nothing touched its
        wires either."""
        env = self.env
        if self.quiet:
            self.count_settled()
            settled = env.settle_sync(self.edge)
            if settled:
                self.settled = settled
                self.count_settled()
                return
        now = env.now()
        threshold = env.config.twin_miss_threshold
        hosts: list[Yni] = []
        missed = 0
        for host, rec in sorted(self.records.items()):
            if env.host_attached(self.edge, host):
                hosts.append(host)
            else:
                missed += 1
                rec.missed += 1
                if not rec.active and rec.missed >= threshold:
                    self._activate(rec)
            if rec.active and rec.expire_at < now:
                self._expire(rec)
        synced = (len(hosts), missed)
        if synced != self.synced and (hosts or missed):
            self.synced = synced
            self.edge.emit("TWIN_SYNC", ("queried", len(hosts)),
                           ("missed", missed))
        if hosts:
            env.sync_hosts(self.edge, hosts)
        # every record queried and still held, none standing in
        self.quiet = (not missed and len(hosts) == len(self.records)
                      and not any(r.active for r in self.records.values()))

    def count_settled(self) -> None:
        """Count the settled rounds whose sweep tick has passed as their
        replies would: one copy each way on every access line
        (`count_sync`), and every lifetime renewed from the tick the last
        of them lands."""
        settled = self.settled
        passed = self.env.count_sync(self.edge, self.records, settled)
        if passed:
            cfg = self.env.config
            expire_at = (settled[passed - 1] + 2 * cfg.host_link_latency
                         + cfg.twin_ttl)
            for rec in self.records.values():
                rec.expire_at = max(rec.expire_at, expire_at)
            # a horizon is a round tick, so the slice keeps it as its stop
            self.settled = settled[passed:]

    def wake(self) -> None:
        """Something may change the next sweep's outcome: count the settled
        rounds that have passed, drop the rest, and sweep from the next
        period on."""
        self.count_settled()
        self.settled = range(0)
        self.quiet = False

    def on_sync_reply(self, host: Yni) -> None:
        rec = self.records.get(host)
        if rec is None:
            return
        self._renew(rec)

    def _renew(self, rec: TwinRecord) -> None:
        """Contact now: the miss count resets and the lifetime runs from
        now. A lifetime only moves forward, because a round settled in
        closed form renews from the tick its replies land, ahead of the
        replies of an earlier round still on the wire."""
        rec.missed = 0
        rec.expire_at = max(rec.expire_at,
                            self.env.now() + self.env.config.twin_ttl)

    # -- activation ------------------------------------------------------------

    def _activate(self, rec: TwinRecord) -> None:
        rec.active = True
        self.edge.emit("TWIN_ACTIVE", ("host", self.env.label_of(rec.host)),
                       ("alphorn", str(rec.alphorn)))
        self._trace_swap(rec.host, "in")
        self.edge.fail_over_host(rec.host)

    def buffer_message(self, host: Yni, msg: YodelMessage,
                       meta: _Meta) -> None:
        rec = self.records[host]
        rec.buffer.append((msg, meta))
        buffer_max = self.env.config.twin_buffer_max
        if buffer_max is not None and len(rec.buffer) > buffer_max:
            rec.buffer.pop(0)
            self.env.metrics.buffer_dropped += 1
        self.env.metrics.buffered(self.env.label_of(host), len(rec.buffer))

    def _trace_swap(self, host: Yni, direction: str) -> None:
        """One TWIN_SWAP line per turn of the stand-in, counting the
        consumer rows it covers; none when it covers no row."""
        rows = self.edge.consumer_rows_of(host)
        if rows:
            self.edge.emit("TWIN_SWAP", ("host", self.env.label_of(host)),
                           ("dir", direction), ("rows", rows))

    # -- return path -----------------------------------------------------------

    def rekey_buffered(self, valley_id: int, old_channel: int,
                       new_channel: int) -> None:
        """A community changed channel while a host was away; buffered
        messages must carry the id the corrected host will know. A buffered
        message may be shared with other buffers and with copies already
        sent, so each slot gets a rekeyed copy, with the same metadata
        read, and the message stays as it is."""
        for rec in self.records.values():
            for i, (msg, meta) in enumerate(rec.buffer):
                f = msg.floating
                if f.valley_id == valley_id and f.channel_id == old_channel:
                    rec.buffer[i] = replace(
                        msg, floating=replace(f, channel_id=new_channel)), meta

    def on_hello(self, host: Yni) -> None:
        rec = self.records.get(host)
        if rec is None:
            # post-expiry (or first) contact: a fresh record with nothing to
            # replay; registration has to be rebuilt through new joins
            self.host_connected(host)
            self.edge.resync_host(host)
            self.edge.send_hello_ack(host)
            return
        self.wake()
        was_active = rec.active
        if was_active:
            self._trace_swap(host, "out")
            rec.active = False
        self._renew(rec)
        # corrections first so lock and channel state is right when the
        # replayed traffic lands, then the buffer in arrival order, then the
        # ack that reopens the host's own sending
        self.edge.resync_host(host)
        flushed, rec.buffer = rec.buffer, []
        for msg, meta in flushed:
            self.env.transmit(self.edge, [(host, msg, None)], meta=meta)
        if was_active:
            self.edge.emit("TWIN_FLUSH", ("host", self.env.label_of(host)),
                           ("count", len(flushed)))
        self.edge.send_hello_ack(host)

    # -- expiry ----------------------------------------------------------------

    def _expire(self, rec: TwinRecord) -> None:
        self.wake()
        self.edge.emit("TWIN_EXPIRE", ("host", self.env.label_of(rec.host)),
                       ("dropped", len(rec.buffer)))
        del self.records[rec.host]
        self.edge.purge_host(rec.host)
