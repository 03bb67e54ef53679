"""Host resiliency: per-edge twin records that stand in for silent hosts.

Each attached host gets a twin record: a miss count, a lifetime, a buffer and
a stand-in identity minted by the edge. A periodic sweep sends one batched
keepalive to every reachable host and counts the unreachable ones as missed;
a reply resets the count and renews the lifetime. After enough consecutive
missed sweeps the record goes active, the edge swaps the stand-in into its
consumer tables and buffers traffic. When the host announces its return the
swap reverses, refreshed registration state goes out, the buffer flushes in
arrival order, and only then is the host allowed to send again. Records that
stay active past their lifetime are purged along with the host's
registrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .codec import YodelMessage
from .ynid import Yni, generate_yni

__all__ = ["TwinConfig", "TwinRecord", "TwinManager"]


@dataclass
class TwinConfig:
    period: int = 5          # ticks between sync sweeps
    miss_threshold: int = 3  # consecutive missed sweeps before activation
    ttl: int = 50            # active-record lifetime without host contact
    buffer_max: Optional[int] = None  # None = unbounded


@dataclass
class TwinRecord:
    host: Yni
    alphorn: Yni             # stand-in identity minted by the edge
    expire_at: int
    missed: int = 0
    active: bool = False
    buffer: list[YodelMessage] = field(default_factory=list)


class TwinManager:
    """Twin table for one edge node.

    The edge owns the wire; this class owns the records and drives the edge
    through its swap/failover/resync hooks. `attached` reports whether a host
    link is currently usable, `label_for` renders trace-friendly node names.
    """

    def __init__(self, edge, config: TwinConfig,
                 attached: Callable[[Yni], bool],
                 label_for: Callable[[Yni], str]):
        self.edge = edge
        self.config = config
        self.attached = attached
        self.label_for = label_for
        self.records: dict[Yni, TwinRecord] = {}
        self._by_alphorn: dict[Yni, TwinRecord] = {}

    # -- queries ---------------------------------------------------------------

    def is_active_alphorn(self, yni: Yni) -> bool:
        rec = self._by_alphorn.get(yni)
        return rec is not None and rec.active

    def active_hosts(self) -> set[Yni]:
        return {r.host for r in self.records.values() if r.active}

    # -- lifecycle -------------------------------------------------------------

    def host_connected(self, host: Yni) -> None:
        if host in self.records:
            return
        env = self.edge.env
        alphorn = generate_yni(env.rng(f"{self.edge.label}:twin"), env.now())
        rec = TwinRecord(host, alphorn, env.now() + self.config.ttl)
        self.records[host] = rec
        self._by_alphorn[alphorn] = rec
        self.edge.emit("TWIN_CREATE", ("host", self.label_for(host)),
                       ("alphorn", str(alphorn)))

    def sweep(self) -> None:
        """One sync round: count the silent hosts, activate at the miss
        threshold, purge overdue active records, then send one batched
        keepalive to the reachable hosts."""
        env = self.edge.env
        now = env.now()
        hosts: list[Yni] = []
        missed = 0
        for host in sorted(self.records):
            rec = self.records.get(host)
            if rec is None:
                continue
            if self.attached(host):
                hosts.append(host)
            else:
                missed += 1
                rec.missed += 1
                if not rec.active and rec.missed >= self.config.miss_threshold:
                    self._activate(rec)
            if rec.active and rec.expire_at < now:
                self._expire(rec)
        if hosts or missed:
            self.edge.emit("TWIN_SYNC", ("queried", len(hosts)),
                           ("missed", missed))
        if hosts:
            env.sync_hosts(self.edge, hosts)

    def on_sync_reply(self, host: Yni) -> None:
        rec = self.records.get(host)
        if rec is None:
            return
        rec.missed = 0
        rec.expire_at = self.edge.env.now() + self.config.ttl

    # -- activation ------------------------------------------------------------

    def _activate(self, rec: TwinRecord) -> None:
        rec.active = True
        self.edge.emit("TWIN_ACTIVE", ("host", self.label_for(rec.host)),
                       ("alphorn", str(rec.alphorn)))
        swapped = self.edge.swap_host_entries(rec.host, rec.alphorn)
        if swapped:
            self.edge.emit("TWIN_SWAP", ("host", self.label_for(rec.host)),
                           ("dir", "in"), ("rows", len(swapped)))
        for valley_id, row in self.edge.producer_rows_for_host(rec.host):
            self.edge.fail_over_producer(valley_id, row, rec.host)

    def buffer_message(self, alphorn: Yni, msg: YodelMessage) -> None:
        rec = self._by_alphorn[alphorn]
        rec.buffer.append(msg)
        if self.config.buffer_max is not None \
                and len(rec.buffer) > self.config.buffer_max:
            rec.buffer.pop(0)
            self.edge.env.metrics.buffer_dropped += 1
        self.edge.env.metrics.buffered(self.label_for(rec.host),
                                       len(rec.buffer))

    # -- return path -----------------------------------------------------------

    def rekey_buffered(self, valley_id: int, old_channel: int,
                       new_channel: int) -> None:
        """A community changed channel while a host was away; buffered
        messages must carry the id the corrected host will know."""
        for rec in self.records.values():
            for i, msg in enumerate(rec.buffer):
                f = msg.floating
                if f.valley_id == valley_id and f.channel_id == old_channel:
                    rec.buffer[i] = replace(
                        msg, floating=replace(f, channel_id=new_channel))

    def on_hello(self, host: Yni) -> None:
        rec = self.records.get(host)
        if rec is None:
            # post-expiry (or first) contact: a fresh record with nothing to
            # replay; registration has to be rebuilt through new joins
            self.host_connected(host)
            self.edge.resync_host(host)
            self.edge.send_hello_ack(host)
            return
        was_active = rec.active
        if was_active:
            swapped = self.edge.swap_host_entries(rec.alphorn, rec.host)
            if swapped:
                self.edge.emit("TWIN_SWAP", ("host", self.label_for(host)),
                               ("dir", "out"), ("rows", len(swapped)))
            rec.active = False
        rec.missed = 0
        rec.expire_at = self.edge.env.now() + self.config.ttl
        # corrections first so lock and channel state is right when the
        # replayed traffic lands, then the buffer in arrival order, then the
        # ack that reopens the host's own sending
        self.edge.resync_host(host)
        flushed, rec.buffer = rec.buffer, []
        for msg in flushed:
            self.edge._send_to_host(host, replace(msg, receiver=host))
        if was_active:
            self.edge.emit("TWIN_FLUSH", ("host", self.label_for(host)),
                           ("count", len(flushed)))
        self.edge.send_hello_ack(host)

    # -- expiry ----------------------------------------------------------------

    def _expire(self, rec: TwinRecord) -> None:
        self.edge.emit("TWIN_EXPIRE", ("host", self.label_for(rec.host)),
                       ("dropped", len(rec.buffer)))
        del self.records[rec.host]
        del self._by_alphorn[rec.alphorn]
        self.edge.purge_host(rec.host, rec.alphorn)
