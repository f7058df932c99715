"""Drives a :class:`FaultPlan` against a live scenario.

The injector owns no simulation state of its own: it flips first-class
hooks that the hpbd/nbd/net/ib layers already expose —
``HPBDServer.crash()``/``restart()``, ``Port.set_down()``/``set_up()``/
``degrade()``, the client credit buckets, and the fabric's
``fault_hook`` consulted by the IB channel path for per-message
drop/corrupt decisions.  Scheduled events run off one driver process;
probabilistic faults draw from ``random.Random(plan.seed)`` so a fixed
seed replays the identical fault sequence.

Everything it does is visible in the observability stack: ``fault.*``
counters in the stats registry and instants/spans on the trace under
the ``faults`` component.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING

from ..simulator import SimulationError
from .plan import (
    CreditStarve,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
    ServerSlow,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..hpbd.client import HPBDClient
    from ..hpbd.server import HPBDServer
    from ..nbd.server import NBDServer
    from ..net.link import Fabric
    from ..simulator import Simulator, StatsRegistry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one :class:`FaultPlan` to one built scenario."""

    def __init__(
        self,
        sim: "Simulator",
        plan: FaultPlan,
        *,
        stats: "StatsRegistry",
        fabric: "Fabric | None" = None,
        hpbd_servers: "list[HPBDServer] | None" = None,
        hpbd_clients: "list[HPBDClient] | None" = None,
        nbd_server: "NBDServer | None" = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.stats = stats
        self.fabric = fabric
        self.hpbd_servers = list(hpbd_servers or [])
        #: every HPBD client of the scenario: one per node (a fleet's
        #: tenants each have their own)
        self.hpbd_clients = list(hpbd_clients or [])
        self.nbd_server = nbd_server
        # Resolve every scheduled target now: a plan naming a server,
        # port or client the scenario lacks fails when the scenario is
        # built, not when the fault comes due.
        self._schedule = sorted(
            ((ev, self._resolve(ev)) for ev in plan.events),
            key=lambda pair: pair[0].at,
        )
        self._rng = random.Random(plan.seed)
        self.started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Install hooks and spawn the schedule driver (call once,
        after the scenario's devices are connected)."""
        if self.started:
            raise SimulationError("fault injector already started")
        self.started = True
        if self.plan.probabilistic:
            if self.fabric is None:
                raise SimulationError(
                    "probabilistic ctrl faults need the fabric hook"
                )
            self.fabric.fault_hook = self.on_ctrl_send
            # A dropped/corrupted control message must be survivable at
            # both protocol ends: drop-and-count instead of raising, and
            # let the client watchdog retransmit.
            for end in (*self.hpbd_servers, *self.hpbd_clients):
                end.drop_bad_ctrl = True
        if self.plan.events:
            self.sim.spawn(self._driver(), name="faults.driver")

    # -- scheduled events --------------------------------------------------

    def _driver(self):
        sim = self.sim
        for ev, target in self._schedule:
            if ev.at > sim.now:
                yield sim.timeout(ev.at - sim.now)
            self._apply(ev, target)

    def _apply(self, ev, target) -> None:
        """Fire ``ev`` at its resolved ``target`` (server, port or client)."""
        sim = self.sim
        if isinstance(ev, ServerCrash):
            target.crash(wipe=ev.wipe)
            self.stats.counter("fault.server_crashes").add()
            sim.trace.instant(
                "faults", "inject", "server_crash",
                server=target.name, wipe=ev.wipe, down_for=ev.down_for,
            )
            if ev.down_for is not None:
                sim.spawn(
                    self._restart_later(target, ev.down_for),
                    name=f"faults.restart.{target.name}",
                )
        elif isinstance(ev, ServerSlow):
            target.slow(service_mult=ev.service_mult, extra_usec=ev.extra_rtt_usec)
            self.stats.counter("fault.server_slowdowns").add()
            sim.trace.instant(
                "faults", "inject", "server_slow",
                server=target.name, duration=ev.duration,
                service_mult=ev.service_mult,
                extra_rtt_usec=ev.extra_rtt_usec,
            )
            sim.spawn(self._restore_speed_later(target, ev.duration),
                      name=f"faults.speedup.{target.name}")
        elif isinstance(ev, LinkFlap):
            target.set_down()
            self.stats.counter("fault.link_flaps").add()
            sim.trace.instant(
                "faults", "inject", "link_down",
                node=ev.node, down_for=ev.down_for,
            )
            sim.spawn(self._link_up_later(target, ev.down_for),
                      name=f"faults.linkup.{ev.node}")
        elif isinstance(ev, LinkDegrade):
            target.degrade(
                latency_mult=ev.latency_mult,
                byte_time_mult=1.0 / ev.bandwidth_mult,
            )
            self.stats.counter("fault.link_degrades").add()
            sim.trace.instant(
                "faults", "inject", "link_degrade",
                node=ev.node, duration=ev.duration,
                latency_mult=ev.latency_mult,
                bandwidth_mult=ev.bandwidth_mult,
            )
            sim.spawn(self._restore_later(target, ev.duration, ev.node),
                      name=f"faults.restore.{ev.node}")
        else:  # CreditStarve
            sim.spawn(self._starve(ev, target), name=f"faults.starve.{ev.server}")

    def _restart_later(self, srv, delay: float):
        t0 = self.sim.now
        yield self.sim.timeout(delay)
        srv.restart()
        self.stats.counter("fault.server_restarts").add()
        self.sim.trace.complete(
            "faults", "inject", "server_down", "fault.crash",
            t0, self.sim.now, server=srv.name,
        )

    def _restore_speed_later(self, srv, delay: float):
        t0 = self.sim.now
        yield self.sim.timeout(delay)
        srv.restore_speed()
        self.stats.counter("fault.server_slow_restores").add()
        self.sim.trace.complete(
            "faults", "inject", "server_slow", "fault.slow",
            t0, self.sim.now, server=srv.name,
        )

    def _link_up_later(self, port, delay: float):
        t0 = self.sim.now
        yield self.sim.timeout(delay)
        port.set_up()
        self.sim.trace.complete(
            "faults", "inject", "link_down", "fault.link",
            t0, self.sim.now, node=port.name,
        )

    def _restore_later(self, port, delay: float, node: str):
        t0 = self.sim.now
        yield self.sim.timeout(delay)
        port.restore()
        self.sim.trace.complete(
            "faults", "inject", "link_degraded", "fault.link",
            t0, self.sim.now, node=node,
        )

    def _starve(self, ev: CreditStarve, client: "HPBDClient"):
        bucket = client._credits[ev.server]
        # Never take the whole bucket: a zero-credit server would stall
        # the sender for the entire window instead of throttling it.
        ntokens = min(ev.ntokens, bucket.capacity - 1)
        if ntokens < 1:
            return
        yield bucket.acquire(ntokens)
        self.stats.counter("fault.credit_starvations").add()
        t0 = self.sim.now
        yield self.sim.timeout(ev.duration)
        bucket.release(ntokens)
        self.sim.trace.complete(
            "faults", "inject", "credit_starve", "fault.credits",
            t0, self.sim.now, server=ev.server, ntokens=ntokens,
        )

    # -- probabilistic ctrl-message faults ---------------------------------

    def on_ctrl_send(self, qp, wr):
        """Fabric hook: called for every IB channel SEND before the wire.

        Returns the work request to deliver (possibly a corrupted copy),
        or ``None`` to drop the message entirely.
        """
        payload = wr.payload
        if payload is None or not hasattr(payload, "signature"):
            return wr  # not an HPBD control message
        if self.plan.ctrl_drop_prob and self._rng.random() < self.plan.ctrl_drop_prob:
            self.stats.counter("fault.ctrl_dropped").add()
            self.sim.trace.instant(
                "faults", "ctrl", "dropped", req_id=wr.req_id,
            )
            return None
        if (
            self.plan.ctrl_corrupt_prob
            and self._rng.random() < self.plan.ctrl_corrupt_prob
        ):
            self.stats.counter("fault.ctrl_corrupted").add()
            self.sim.trace.instant(
                "faults", "ctrl", "corrupted", req_id=wr.req_id,
            )
            bad = dataclasses.replace(
                payload, signature=payload.signature ^ 0x5A5A5A5A
            )
            return dataclasses.replace(wr, payload=bad)
        return wr

    # -- target resolution -------------------------------------------------

    def _resolve(self, ev):
        """The live object ``ev`` acts on; ``ValueError`` if the
        scenario has none."""
        if isinstance(ev, (ServerCrash, ServerSlow)):
            if ev.server == "nbd" and self.nbd_server is not None:
                return self.nbd_server
            if isinstance(ev.server, int) and (
                0 <= ev.server < len(self.hpbd_servers)
            ):
                return self.hpbd_servers[ev.server]
            raise ValueError(
                f"fault plan targets server {ev.server!r}, which the "
                f"scenario lacks"
            )
        if isinstance(ev, (LinkFlap, LinkDegrade)):
            if self.fabric is None or ev.node not in self.fabric._ports:
                raise ValueError(
                    f"fault plan targets node {ev.node!r}, which has no "
                    f"fabric port"
                )
            return self.fabric._ports[ev.node]
        if isinstance(ev, CreditStarve):
            # Only a single node's client: a fleet has no one to starve.
            clients = self.hpbd_clients
            if len(clients) != 1 or not 0 <= ev.server < len(clients[0].servers):
                raise ValueError(
                    f"credit starvation of server {ev.server} needs the "
                    f"one HPBD client connected to it"
                )
            return clients[0]
        raise TypeError(f"unknown fault event {ev!r}")  # pragma: no cover
