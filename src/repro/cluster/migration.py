"""Bulk copies between memory servers over a fluid bulk channel.

Background repair (:mod:`repro.redundancy.repair`) moves a lost
shard's bytes from the survivors to the rebuilt member.  A shard is
megabytes — thousands of pages — so modelling it page-by-page through
the scheduler is exactly the event-chain shape the fluid fast path
collapses: an uncontended, untraced copy costs O(1) events, while a
tracer, a fault window, or a competing copy on the same uplink expands
it to per-page fidelity with bit-identical completion times (see
:mod:`repro.simulator.fluid`).  The copy moves bytes only; the caller
keeps the fleet's capacity ledger.
"""

from __future__ import annotations

from ..simulator import Simulator, StatsRegistry
from ..simulator.fluid import FluidChannel

__all__ = ["ChunkMigrator"]


class ChunkMigrator:
    """Copies tenant data between servers over one shared bulk channel.

    ``rate_bytes_per_usec`` models the migration uplink (defaults to
    ~800 MB/s, a conservative share of one IB SDR link so copies do
    not shadow the request path).  Concurrent copies share the
    channel fairly; each one is a :class:`BulkFlow` under the hood.

    ``throttle_mib_s`` caps the *aggregate* background-copy bandwidth
    below the channel rate: transfers are paced against a shared budget
    cursor, so concurrent copies queue behind one another instead of
    bursting at link speed (``mig.throttle_waits`` counts the stalls).
    Recovery traffic must never be modelled as free (INDIGO's point).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_usec: float = 800.0,
        page_bytes: int = 4096,
        name: str = "mig",
        stats: StatsRegistry | None = None,
        throttle_mib_s: float | None = None,
    ) -> None:
        if throttle_mib_s is not None and throttle_mib_s <= 0:
            raise ValueError(f"bad migration throttle {throttle_mib_s}")
        self.sim = sim
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.channel = FluidChannel(
            sim,
            rate_bytes_per_usec,
            page_bytes=page_bytes,
            name=f"{name}.chan",
            stats=self.stats,
        )
        #: MiB/s -> bytes/usec (both are 2^20-per-10^6 scaled)
        self.throttle_bytes_per_usec = (
            throttle_mib_s * (1024 * 1024) / 1e6
            if throttle_mib_s is not None
            else None
        )
        #: simulation time up to which the throttle budget is spoken for
        self._throttle_cursor = 0.0
        self._c_bytes = self.stats.counter(f"{name}.bytes")
        self._c_throttle_waits = self.stats.counter(f"{name}.throttle_waits")

    def bulk_copy(self, tenant: str, nbytes: int, label: str = "copy"):
        """One copy through the shared channel, paced against the
        throttle budget; generator, returns the bytes moved.  It moves
        no reservation: repair restores data into space the tenant
        already holds (or reserves explicitly for a spare rebuild), so
        only the fabric cost and the throttle budget apply."""
        sim = self.sim
        rate = self.throttle_bytes_per_usec
        if rate is not None:
            start = self._throttle_cursor
            duration = nbytes / rate
            self._throttle_cursor = max(start, sim.now) + duration
            if start > sim.now:
                # Budget already spoken for by an earlier copy: stall.
                self._c_throttle_waits.add()
                yield sim.timeout(start - sim.now)
        t0 = sim.now
        done = yield self.channel.transfer(
            nbytes, name=f"{self.name}.{tenant}.{label}"
        )
        if rate is not None:
            # The channel may run faster than the throttle; pad the
            # copy out to its paced duration so the modelled bandwidth
            # never exceeds the cap.
            remaining = (t0 + nbytes / rate) - sim.now
            if remaining > 0:
                yield sim.timeout(remaining)
        self._c_bytes.add(int(done))
        return done
