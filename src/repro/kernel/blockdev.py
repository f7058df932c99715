"""Block layer: bios, request merging, plugging, and the elevator.

This is where the paper's Fig. 6 comes from.  The VM submits *bios* (one
page each); the request queue coalesces adjacent-sector bios of the same
direction into *requests* of up to 128 KiB (the Linux 2.4 ceiling), and
holds a *plug* briefly so a reclaim batch arriving over a few tens of
microseconds merges into a single large request.  The queue unplugs when

* the plug timer expires,
* enough requests have accumulated, or
* someone blocks waiting for a bio (the 2.4 ``run_task_queue(&tq_disk)``
  on the page-fault path),

and dispatches pending requests in ascending-sector (one-way elevator)
order to the driver.

Drivers (HPBD client, NBD client, local disk) consume requests from
:meth:`RequestQueue.next_request` and call :meth:`RequestQueue.complete`.

A bio completes through either its ``end_io`` callback (the kernel's
``bi_end_io``; the VM's write-back and swap-in bios) or its ``done``
event (a process waiting on one bio).  ``complete`` runs each run of
adjacent ``end_io`` bios from one event, and succeeds each ``done``
event on its own, all in bio order.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..simulator import Event, SimulationError, Simulator, StatsRegistry
from ..units import MAX_REQUEST_SECTORS, SECTOR_SIZE

__all__ = ["READ", "WRITE", "Bio", "BlockRequest", "RequestQueue"]

READ = "read"
WRITE = "write"

_bio_ids = itertools.count(1)
_req_ids = itertools.count(1)


@dataclass
class Bio:
    """One unit of block I/O from the VM (a page, for swap traffic).

    Exactly one of ``done`` (an event succeeded with the bio) and
    ``end_io`` (called with the bio) reports its completion.
    """

    op: str
    sector: int
    nsectors: int
    done: Event | None = None
    submit_time: float = 0.0
    bio_id: int = field(default_factory=lambda: next(_bio_ids))
    end_io: Callable[["Bio"], None] | None = None

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"bad bio op {self.op!r}")
        if self.nsectors < 1 or self.sector < 0:
            raise ValueError(f"bad bio geometry {self.sector}+{self.nsectors}")
        if (self.done is None) == (self.end_io is None):
            raise ValueError("a bio needs exactly one of done and end_io")

    @property
    def end_sector(self) -> int:
        return self.sector + self.nsectors

    @property
    def nbytes(self) -> int:
        return self.nsectors * SECTOR_SIZE


@dataclass
class BlockRequest:
    """A merged run of bios, contiguous in sector space, one direction."""

    op: str
    sector: int
    nsectors: int
    bios: list[Bio]
    req_id: int = field(default_factory=lambda: next(_req_ids))
    dispatch_time: float = 0.0

    @property
    def end_sector(self) -> int:
        return self.sector + self.nsectors

    @property
    def nbytes(self) -> int:
        return self.nsectors * SECTOR_SIZE

    def can_back_merge(self, bio: Bio, max_sectors: int) -> bool:
        return (
            bio.op == self.op
            and bio.sector == self.end_sector
            and self.nsectors + bio.nsectors <= max_sectors
        )

    def can_front_merge(self, bio: Bio, max_sectors: int) -> bool:
        return (
            bio.op == self.op
            and bio.end_sector == self.sector
            and self.nsectors + bio.nsectors <= max_sectors
        )


class RequestQueue:
    """Per-device request queue with plug/merge/elevator behaviour."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_sectors: int,
        stats: StatsRegistry | None = None,
        max_sectors: int = MAX_REQUEST_SECTORS,
        plug_delay: float = 100.0,
        unplug_threshold: int = 4,
    ) -> None:
        self.sim = sim
        self.name = name
        self.capacity_sectors = capacity_sectors
        self.stats = stats if stats is not None else StatsRegistry()
        self.max_sectors = max_sectors
        self.plug_delay = plug_delay
        self.unplug_threshold = unplug_threshold
        self._pending: list[BlockRequest] = []  # plugged, merge candidates
        #: unplugged requests awaiting the driver; reads before writes
        #: (the 2.4 elevator's read-latency bias), each in elevator order.
        self._ready_reads: list[BlockRequest] = []
        self._ready_writes: list[BlockRequest] = []
        self._getters: "deque[Event]" = deque()
        self._next_name = f"{name}.next"
        self._plugged = False
        self._plug_seq = 0  # invalidates stale plug timers
        self._last_dispatch_sector = 0
        self.in_flight = 0  # dispatched but not completed (requests)
        # trace of (time, op, nbytes) per dispatched request — Fig. 6 input
        self._size_tally_read = self.stats.tally(f"{name}.req_bytes.read")
        self._size_tally_write = self.stats.tally(f"{name}.req_bytes.write")
        self._req_trace: list[tuple[float, str, int]] = []
        self.bio_count = 0
        self.merge_count = 0
        self.bios_completed = 0
        # high-water marks, reported to sim.monitors at teardown
        self.max_in_flight = 0
        self.max_dispatch_depth = 0

    # -- submission (VM side) ----------------------------------------------

    def submit_bio(self, bio: Bio) -> Event | None:
        """Queue one bio; returns its completion event (None for an
        ``end_io`` bio)."""
        if bio.end_sector > self.capacity_sectors:
            raise SimulationError(
                f"{self.name}: bio beyond device end "
                f"({bio.end_sector} > {self.capacity_sectors})"
            )
        bio.submit_time = self.sim.now
        self.bio_count += 1
        for req in self._pending:
            if req.can_back_merge(bio, self.max_sectors):
                req.bios.append(bio)
                req.nsectors += bio.nsectors
                self.merge_count += 1
                break
            if req.can_front_merge(bio, self.max_sectors):
                req.bios.insert(0, bio)
                req.sector = bio.sector
                req.nsectors += bio.nsectors
                self.merge_count += 1
                break
        else:
            self._pending.append(
                BlockRequest(
                    op=bio.op, sector=bio.sector, nsectors=bio.nsectors, bios=[bio]
                )
            )
            self._plug()
        if len(self._pending) >= self.unplug_threshold:
            self.unplug()
        return bio.done

    def _plug(self) -> None:
        if self._plugged:
            return
        self._plugged = True
        self._plug_seq += 1
        seq = self._plug_seq

        def timer_fire() -> None:
            if self._plugged and self._plug_seq == seq:
                self.unplug()

        self.sim.schedule_call(self.plug_delay, timer_fire)

    def unplug(self) -> None:
        """Flush pending requests toward the driver in elevator order."""
        self._plugged = False
        if self._pending:
            # One-way elevator: ascending from the last dispatched
            # sector, wrapping (C-SCAN), per direction.
            key = self._last_dispatch_sector

            def order(req: BlockRequest) -> tuple[int, int]:
                return (0 if req.sector >= key else 1, req.sector)

            trace = self.sim.trace
            for req in self._pending:
                req.dispatch_time = self.sim.now
                self.in_flight += 1
                if self.in_flight > self.max_in_flight:
                    self.max_in_flight = self.in_flight
                tally = (
                    self._size_tally_read
                    if req.op == READ
                    else self._size_tally_write
                )
                tally.record(req.nbytes)
                self._req_trace.append((self.sim.now, req.op, req.nbytes))
                if trace.enabled:
                    # Plug/merge wait: first bio submitted -> dispatch.
                    trace.complete(
                        self.name, "queue", "queue_wait", "blk.queue",
                        min(b.submit_time for b in req.bios), self.sim.now,
                        req_id=req.req_id, op=req.op, sector=req.sector,
                        nbytes=req.nbytes, nbios=len(req.bios),
                    )
                if req.op == READ:
                    self._ready_reads.append(req)
                else:
                    self._ready_writes.append(req)
            self._pending.clear()
            self._ready_reads.sort(key=order)
            self._ready_writes.sort(key=order)
            if self.dispatch_depth > self.max_dispatch_depth:
                self.max_dispatch_depth = self.dispatch_depth
        while self._getters and (self._ready_reads or self._ready_writes):
            self._getters.popleft().succeed(self._pop_ready())

    def _pop_ready(self) -> BlockRequest:
        queue = self._ready_reads if self._ready_reads else self._ready_writes
        req = queue.pop(0)
        self._last_dispatch_sector = req.end_sector
        trace = self.sim.trace
        if trace.enabled and self.sim.now > req.dispatch_time:
            # Device-queue wait: dispatched but the driver was busy with
            # earlier requests (head-of-line at the device).
            trace.complete(
                self.name, "queue", "device_wait", "blk.wait",
                req.dispatch_time, self.sim.now,
                req_id=req.req_id, op=req.op, sector=req.sector,
                nbytes=req.nbytes,
            )
        return req

    # -- driver side ---------------------------------------------------------

    def next_request(self) -> Event:
        """Event yielding the next request, reads preferred (2.4
        elevator read bias)."""
        evt = self.sim.event(self._next_name)
        if self._ready_reads or self._ready_writes:
            evt.succeed(self._pop_ready())
        else:
            self._getters.append(evt)
        return evt

    def try_next_request(self) -> BlockRequest | None:
        if self._ready_reads or self._ready_writes:
            return self._pop_ready()
        return None

    @property
    def dispatch_depth(self) -> int:
        return len(self._ready_reads) + len(self._ready_writes)

    def complete(self, req: BlockRequest) -> None:
        """Finish a request: complete every merged bio, in bio order.

        Each run of adjacent ``end_io`` bios completes from one event
        that calls their callbacks in turn, each ``done`` bio from its
        own event.  The callbacks firing back to back from one event
        instead of from consecutive ones is exact as long as they post
        no URGENT entry, since only that could fire between two
        consecutive events of the same instant.
        """
        self.in_flight -= 1
        if self.in_flight < 0:
            self.sim.monitors.violation(
                "blk.in_flight", self.name,
                "completed more requests than dispatched",
                in_flight=self.in_flight,
            )
            raise SimulationError(f"{self.name}: completed more than dispatched")
        now = self.sim.now
        lat = self.stats.tally(f"{self.name}.req_latency_usec")
        lat.record(now - req.dispatch_time)
        trace = self.sim.trace
        if trace.enabled:
            trace.complete(
                self.name, "inflight", "service", "blk.service",
                req.dispatch_time, now,
                req_id=req.req_id, op=req.op, sector=req.sector,
                nbytes=req.nbytes,
            )
        for by_event, bios in itertools.groupby(
            req.bios, key=lambda bio: bio.done is not None
        ):
            if by_event:
                for bio in bios:
                    bio.done.succeed(bio)
            else:
                self._end_io(list(bios))
        self.bios_completed += len(req.bios)

    def _end_io(self, bios: list[Bio]) -> None:
        """Post one event that runs ``bios``' ``end_io`` callbacks in order."""

        def end_io(_evt: Event) -> None:
            for bio in bios:
                bio.end_io(bio)

        evt = self.sim.event("end_io")
        evt.callbacks.append(end_io)
        evt.succeed()

    def audit_teardown(self) -> None:
        """Invariant monitors for a quiesced queue (runner teardown):
        drained at every stage, bio conservation, watermarks recorded."""
        monitors = self.sim.monitors
        monitors.check(
            self.in_flight == 0,
            "blk.drained", self.name,
            "requests still in flight at teardown",
            in_flight=self.in_flight,
        )
        monitors.check(
            not self._pending and self.dispatch_depth == 0,
            "blk.drained", self.name,
            "requests still queued at teardown",
            pending=len(self._pending), ready=self.dispatch_depth,
        )
        monitors.check(
            self.bios_completed == self.bio_count,
            "blk.bio_conservation", self.name,
            "submitted and completed bio counts differ",
            submitted=self.bio_count, completed=self.bios_completed,
        )
        monitors.watermark(f"{self.name}.in_flight", self.max_in_flight)
        monitors.watermark(
            f"{self.name}.dispatch_depth", self.max_dispatch_depth
        )

    # -- analysis hooks ---------------------------------------------------

    def request_trace(self) -> list[tuple[float, str, int]]:
        """(dispatch_time, op, nbytes) per request, in dispatch order."""
        return list(self._req_trace)
