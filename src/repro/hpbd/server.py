"""The HPBD remote memory server (§4.2.1, §5).

"A RamDisk based user space program, which provides its own local memory
for paging store and push/pull pages from client using RDMA operations."

Key behaviours modelled:

* **Server-initiated RDMA** — the client cannot know RamDisk addresses,
  so for a swap-out (OP_WRITE) the server RDMA-*reads* the page out of
  the client's pool buffer, and for a swap-in (OP_READ) it RDMA-*writes*
  the page into it (Fig. 4).
* **RDMA/memcpy overlap** — multiple outstanding RDMA operations are
  allowed (a counted slot resource); each request is handled by its own
  process, so one request's RamDisk memcpy overlaps another's RDMA.
* **Reply ordering** — the completion acknowledgement is posted on the
  same RC queue pair right after the RDMA write, so channel ordering
  guarantees the data lands before the client sees the reply (exactly
  the trick the real driver uses).
* **Event-based idle** — the server polls its request CQ while busy and,
  after 200 µs of idle, arms a completion event and yields the CPU;
  the next request pays the event-notification cost to wake it.
"""

from __future__ import annotations

from math import inf

from ..ib import HCA, RDMAReadWR, RDMAWriteWR, RecvWR, SendWR
from ..kernel.task import CPUSet
from ..net.fabrics import IBParams, IB_DEFAULT
from ..net.link import Fabric
from ..simulator import Resource, SimulationError, Simulator, StatsRegistry
from ..units import MiB
from .pool import RegisteredPool
from .protocol import (
    CTRL_MSG_BYTES,
    OP_READ,
    OP_WRITE,
    PageReply,
    PageRequest,
    ProtocolError,
    STATUS_ERROR,
    STATUS_NACK,
    STATUS_OK,
)
from .ramdisk import RamDisk

__all__ = ["HPBDServer"]


class HPBDServer:
    """One memory server daemon on its own node."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        store_bytes: int,
        ib_params: IBParams = IB_DEFAULT,
        ncpus: int = 2,
        staging_pool_bytes: int = 4 * MiB,
        max_outstanding_rdma: int = 8,
        idle_sleep_usec: float = 200.0,
        poll_interval_usec: float = 5.0,
        credits_per_client: int = 16,
        stats: StatsRegistry | None = None,
        max_alloc_waiters: int = 32,
        resident_bytes: int | None = None,
        scheduler=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.hca = HCA(sim, fabric, name, params=ib_params, stats=self.stats)
        self.pd = self.hca.alloc_pd()
        self.send_cq = self.hca.create_cq(f"{name}.scq")
        self.recv_cq = self.hca.create_cq(f"{name}.rcq")
        self.cpus = CPUSet(sim, ncpus, name=f"{name}.cpus")
        self.ramdisk = RamDisk(
            store_bytes, name=f"{name}.ramdisk", resident_bytes=resident_bytes
        )
        self.staging_pool_bytes = staging_pool_bytes
        self.idle_sleep_usec = idle_sleep_usec
        self.poll_interval_usec = poll_interval_usec
        self.credits_per_client = credits_per_client
        self.pool: RegisteredPool | None = None
        self._rdma_slots = Resource(
            sim, max_outstanding_rdma, name=f"{name}.rdma_slots"
        )
        self._qp_by_num: dict[int, object] = {}
        self._area_base: dict[int, int] = {}
        #: bound on processes parked in the staging-pool wait queue; one
        #: more would be NACKed instead of blocking (reliability §4.1: a
        #: loaded daemon must shed load, never wedge).
        self.max_alloc_waiters = max_alloc_waiters
        #: cluster QoS hook: a WeightedFairScheduler (or anything with
        #: ``push``/``pop``/``__len__``) reorders request handling per
        #: tenant; ``None`` keeps the paper's FIFO dispatch.
        self.scheduler = scheduler
        self._max_handlers = max_outstanding_rdma
        #: multi-tenancy (repro.cluster): tenant identity and served-byte
        #: accounting per connected client QP.
        self._tenant_by_qp: dict[int, str] = {}
        self._weight_by_qp: dict[int, float] = {}
        self.tenant_bytes: dict[str, int] = {}
        self._proc = None
        self.requests_served = 0
        self.busy_handlers = 0
        self.sleeps = 0
        #: fault-injection state (repro.faults): a crashed daemon keeps
        #: its process alive but silently drops requests and suppresses
        #: replies — what a dead peer looks like from the client.
        self.alive = True
        self.crashes = 0
        #: fail-slow state (repro.faults ServerSlow): memcpy cost scale
        #: and flat per-request in-handler stall while limping.
        self.slow_mult = 1.0
        self.slow_extra_usec = 0.0
        self.slowdowns = 0
        #: drop (and count) control messages that fail signature
        #: validation instead of raising — set by the fault injector
        #: when the plan corrupts messages on the wire.
        self.drop_bad_ctrl = False

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Register the staging pool and launch the daemon; generator."""
        if self._proc is not None:
            raise SimulationError(f"{self.name} already started")
        mr = yield from self.hca.register_mr(self.pd, self.staging_pool_bytes)
        self.pool = RegisteredPool(
            self.sim,
            size=self.staging_pool_bytes,
            base_addr=mr.addr,
            rkey=mr.rkey,
            name=f"{self.name}.staging",
            stats=self.stats,
        )
        self._proc = self.sim.spawn(self._main(), name=f"{self.name}.daemon")

    def register_client(
        self,
        server_qp,
        area_base: int = 0,
        tenant: str | None = None,
        credits: int | None = None,
        weight: float = 1.0,
    ) -> None:
        """Adopt the server side of a freshly connected QP: pre-post the
        request receives that back the client's credits.

        ``area_base`` places this client's swap area inside the RamDisk
        — §5: the server "is able to serve multiple clients using
        different swap areas".  ``tenant``/``weight`` tag the QP for the
        cluster layer's per-tenant accounting and weighted-fair service;
        ``credits`` overrides the per-client water-mark (the cluster QoS
        layer partitions one credit pool across tenants).
        """
        if not (0 <= area_base < self.ramdisk.size):
            raise SimulationError(
                f"{self.name}: client area base {area_base} outside store"
            )
        if weight <= 0:
            raise SimulationError(
                f"{self.name}: bad tenant weight {weight}"
            )
        self._qp_by_num[server_qp.qp_num] = server_qp
        self._area_base[server_qp.qp_num] = area_base
        if tenant is not None:
            self._tenant_by_qp[server_qp.qp_num] = tenant
            self.tenant_bytes.setdefault(tenant, 0)
        self._weight_by_qp[server_qp.qp_num] = weight
        # Post several water-marks' worth of receives: client-side
        # timeouts return a credit before the original message is
        # consumed here, so retry bursts can transiently put more than
        # one water-mark of control messages in flight.
        water_mark = self.credits_per_client if credits is None else credits
        depth = min(4 * water_mark, server_qp.max_recv_wr)
        for _ in range(depth):
            server_qp.post_recv(RecvWR(capacity=CTRL_MSG_BYTES))

    def set_client_area_base(self, server_qp, area_base: int) -> None:
        """Relocate a registered client's swap area inside the store —
        background repair rebuilding a lost shard onto this server as a
        spare lands the area wherever the registry reserved it."""
        if server_qp.qp_num not in self._area_base:
            raise SimulationError(
                f"{self.name}: QP {server_qp.qp_num} is not a registered "
                f"client"
            )
        if not (0 <= area_base < self.ramdisk.size):
            raise SimulationError(
                f"{self.name}: client area base {area_base} outside store"
            )
        self._area_base[server_qp.qp_num] = area_base

    @property
    def started(self) -> bool:
        return self._proc is not None

    # -- fault-injection hooks (repro.faults) ------------------------------

    def crash(self, wipe: bool = True) -> None:
        """Kill the daemon mid-run: from now on every incoming request
        is dropped and every in-flight reply suppressed.  ``wipe``
        clears the RamDisk — the store was RAM, after all."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.stats.counter(f"{self.name}.crashes").add()
        if wipe:
            self.ramdisk.wipe()

    def restart(self) -> None:
        """Bring the daemon back (the HCA and QPs survive — modelling a
        process restart on a warm node, not a reboot)."""
        self.alive = True

    def slow(self, service_mult: float = 4.0, extra_usec: float = 0.0) -> None:
        """Limp the daemon: scale every RamDisk memcpy cost by
        ``service_mult`` and stall each request ``extra_usec`` while it
        holds an RDMA slot (so queue depth creeps, like a real fail-slow
        node).  The fabric is untouched — contrast ``LinkDegrade``."""
        if service_mult < 1.0 or extra_usec < 0:
            raise SimulationError(
                f"{self.name}: bad slowdown ({service_mult}, {extra_usec})"
            )
        self.slow_mult = service_mult
        self.slow_extra_usec = extra_usec
        self.slowdowns += 1
        self.stats.counter(f"{self.name}.slowdowns").add()

    def restore_speed(self) -> None:
        """Lift a :meth:`slow` injection; in-flight handlers finish at
        whatever rate they already sampled."""
        self.slow_mult = 1.0
        self.slow_extra_usec = 0.0

    # -- daemon ---------------------------------------------------------------

    def _main(self):
        if self.pool is None:  # pragma: no cover - guarded by start()
            raise SimulationError(f"{self.name}: start() not called")
        sim = self.sim
        rcq = self.recv_cq
        last_active = sim.now
        while True:
            cqe = rcq.poll_one()
            if cqe is not None:
                last_active = sim.now
                self._dispatch(cqe)
                continue
            busy = self.busy_handlers > 0
            idle = self.idle_sleep_usec
            if busy or sim.now - last_active < idle:
                # Busy spin: cheap CQ polls while work is in flight or
                # within the 200 µs idle window.  Only a firing entry can
                # push a CQE or end a handler, so each poll before the
                # queue head would spin again unchanged: post only the
                # first poll at or after the head, or the one that finds
                # the idle window closed.  The grid repeats the loop's
                # own additions, so each kept poll lands where it did.
                # A busy server facing an empty queue spins as before.
                poll = self.poll_interval_usec
                t = sim.now + poll
                head = sim._head()[0]
                if head < inf or not busy:
                    while t < head and (busy or t - last_active < idle):
                        t += poll
                yield sim.timeout_at(t)
                continue
            # Idle long enough: yield the CPU until a solicited event.
            self.sleeps += 1
            rcq.request_notify()
            cqe = rcq.poll_one()  # re-check: event may have raced the arm
            if cqe is not None:
                last_active = sim.now
                self._dispatch(cqe)
                continue
            yield rcq.wait_event()
            last_active = sim.now

    def _dispatch(self, cqe) -> None:
        """One drained request CQE: replenish the receive, vet, spawn."""
        req: PageRequest = cqe.payload
        qp = self._qp_by_num[cqe.qp_num]
        # Replenish the consumed receive before handling, so the
        # client's credit scheme stays tight.
        qp.post_recv(RecvWR(capacity=CTRL_MSG_BYTES))
        if not self.alive:
            # A crashed daemon's HCA still lands messages; nobody is
            # there to serve them.
            self.stats.counter(f"{self.name}.dropped_requests").add()
            return
        try:
            req.validate()
        except ProtocolError:
            if not self.drop_bad_ctrl:
                raise
            self.stats.counter(f"{self.name}.bad_requests").add()
            return
        if self.scheduler is not None:
            # Cluster QoS: park the request in the weighted-fair queue;
            # the pump admits it when a handler slot frees up, in
            # virtual-time order rather than arrival order.
            tenant = self._tenant_by_qp.get(qp.qp_num, "-")
            weight = self._weight_by_qp.get(qp.qp_num, 1.0)
            self.scheduler.push(
                tenant, weight, req.nbytes, (qp, req, self.sim.now)
            )
            self._pump_scheduler()
            return
        self.busy_handlers += 1
        self.sim.spawn(self._handle(qp, req), name=f"{self.name}.h{req.req_id}")

    def _pump_scheduler(self) -> None:
        """Admit queued requests while handler slots are free, in the
        scheduler's (weighted-fair) order."""
        sim = self.sim
        while self.busy_handlers < self._max_handlers:
            popped = self.scheduler.pop()
            if popped is None:
                return
            tenant, (qp, req, enq_at) = popped
            if sim.trace.enabled and sim.now > enq_at:
                sim.trace.complete(
                    self.name, "handlers", "qos_wait", "srv.qos",
                    enq_at, sim.now,
                    tenant=tenant, nbytes=req.nbytes,
                    **({} if req.blk_req_id is None
                       else {"req_id": req.blk_req_id}),
                )
            self.busy_handlers += 1
            sim.spawn(self._handle(qp, req), name=f"{self.name}.h{req.req_id}")

    def _post_reply(self, qp, reply: PageReply, blk_req_id) -> None:
        """Post an acknowledgement — unless the daemon crashed while the
        handler was in flight, in which case the client hears nothing."""
        if not self.alive:
            self.stats.counter(f"{self.name}.suppressed_replies").add()
            return
        qp.post_send_nowait(
            SendWR(
                nbytes=CTRL_MSG_BYTES,
                payload=reply,
                signaled=False,
                solicited=True,
                req_id=blk_req_id,
            )
        )

    def _drain_spill(self, ident: dict):
        """Charge any spill-disk latency the last RamDisk access accrued
        (residency-cap eviction / fault-in under overcommit); generator.
        Waiting — not CPU — so it must not go through ``cpus.run``."""
        spill = self.ramdisk.drain_spill_usec()
        if spill <= 0:
            return
        t0 = self.sim.now
        yield self.sim.timeout(spill)
        if self.sim.trace.enabled:
            self.sim.trace.complete(
                self.name, "handlers", "spill_io", "srv.spill",
                t0, self.sim.now, **ident,
            )

    def _handle(self, qp, req: PageRequest):
        """Serve one physical page request (own process per request)."""
        t0 = self.sim.now
        trace = self.sim.trace
        # Block-request identity for the critical-path analysis (absent
        # only for raw protocol-level tests that bypass the driver).
        ident = {} if req.blk_req_id is None else {"req_id": req.blk_req_id}
        try:
            # Each client's swap area sits at its own base in the store.
            offset = self._area_base.get(qp.qp_num, 0) + req.offset
            # Reliability (§4.1): a malformed extent must produce an
            # error acknowledgement, never a crashed daemon — "Failure
            # in page handling can adversely impact system stability".
            if offset + req.nbytes > self.ramdisk.size:
                self.stats.counter(f"{self.name}.errors").add()
                self._post_reply(
                    qp,
                    PageReply(req_id=req.req_id, status=STATUS_ERROR),
                    req.blk_req_id,
                )
                return
            # Staging-pool exhaustion sheds load with a typed NACK: a
            # request that cannot get a buffer (too big for the pool, or
            # the wait queue already at its bound) must never block
            # indefinitely — the client retries, re-routes, or falls
            # back to disk.
            if (
                req.nbytes > self.pool.size
                or self.pool.waiting >= self.max_alloc_waiters
            ):
                self.stats.counter(f"{self.name}.pool_exhausted").add()
                self._post_reply(
                    qp,
                    PageReply(req_id=req.req_id, status=STATUS_NACK),
                    req.blk_req_id,
                )
                return
            if not self._rdma_slots.grant_inline():
                yield self._rdma_slots.acquire()
            try:
                if self.slow_extra_usec > 0.0:
                    # Injected fail-slow stall: burned while holding the
                    # RDMA slot, so a limping server's queue depth creeps.
                    t_slow = self.sim.now
                    yield self.sim.timeout(self.slow_extra_usec)
                    if trace.enabled:
                        trace.complete(
                            self.name, "handlers", "failslow_stall",
                            "srv.slow", t_slow, self.sim.now, **ident,
                        )
                buf = yield from self.pool.alloc(req.nbytes)
                if req.op == OP_WRITE:
                    # Swap-out: pull the page(s) out of the client pool,
                    # then copy into the RamDisk.
                    yield qp.post_send(
                        RDMAReadWR(
                            nbytes=req.nbytes,
                            remote_addr=req.buf_addr,
                            rkey=req.buf_rkey,
                            signaled=False,
                            req_id=req.blk_req_id,
                        )
                    )
                    cost = self.ramdisk.write(
                        offset, req.nbytes, token=req.data_token
                    ) * self.slow_mult
                    t_copy = self.sim.now
                    yield from self.cpus.run(cost)
                    if trace.enabled:
                        trace.complete(
                            self.name, "handlers", "ramdisk_write",
                            "srv.copy", t_copy, self.sim.now,
                            nbytes=req.nbytes, **ident,
                        )
                    yield from self._drain_spill(ident)
                    self.pool.free(buf)
                    self._post_reply(
                        qp,
                        PageReply(req_id=req.req_id, status=STATUS_OK),
                        req.blk_req_id,
                    )
                elif req.op == OP_READ:
                    # Swap-in: RamDisk -> staging, RDMA-write it into the
                    # client buffer, then the (ordered) reply.
                    token, cost = self.ramdisk.read(offset, req.nbytes)
                    cost *= self.slow_mult
                    t_copy = self.sim.now
                    yield from self.cpus.run(cost)
                    if trace.enabled:
                        trace.complete(
                            self.name, "handlers", "ramdisk_read",
                            "srv.copy", t_copy, self.sim.now,
                            nbytes=req.nbytes, **ident,
                        )
                    yield from self._drain_spill(ident)
                    rdma_done = qp.post_send(
                        RDMAWriteWR(
                            nbytes=req.nbytes,
                            remote_addr=req.buf_addr,
                            rkey=req.buf_rkey,
                            payload=token,
                            signaled=False,
                            req_id=req.blk_req_id,
                        )
                    )
                    self._post_reply(
                        qp,
                        PageReply(
                            req_id=req.req_id, status=STATUS_OK,
                            data_token=token,
                        ),
                        req.blk_req_id,
                    )
                    # The staging buffer must outlive the RDMA write.
                    yield rdma_done
                    self.pool.free(buf)
                else:  # pragma: no cover - protocol validates earlier
                    raise SimulationError(f"bad opcode {req.op!r}")
                self.requests_served += 1
                self.stats.counter(f"{self.name}.requests").add(req.nbytes)
                tenant = self._tenant_by_qp.get(qp.qp_num)
                if tenant is not None:
                    self.tenant_bytes[tenant] += req.nbytes
                    self.stats.counter(
                        f"{self.name}.tenant.{tenant}.bytes"
                    ).add(req.nbytes)
            finally:
                self._rdma_slots.release()
        finally:
            self.busy_handlers -= 1
            if self.scheduler is not None:
                self._pump_scheduler()
            if trace.enabled:
                trace.complete(
                    self.name, "handlers", "handle", "srv.handle",
                    t0, self.sim.now,
                    op="write" if req.op == OP_WRITE else "read",
                    nbytes=req.nbytes, **ident,
                )

    # -- teardown audit ------------------------------------------------------

    def audit_teardown(self) -> None:
        """Invariant monitors for an idle server (runner teardown)."""
        monitors = self.sim.monitors
        monitors.check(
            self.busy_handlers == 0,
            "server.handlers_drained", self.name,
            "request handlers still running at teardown",
            busy=self.busy_handlers,
        )
        monitors.check(
            self._rdma_slots.in_use == 0,
            "server.rdma_slots_released", self.name,
            "outstanding-RDMA slots still held at teardown",
            in_use=self._rdma_slots.in_use,
        )
        if self.scheduler is not None:
            monitors.check(
                len(self.scheduler) == 0,
                "server.scheduler_drained", self.name,
                "QoS scheduler still holds queued requests at teardown",
                queued=len(self.scheduler),
            )
        if self.pool is not None:
            self.pool.audit_teardown()
