"""The HPBD client: a block-device driver over native InfiniBand verbs.

Structure follows §4.2.3/§5 of the paper:

* the driver exposes a standard request queue to the VM (so all the
  block-layer merging/plugging applies untouched);
* a **sender thread** takes merged requests off the queue, splits each
  into per-server *physical requests* (blocking distribution), copies
  swap-out data into the pre-registered pool, takes a flow-control
  credit, and posts the control message;
* a **receiver thread** sleeps on the reply completion queue (one CQ
  shared by all server QPs), is woken by solicited-completion events,
  and drains *all* available replies per wakeup (bursty processing);
* the **water-mark flow control** (§4.2.4) is a per-server credit
  bucket sized to the pre-posted receive count — requests queue inside
  the driver when credits run out;
* a block request completes when every physical request has been
  acknowledged ("A request is successfully served when each physical
  request is replied with successful acknowledgment").

Reliability (§4.1: "Failure in page handling can adversely impact
system stability and even crash the system") — every physical request
is tracked as an *attempt* with its own send timestamp and deadline:

* one failure ladder serves every tenant: with ``request_timeout_usec``
  set, a watchdog expires overdue attempts, a failed attempt is retried
  with bounded backoff, then its server is marked dead and the request
  re-routes through the tenant's redundancy group (``mirror=True`` is
  an ``nway(2)`` ring: another copy; ``rs``: a degraded read).  An
  unprotected tenant is the degenerate group: its only re-route is the
  local swap disk (``degraded_mode="disk"``), else a typed error;
* with timeouts disabled (the default) there is no dead-set: a server
  error raises, except that a read may still fail over to a copy no
  attempt has tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ib import HCA, CompletionQueue, RecvWR, SendWR, connect_endpoints
from ..kernel.blockdev import Bio, BlockRequest, READ, RequestQueue, WRITE
from ..kernel.node import Node
from ..net.fabrics import IBParams, IB_DEFAULT, memcpy_cost
from ..obs.sketch import EWMA
from ..redundancy.policy import (
    RedundancyPolicy,
    ShardGroup,
    parity_row_entry,
    parity_token,
    rs_decode_usec,
    rs_encode_usec,
)
from ..simulator import (
    Event,
    SimulationError,
    Simulator,
    StatsRegistry,
    TokenBucket,
    WaitQueue,
    any_of,
)
from ..units import MiB, PAGE_SIZE, SECTOR_SIZE
from .pool import PoolBuffer, RegisteredPool
from .protocol import (
    CTRL_MSG_BYTES,
    OP_READ,
    OP_WRITE,
    PageReply,
    PageRequest,
    ProtocolError,
)
from .server import HPBDServer
from .striping import BlockingDistribution, Segment

__all__ = ["HPBDClient"]

#: where an unprotected tenant's requests go once a server is dead:
#: nowhere (the run fails) or the local swap "disk"
DEGRADED_MODES = ("none", "disk")

#: TCP-RTO-style estimator gains for the per-server RTT EWMAs driving
#: replica selection and the hedged-read deadline.
RTT_ALPHA = 0.125
RTTVAR_ALPHA = 0.25
#: replica selection: the read's first alive copy and a candidate both
#: need this many RTT samples, and the candidate must beat the first
#: copy by this margin, before reads steer.
SELECT_MIN_SAMPLES = 8
SELECT_MARGIN = 0.8
#: every Nth steered read probes the avoided copy instead, so its EWMA
#: keeps sampling and the steer can lift once it recovers.
SELECT_PROBE_EVERY = 16
#: hedged reads: no hedging until the estimator has this many samples.
HEDGE_MIN_SAMPLES = 4


@dataclass
class _Pending:
    """Book-keeping for one block request in flight."""

    req: BlockRequest
    nsegs: int
    done_segs: int = 0
    submit_time: float = 0.0


@dataclass(eq=False)
class _Inflight:
    """One physical request (segment x direction), however many attempts
    it takes to get acknowledged; identity-hashed (the catch-up registry
    keys entries by object)."""

    pending: _Pending
    seg: Segment
    op: str
    buf: PoolBuffer | None = None  # pool mode
    mr: object = None  # register-on-the-fly mode (MemoryRegion)
    #: first post time (block-level accounting; per-attempt times live
    #: on the _Attempt so retries never pollute the rtt span)
    sent_at: float = 0.0
    #: swap-out payload token, re-sent verbatim on every attempt
    token: object = None
    #: redundant writes: how many acknowledgements must still arrive
    #: before the shared buffer can be released and the segment counted
    #: done.
    copies_left: int = 1
    #: semi-sync writes: acknowledgements that must arrive before the
    #: segment counts *complete* (may be < copies_left under quarantine)
    need_acks: int = 1
    #: successful acknowledgements received so far
    acked: int = 0
    #: the block-level segment has been counted done (semi-sync writes
    #: complete before their straggler ack; tied reads complete on the
    #: first reply)
    completed: bool = False
    #: hedged reads: a tied request was already fired for this segment
    hedged: bool = False
    #: req_ids of this segment's attempts still awaiting a reply
    live_rids: set = field(default_factory=set)
    # -- erasure-coded (rs) state --
    #: parity data-token carried by this write's parity-shard attempts
    parity_token: object = None
    #: stripe-row interval this write holds the parity write gate for
    row_interval: tuple | None = None
    #: degraded read: the data shard is dead, k survivors are fetched
    #: and the lost shard is reconstructed from their replies
    degraded: bool = False
    #: shard index (within the group) being reconstructed
    lost_shard: int = 0
    #: servers currently assigned a degraded fetch
    degraded_servers: set = field(default_factory=set)
    #: parity-shard reply tokens collected for reconstruction
    parity_replies: list = field(default_factory=list)
    #: when the degraded fetch fan-out started (latency accounting)
    degraded_at: float = 0.0
    #: role index of ``seg.server`` within the redundancy group at issue
    #: time (stable across spare rebuilds, unlike the server id)
    shard_idx: int = 0
    #: servers that failed an attempt of this segment: a re-route never
    #: goes back to them (runs without timeouts have no dead-set)
    failed_servers: set = field(default_factory=set)


@dataclass
class _Attempt:
    """One posted control message awaiting its acknowledgement."""

    entry: _Inflight
    server: int
    offset: int
    sent_at: float
    deadline: float | None = None
    retries: int = 0
    #: when the watchdog should fire a tied request at an untried copy
    #: (None: hedging off, already fired, or not hedgeable)
    hedge_at: float | None = None
    #: this attempt *is* the tied request of a hedged read
    is_hedge: bool = False


class HPBDClient:
    """The block-device driver instance (one minor device).

    Construct, then run ``yield from client.connect()`` inside a process
    before submitting I/O; attach to the VM with
    ``node.swapon(client.queue, total_bytes)``.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        servers: list[HPBDServer],
        total_bytes: int,
        ib_params: IBParams = IB_DEFAULT,
        pool_bytes: int = MiB,
        credits_per_server: int = 16,
        name: str = "hpbd0",
        stats: StatsRegistry | None = None,
        register_on_fly: bool = False,
        stripe_bytes: int | None = None,
        server_area_base: int = 0,
        server_area_bases: list[int] | None = None,
        tenant: str | None = None,
        qos_weight: float = 1.0,
        distribution=None,
        mirror: bool = False,
        redundancy: ShardGroup | None = None,
        request_timeout_usec: float | None = None,
        max_retries: int = 2,
        retry_backoff_usec: float = 200.0,
        backoff_mult: float = 2.0,
        degraded_mode: str = "none",
        fallback_queue: RequestQueue | None = None,
        ewma_select: bool = False,
        hedge_reads: bool = False,
        hedge_k: float = 4.0,
        hedge_min_usec: float = 50.0,
        health=None,
    ) -> None:
        if not servers:
            raise ValueError("HPBD needs at least one memory server")
        if degraded_mode not in DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode {degraded_mode!r} not in {DEGRADED_MODES}"
            )
        if degraded_mode == "disk" and fallback_queue is None:
            raise ValueError("disk degraded mode needs a fallback_queue")
        if request_timeout_usec is not None and request_timeout_usec <= 0:
            raise ValueError(f"bad request timeout {request_timeout_usec}")
        if redundancy is not None and redundancy.policy.kind == "none":
            redundancy = None
        if mirror:
            if redundancy is not None:
                raise ValueError(
                    "pass mirror or redundancy, not both (mirror is "
                    "nway(2) under the policy layer)"
                )
            if len(servers) < 2:
                raise ValueError("mirroring needs at least two servers")
            # Reliability extension (§4.1 points at NRD [13] / RRMP):
            # mirroring is the two-copy replica ring over the whole
            # fleet — server i's chunk is copied to server i+1 (mod n)
            # behind that server's own share.
            redundancy = ShardGroup(
                RedundancyPolicy("nway", k=1, m=1),
                list(range(len(servers))),
                total_bytes // len(servers),
            )
        if redundancy is not None:
            if degraded_mode != "none":
                raise ValueError(
                    "redundancy subsumes the degraded modes: rs reads "
                    "reconstruct, nway reads fail over"
                )
            bad = [
                s
                for s in redundancy.servers
                if not 0 <= s < len(servers)
            ]
            if bad:
                raise ValueError(
                    f"redundancy group names servers {bad}, fleet has "
                    f"{len(servers)}"
                )
        if (ewma_select or hedge_reads) and (
            redundancy is None or redundancy.policy.kind != "nway"
        ):
            raise ValueError(
                "EWMA replica selection / hedged reads need a replica "
                "ring (mirror=True or an nway group)"
            )
        if hedge_k <= 0 or hedge_min_usec < 0:
            raise ValueError(f"bad hedge parameters ({hedge_k}, {hedge_min_usec})")
        self.sim = sim
        self.node = node
        self.servers = servers
        self.total_bytes = total_bytes
        self.name = name
        self.stats = stats if stats is not None else node.stats
        #: ablation switch (§4.1): register each request's pages on the
        #: fly instead of copying through the pre-registered pool.
        self.register_on_fly = register_on_fly
        #: where this client's area starts inside each server's store
        #: (lets one server serve several clients, §5).  The cluster
        #: placement layer hands per-server bases; the scalar form keeps
        #: the original one-base-everywhere behaviour.
        if server_area_bases is not None:
            if len(server_area_bases) != len(servers):
                raise ValueError(
                    f"{len(server_area_bases)} area bases for "
                    f"{len(servers)} servers"
                )
            if server_area_base:
                raise ValueError(
                    "pass server_area_base or server_area_bases, not both"
                )
            self.server_area_bases = list(server_area_bases)
        else:
            self.server_area_bases = [server_area_base] * len(servers)
        #: cluster identity: tags this driver's traffic on every server
        #: (per-tenant accounting + weighted-fair service).
        self.tenant = tenant
        if qos_weight <= 0:
            raise ValueError(f"bad qos weight {qos_weight}")
        self.qos_weight = qos_weight
        if redundancy is not None and stripe_bytes is not None:
            raise ValueError("a redundancy group lays its own chunk map")
        if redundancy is not None and distribution is None:
            # Standalone (non-cluster) construction: derive the chunk
            # map from the group so driver unit tests need no planner.
            from .striping import ChunkMapDistribution, group_chunk_maps

            data_chunks, parity_chunks = group_chunk_maps(
                redundancy, total_bytes
            )
            distribution = ChunkMapDistribution(
                total_bytes, len(servers), data_chunks, parity_chunks
            )
        if distribution is not None:
            # Custom layout (a cluster grant, the cooperative broker's).
            if distribution.total_bytes != total_bytes:
                raise ValueError(
                    f"distribution covers {distribution.total_bytes} bytes, "
                    f"device is {total_bytes}"
                )
            if distribution.nservers != len(servers):
                raise ValueError(
                    f"distribution names {distribution.nservers} servers, "
                    f"got {len(servers)}"
                )
            self.dist = distribution
        elif stripe_bytes is None:
            self.dist = BlockingDistribution(total_bytes, len(servers))
        else:
            # ablation switch (§4.2.5): striped layout the paper rejects
            from .striping import StripedDistribution

            self.dist = StripedDistribution(
                total_bytes, len(servers), stripe_bytes
            )
        if degraded_mode == "disk" and not hasattr(self.dist, "absolute_offset"):
            raise ValueError(
                "disk degraded mode needs a distribution with contiguous "
                "device-space segments (blocking layout)"
            )
        ring = redundancy is not None and redundancy.policy.kind == "nway"
        if ring and any(
            self.dist.share_of(s) != redundancy.share_bytes
            for s in redundancy.servers
        ):
            raise ValueError(
                f"{redundancy.policy.label} ring needs an equal "
                f"{redundancy.share_bytes} B share on every member"
            )
        #: erasure-coded / replicated remote memory: the ShardGroup maps
        #: group members to shard roles (rs: k data + m parity; nway:
        #: every member data, r-1 ring replicas each).
        self.redundancy = redundancy
        for i, srv in enumerate(servers):
            if redundancy is not None:
                if i not in redundancy.servers:
                    continue
                need = redundancy.member_need_bytes()
            else:
                need = self.dist.share_of(i)
                if not need:
                    # Chunk-map layouts may leave a fleet server unused
                    # by this tenant; nothing to size against.
                    continue
            need += self.server_area_bases[i]
            if srv.ramdisk.size < need:
                raise ValueError(
                    f"server {srv.name} RamDisk ({srv.ramdisk.size} B) too "
                    f"small: needs {need} B"
                    + (" (share + replica area)" if ring else "")
                )
        self.queue = RequestQueue(
            sim,
            name=f"{name}.rq",
            capacity_sectors=total_bytes // SECTOR_SIZE,
            stats=self.stats,
        )
        self.hca = HCA(sim, node.fabric, node.name, params=ib_params, stats=self.stats)
        self.pd = self.hca.alloc_pd()
        self.send_cq = self.hca.create_cq(f"{name}.scq")
        #: single reply CQ shared across all server QPs (§5)
        self.reply_cq: CompletionQueue = self.hca.create_cq(f"{name}.rcq")
        self.pool_bytes = pool_bytes
        self.credits_per_server = credits_per_server
        self.pool: RegisteredPool | None = None
        self._qps: list = []
        self._server_qps: list = []  # the servers' ends, index-aligned
        self._qp_index: dict[int, int] = {}  # qp_num -> server index
        self._credits: list[TokenBucket] = []
        self._inflight: dict[int, _Attempt] = {}
        self._connected = False
        # recovery state machine
        self.request_timeout_usec = request_timeout_usec
        self.max_retries = max_retries
        self.retry_backoff_usec = retry_backoff_usec
        self.backoff_mult = backoff_mult
        self.degraded_mode = degraded_mode
        self.fallback_queue = fallback_queue
        #: drop (and count) replies failing signature validation instead
        #: of raising — set by the fault injector; the watchdog then
        #: retransmits the affected request.
        self.drop_bad_ctrl = False
        self._dead: set[int] = set()
        #: req_ids whose attempt the watchdog abandoned (credit already
        #: reclaimed): a late reply is counted and discarded, not fatal.
        self._stale: set[int] = set()
        self._watch_wake = WaitQueue(sim, name=f"{name}.watchdog", latch=True)
        self._watchdog_spawned = False
        # fail-slow countermeasures (nway rings, mirror included): EWMA
        # replica selection, hedged reads, quarantine-aware semi-sync
        # writes
        self.ewma_select = ewma_select
        self.hedge_reads = hedge_reads
        self.hedge_k = hedge_k
        self.hedge_min_usec = hedge_min_usec
        self._srtt = [EWMA(RTT_ALPHA) for _ in servers]
        self._rttvar = [EWMA(RTTVAR_ALPHA) for _ in servers]
        self._steer_count = 0
        self._quarantined: set[int] = set()
        #: req_id -> (server, sent_at) for cancelled tied attempts: the
        #: loser's late reply still feeds the RTT estimators — a
        #: steered-away server must keep sampling or the steer (and the
        #: health hub's verdict) could never lift.
        self._stale_rtt: dict[int, tuple[int, float]] = {}
        #: deadline the sleeping watchdog currently targets (None while
        #: idle or processing); posts that undercut it wake the watchdog.
        self._watch_target: float | None = None
        # erasure-coded (rs) write path: the parity token of a stripe
        # row must reflect every data shard's current token, so the
        # client keeps the per-row k-tuple cache and serializes parity
        # updates of overlapping rows through an interval write gate
        # (the server may apply concurrent requests out of order).
        self._rows: dict[int, list] = {}
        self._locked_rows: list[tuple[int, int]] = []
        self._row_gate = WaitQueue(sim, name=f"{name}.row_gate")
        #: rs writes whose dead data shard was skipped, awaiting a
        #: catch-up post once repair brings the shard back
        self._open_writes: set = set()
        #: test hook: set to a list to log (server, row_offset, entries)
        #: per reconstructed degraded read
        self.recovered_log: list | None = None
        # measurement
        self._t_req = self.stats.tally(f"{name}.request_usec")
        self._c_phys = self.stats.counter(f"{name}.physical_requests")
        self._c_split = self.stats.counter(f"{name}.split_requests")
        self._c_retries = self.stats.counter(f"{name}.retries")
        self._c_timeouts = self.stats.counter(f"{name}.timeouts")
        self._c_failovers = self.stats.counter(f"{name}.failovers")
        self._c_write_failovers = self.stats.counter(f"{name}.write_failovers")
        self._c_disk_fallbacks = self.stats.counter(f"{name}.disk_fallbacks")
        self._c_stale = self.stats.counter(f"{name}.stale_replies")
        self._c_nacks = self.stats.counter(f"{name}.nacks")
        self._c_dead = self.stats.counter(f"{name}.servers_dead")
        self._c_hedges = self.stats.counter(f"{name}.hedges")
        self._c_hedge_wins = self.stats.counter(f"{name}.hedge_wins")
        self._c_steered = self.stats.counter(f"{name}.steered_reads")
        self._c_quarantines = self.stats.counter(f"{name}.quarantines")
        self._c_quarantine_lifts = self.stats.counter(f"{name}.quarantine_lifts")
        self._c_semisync = self.stats.counter(f"{name}.semisync_writes")
        self._c_degraded = self.stats.counter(f"{name}.degraded_reads")
        self._c_reconstructs = self.stats.counter(f"{name}.reconstructs")
        self._c_row_gate = self.stats.counter(f"{name}.row_gate_waits")
        self._t_degraded = self.stats.tally(f"{name}.degraded_read_usec")
        self.copy_usec = 0.0  # client-side memcpy (host overhead share)
        #: fleet health sink (repro.obs.health.HealthHub) — fed per-server
        #: RTTs, per-tenant request latencies, and failed attempts; the
        #: cluster runner shares one hub across every tenant's driver.
        self.health = health

    # -- setup ---------------------------------------------------------------

    def connect(self):
        """Register the pool, connect every server, start the threads;
        generator — run inside a process."""
        if self._connected:
            raise SimulationError(f"{self.name} already connected")
        mr = yield from self.hca.register_mr(self.pd, self.pool_bytes)
        self.pool = RegisteredPool(
            self.sim,
            size=self.pool_bytes,
            base_addr=mr.addr,
            rkey=mr.rkey,
            name=f"{self.name}.pool",
            stats=self.stats,
        )
        for i, srv in enumerate(self.servers):
            if not srv.started:
                yield from srv.start()
            qp_c, qp_s = yield from connect_endpoints(
                self.hca,
                self.pd,
                self.send_cq,
                self.reply_cq,
                srv.hca,
                srv.pd,
                srv.send_cq,
                srv.recv_cq,
                max_recv_wr=max(256, self.credits_per_server),
            )
            self._qps.append(qp_c)
            self._server_qps.append(qp_s)
            self._qp_index[qp_c.qp_num] = i
            self._credits.append(
                TokenBucket(
                    self.sim,
                    self.credits_per_server,
                    name=f"{self.name}.credits{i}",
                )
            )
            # Pre-post several water-marks' worth of reply receives:
            # timeouts return credits before the matching replies
            # arrive, so retry bursts (plus stale replies) can put more
            # than one water-mark of acknowledgements in flight.
            depth = min(4 * self.credits_per_server, qp_c.max_recv_wr)
            for _ in range(depth):
                qp_c.post_recv(RecvWR(capacity=CTRL_MSG_BYTES))
            srv.register_client(
                qp_s,
                area_base=self.server_area_bases[i],
                tenant=self.tenant,
                credits=self.credits_per_server,
                weight=self.qos_weight,
            )
        self.sim.spawn(self._sender(), name=f"{self.name}.sender")
        self.sim.spawn(self._receiver(), name=f"{self.name}.receiver")
        if self.request_timeout_usec is not None or self.hedge_reads:
            self.sim.spawn(self._watchdog(), name=f"{self.name}.watchdog")
            self._watchdog_spawned = True
        self._connected = True

    # -- sender thread ---------------------------------------------------------

    def _sender(self):
        sim = self.sim
        while True:
            req = yield self.queue.next_request()
            segs = self.dist.split(req.sector * SECTOR_SIZE, req.nbytes)
            if len(segs) > 1:
                self._c_split.add()
            pending = _Pending(req=req, nsegs=len(segs), submit_time=sim.now)
            for seg in segs:
                yield from self._issue_segment(pending, seg, req)

    def _issue_segment(self, pending: _Pending, seg: Segment, req: BlockRequest):
        """Buffer setup + first attempt(s) for one physical request."""
        sim = self.sim
        trace = sim.trace
        token = None
        if req.op == WRITE:
            token = (self.name, req.sector, seg.server_offset, seg.nbytes)
        entry = _Inflight(pending=pending, seg=seg, op=req.op, token=token)
        if self.redundancy is not None and req.op == WRITE:
            # Open-writes registry: any copy of this write may still be
            # unapplied somewhere until the last ack, so repair's
            # notify_* hooks post catch-up copies against it.
            entry.shard_idx = self.redundancy.shard_index(seg.server)
            self._open_writes.add(entry)
        if (
            self.redundancy is not None
            and self.redundancy.policy.kind == "rs"
            and req.op == WRITE
        ):
            # Parity updates of one stripe row must be strictly ordered:
            # take the row-interval gate, then fold this write into the
            # per-row cache and build the parity token under it.
            yield from self._acquire_rows(entry)
            self._update_parity_cache(entry)
        targets = self._fresh_targets(entry)
        if not targets:
            # Disk degraded mode with the primary already dead: the
            # segment never touches the network.
            self._c_disk_fallbacks.add()
            sim.spawn(self._fallback_io(entry), name=f"{self.name}.fallback")
            return
        if self.register_on_fly:
            # Ablation (§4.1's rejected alternative): pin the request's
            # pages and expose them directly — no copy, but the full
            # registration cost per request.
            entry.mr = yield from self.hca.register_mr(
                self.pd, seg.nbytes, req_id=req.req_id
            )
        else:
            t_pool = sim.now
            entry.buf = yield from self.pool.alloc(seg.nbytes)
            if trace.enabled and sim.now > t_pool:
                trace.complete(
                    self.name, "sender", "pool_alloc", "hpbd.pool",
                    t_pool, sim.now,
                    req_id=req.req_id, nbytes=seg.nbytes,
                )
            if req.op == WRITE:
                # Copy the pages into the registered pool (the cost
                # HPBD accepts instead of registration).
                cost = memcpy_cost(seg.nbytes)
                self.copy_usec += cost
                t_copy = sim.now
                yield from self.node.cpus.run(cost)
                if trace.enabled:
                    trace.complete(
                        self.name, "sender", "copy_in", "hpbd.copy",
                        t_copy, sim.now,
                        req_id=req.req_id, nbytes=seg.nbytes,
                    )
        if entry.parity_token is not None:
            # GF(256) encode: m multiply-XOR passes over the extent
            # produce the parity deltas the parity shards apply.
            cost = rs_encode_usec(seg.nbytes, self.redundancy.policy)
            t_enc = sim.now
            yield from self.node.cpus.run(cost)
            if trace.enabled:
                trace.complete(
                    self.name, "sender", "parity_encode", "hpbd.parity",
                    t_enc, sim.now,
                    req_id=req.req_id, nbytes=seg.nbytes,
                )
        # Synchronous redundant writes: the same buffer is RDMA-read by
        # every copy's server; the segment completes only when all ack.
        entry.copies_left = len(targets)
        entry.need_acks = len(targets)
        if entry.op == WRITE and len(targets) > 1 and self.ewma_select:
            limping = [
                server
                for server, _ in targets
                if self._is_quarantined(server)
            ]
            if limping:
                # Semi-sync writes: a quarantined copy's ack stops
                # gating completion.  Every copy still lands (reads
                # after the quarantine lifts stay correct) and the pool
                # buffer is held until every ack, so the stragglers'
                # RDMA reads stay valid.
                entry.need_acks = max(1, len(targets) - len(limping))
                self._c_semisync.add()
        for server, offset in targets:
            yield from self._post_attempt(entry, server, offset)

    def _fresh_targets(self, entry: _Inflight) -> list[tuple[int, int]]:
        """Where a brand-new segment goes, honouring dead servers.

        Returns ``(server, store_offset)`` pairs: one per alive copy of
        a redundant write, one for a read, none for straight-to-disk
        fallback.  rs(k,m): a write lands on its data shard plus every
        alive parity shard (all at the same stripe-row offset); with
        the data shard dead the write goes parity-only and repair posts
        a catch-up later.  A read goes to the data shard, or fans out
        degraded.  nway(r): a write lands on every alive ring copy, a
        read on the first alive copy in ring order (or the fastest one
        under EWMA selection).
        """
        group = self.redundancy
        seg = entry.seg
        if group is None:
            if seg.server not in self._dead:
                return [(seg.server, seg.server_offset)]
            if self.degraded_mode == "disk":
                return []
            raise SimulationError(
                f"{self.name}: server {seg.server} is dead and no "
                f"degraded mode is configured"
            )
        pol = group.policy
        if pol.kind == "rs":
            row = seg.server_offset
            if entry.op == WRITE:
                targets = []
                if seg.server not in self._dead:
                    targets.append((seg.server, row))
                else:
                    # Parity-only write: the parity token still encodes
                    # the update, so nothing is lost — the data shard
                    # catches up when repair brings it back.
                    self._c_write_failovers.add()
                alive_parity = [
                    s for s in group.parity_servers if s not in self._dead
                ]
                targets += [(s, row) for s in alive_parity]
                if not targets:
                    raise SimulationError(
                        f"{self.name}: write segment {seg} has no alive "
                        f"shard left ({pol.label} beyond tolerance)"
                    )
                return targets
            if seg.server not in self._dead:
                return [(seg.server, row)]
            return self._degraded_target_list(entry)
        copies = self._ring_copies(seg)
        alive = [(s, off) for s, off in copies if s not in self._dead]
        if not alive:
            raise SimulationError(
                f"{self.name}: segment {seg} lost all {len(copies)} copies"
            )
        if entry.op == WRITE:
            if len(alive) < len(copies):
                self._c_write_failovers.add()
            return alive
        if alive[0][0] != seg.server:
            self._c_failovers.add()
        if self.ewma_select:
            return [self._pick_read_copy(alive)]
        return alive[:1]

    def _ring_copies(self, seg: Segment) -> list[tuple[int, int]]:
        """Every ``(server, store_offset)`` copy of a segment in an nway
        ring, in ring order: copy j of member i's chunk lives on member
        (i+j) at store offset ``j * share``."""
        group = self.redundancy
        pos = group.shard_index(seg.server)
        g = len(group.servers)
        return [
            (
                group.servers[(pos + j) % g],
                j * group.share_bytes + seg.server_offset,
            )
            for j in range(group.policy.m + 1)
        ]

    def _untried_copy(
        self, entry: _Inflight, server: int
    ) -> tuple[int, int] | None:
        """First alive ring copy of a read that no attempt has tried:
        neither ``server`` (the attempt in hand) nor a failed one."""
        tried = {server} | entry.failed_servers
        for s, off in self._ring_copies(entry.seg):
            if s not in self._dead and s not in tried:
                return s, off
        return None

    # -- redundancy (rs / nway) data path -----------------------------------

    def _degraded_target_list(
        self, entry: _Inflight
    ) -> list[tuple[int, int]]:
        """Set up a degraded rs read: pick k survivors (parity first —
        reconstruction needs at least one parity token) and mark the
        entry so the receiver collects shard replies."""
        group = self.redundancy
        pol = group.policy
        seg = entry.seg
        avoid = self._dead | entry.failed_servers
        parity = [s for s in group.parity_servers if s not in avoid]
        data = [
            s
            for s in group.data_servers
            if s not in avoid and s != seg.server
        ]
        cands = parity + data
        if len(cands) < pol.k or not parity:
            raise SimulationError(
                f"{self.name}: segment {seg} unrecoverable — {pol.label} "
                f"stripe has {len(cands)} survivors "
                f"({len(parity)} parity), needs {pol.k} incl. parity"
            )
        chosen = cands[: pol.k]
        entry.degraded = True
        entry.lost_shard = group.shard_index(seg.server)
        entry.degraded_servers = set(chosen)
        entry.degraded_at = self.sim.now
        self._c_degraded.add()
        self.sim.trace.instant(
            self.name, "recovery", "degraded_read",
            req_id=entry.pending.req.req_id,
            server=seg.server, shard=entry.lost_shard,
        )
        return [(s, seg.server_offset) for s in chosen]

    def _acquire_rows(self, entry: _Inflight):
        """Block until no in-flight rs write overlaps this write's
        stripe rows; generator.  Server-side service is not FIFO (fair
        scheduling, RDMA slot contention), so without this gate two
        overlapping writes could land their parity updates in opposite
        order on different parity shards."""
        seg = entry.seg
        lo, hi = seg.server_offset, seg.server_offset + seg.nbytes
        while any(lo < h and l < hi for l, h in self._locked_rows):
            self._c_row_gate.add()
            yield self._row_gate.wait()
        entry.row_interval = (lo, hi)
        self._locked_rows.append(entry.row_interval)

    def _release_rows(self, entry: _Inflight) -> None:
        if entry.row_interval is None:
            return
        self._locked_rows.remove(entry.row_interval)
        entry.row_interval = None
        self._row_gate.wake_all()

    def _update_parity_cache(self, entry: _Inflight) -> None:
        """Fold this write into the per-row data-token cache and build
        the parity token its parity-shard attempts carry (the token-level
        image of the GF(256) parity over the stripe)."""
        group = self.redundancy
        pol = group.policy
        seg = entry.seg
        shard = group.shard_index(seg.server)
        row0 = seg.server_offset // PAGE_SIZE
        rows_payload = []
        for p in range(seg.nbytes // PAGE_SIZE):
            row = row0 + p
            cur = self._rows.get(row)
            if cur is None:
                cur = [None] * pol.k
                self._rows[row] = cur
            cur[shard] = (entry.token, p)
            rows_payload.append((row, tuple(cur)))
        entry.parity_token = parity_token(tuple(rows_payload))

    def _reconstruct_segment(self, entry: _Inflight):
        """All k degraded fetches acked: charge the GF(256) decode and
        recover the lost shard's per-page entries from a surviving
        parity token; generator."""
        sim = self.sim
        pol = self.redundancy.policy
        seg = entry.seg
        if not entry.parity_replies:
            raise SimulationError(
                f"{self.name}: degraded read of segment {seg} got no "
                f"parity reply — stripe lost beyond tolerance"
            )
        yield from self.node.cpus.run(rs_decode_usec(seg.nbytes, pol))
        row0 = seg.server_offset // PAGE_SIZE
        recovered = []
        for p in range(seg.nbytes // PAGE_SIZE):
            got = None
            for ptok_entries in entry.parity_replies:
                got = parity_row_entry(
                    ptok_entries[p], row0 + p, entry.lost_shard
                )
                if got is not None:
                    break
            # None is legitimate: the row (or the lost shard's column)
            # was never written, i.e. a zero page.
            recovered.append(got)
        self._c_reconstructs.add()
        self._t_degraded.record(sim.now - entry.degraded_at)
        if self.recovered_log is not None:
            self.recovered_log.append(
                (seg.server, seg.server_offset, tuple(recovered))
            )
        if sim.trace.enabled:
            sim.trace.complete(
                self.name, "recovery", "degraded_read", "hpbd.degraded",
                entry.degraded_at, sim.now,
                req_id=entry.pending.req.req_id,
                server=seg.server, shard=entry.lost_shard,
                nbytes=seg.nbytes,
            )

    def _pick_read_copy(
        self, alive: list[tuple[int, int]]
    ) -> tuple[int, int]:
        """EWMA replica selection over a read's alive ring copies: steer
        from the first copy to the fastest other one, with quarantine
        verdicts taking precedence and a deterministic probe keeping the
        first copy sampled (so a recovered server wins its traffic
        back)."""
        home = alive[0]
        if len(alive) == 1:
            return home
        home_q = self._is_quarantined(home[0])
        healthy = [c for c in alive[1:] if not self._is_quarantined(c[0])]
        srtt = self._srtt
        if home_q and healthy:
            picks = healthy
        else:
            srtt_h = srtt[home[0]]
            picks = [
                c
                for c in (alive[1:] if home_q else healthy)
                if srtt_h.count >= SELECT_MIN_SAMPLES
                and srtt[c[0]].count >= SELECT_MIN_SAMPLES
                and srtt[c[0]].value < SELECT_MARGIN * srtt_h.value
            ]
        if not picks:
            return home
        self._steer_count += 1
        if self._steer_count % SELECT_PROBE_EVERY == 0:
            return home
        self._c_steered.add()
        return min(
            picks,
            key=lambda c: srtt[c[0]].value if srtt[c[0]].count else math.inf,
        )

    def _is_quarantined(self, server: int) -> bool:
        """Health-hub fail-slow verdict, with per-client edge tracking
        so quarantine entry/lift show up in counters and the trace."""
        if self.health is None:
            return False
        flagged = self.health.server_is_slow(server)
        if flagged and server not in self._quarantined:
            self._quarantined.add(server)
            self._c_quarantines.add()
            self.sim.trace.instant(
                self.name, "recovery", "quarantine", server=server,
            )
        elif not flagged and server in self._quarantined:
            self._quarantined.discard(server)
            self._c_quarantine_lifts.add()
            self.sim.trace.instant(
                self.name, "recovery", "quarantine_lift", server=server,
            )
        return flagged

    def _observe_rtt(self, server: int, rtt: float) -> None:
        """Fold one post-to-ack round trip into the per-server
        estimators (and the fleet health hub's own detector)."""
        srtt = self._srtt[server]
        if srtt.count:
            self._rttvar[server].update(abs(rtt - srtt.value))
        else:
            self._rttvar[server].update(rtt / 2.0)
        srtt.update(rtt)
        if self.health is not None:
            self.health.record_server_rtt(server, rtt)

    def _hedge_delay(self, server: int) -> float | None:
        """EWMA-derived percentile deadline (TCP-RTO shape): srtt +
        hedge_k * rttvar, floored at hedge_min_usec; ``None`` until the
        estimator has enough samples to trust."""
        srtt = self._srtt[server]
        if srtt.count < HEDGE_MIN_SAMPLES:
            return None
        return max(
            self.hedge_min_usec,
            srtt.value + self.hedge_k * self._rttvar[server].value,
        )

    def _post_attempt(
        self,
        entry: _Inflight,
        server: int,
        offset: int,
        retries: int = 0,
        is_hedge: bool = False,
    ):
        """Take a credit and post one control message; generator."""
        sim = self.sim
        trace = sim.trace
        if entry.completed:
            return  # a tied attempt already won while this one queued
        blk_req_id = entry.pending.req.req_id
        t_credit = sim.now
        yield self._credits[server].acquire()
        if trace.enabled and sim.now > t_credit:
            trace.complete(
                self.name, "sender", "credit_wait", "hpbd.credit",
                t_credit, sim.now,
                req_id=blk_req_id, server=server,
            )
        if entry.completed:
            # Lost the tie while waiting for a credit.
            self._credits[server].release()
            return
        if server in self._dead:
            # Lost a race: the target died while we waited for a credit.
            self._credits[server].release()
            if entry.op == READ and entry.live_rids and not entry.degraded:
                return  # a tied attempt on the other copy carries the read
            self._reroute(entry, server)
            return
        data_token = entry.token
        if (
            entry.parity_token is not None
            and server in self.redundancy.parity_servers
        ):
            # A parity shard stores the stripe's parity token, not the
            # write's own payload token.
            data_token = entry.parity_token
        preq = PageRequest(
            op=OP_WRITE if entry.op == WRITE else OP_READ,
            offset=offset,
            nbytes=entry.seg.nbytes,
            buf_addr=self._entry_addr(entry),
            buf_rkey=self._entry_rkey(entry),
            data_token=data_token,
            blk_req_id=blk_req_id,
        )
        now = sim.now
        if entry.sent_at == 0.0:
            entry.sent_at = now
        deadline = None
        if self.request_timeout_usec is not None:
            deadline = now + self.request_timeout_usec
        hedge_at = None
        if (
            self.hedge_reads
            and not is_hedge
            and entry.op == READ
            and not entry.hedged
            and self._untried_copy(entry, server) is not None
        ):
            delay = self._hedge_delay(server)
            if delay is not None:
                hedge_at = now + delay
        self._inflight[preq.req_id] = _Attempt(
            entry=entry,
            server=server,
            offset=offset,
            sent_at=now,
            deadline=deadline,
            retries=retries,
            hedge_at=hedge_at,
            is_hedge=is_hedge,
        )
        entry.live_rids.add(preq.req_id)
        self._c_phys.add(entry.seg.nbytes)
        self._qps[server].post_send(
            SendWR(
                nbytes=CTRL_MSG_BYTES,
                payload=preq,
                signaled=False,
                solicited=False,
                req_id=blk_req_id,
            )
        )
        self._arm_watchdog(deadline, hedge_at)

    def _arm_watchdog(
        self, deadline: float | None, hedge_at: float | None
    ) -> None:
        """Wake the watchdog if this attempt needs service before the
        target it is currently sleeping to — hedge schedules undercut
        the constant-timeout ladder, so "new attempts always deadline
        later" no longer holds."""
        if not self._watchdog_spawned:
            return
        need = deadline
        if hedge_at is not None and (need is None or hedge_at < need):
            need = hedge_at
        if need is None:
            return
        if self._watch_target is None or need < self._watch_target:
            self._watch_wake.wake_one()

    def _entry_addr(self, entry: _Inflight) -> int:
        # Register-on-the-fly keeps the data in the per-request MR, not
        # the pool — failovers and retries must target whichever buffer
        # this entry actually uses.
        if entry.buf is not None:
            return self.pool.buffer_addr(entry.buf)
        return entry.mr.addr

    def _entry_rkey(self, entry: _Inflight) -> int:
        if entry.buf is not None:
            return self.pool.rkey
        return entry.mr.rkey

    # -- receiver thread ---------------------------------------------------------

    def _receiver(self):
        sim = self.sim
        rcq = self.reply_cq
        while True:
            # Arm, then drain once more before sleeping (race-free order).
            # Solicited-only: replies carry the solicitation bit (§5).
            rcq.request_notify(solicited_only=True)
            if len(rcq) == 0:
                yield rcq.wait_event()
            # Bursty processing: handle everything available, then sleep.
            for cqe in rcq.poll():
                reply: PageReply = cqe.payload
                server_idx = self._qp_index[cqe.qp_num]
                # Replenish the consumed reply receive before anything
                # else, keeping posted-receives >= credits.
                self._qps[server_idx].post_recv(RecvWR(capacity=CTRL_MSG_BYTES))
                try:
                    reply.validate()
                except ProtocolError:
                    if not self.drop_bad_ctrl:
                        raise
                    # Nothing in a corrupted acknowledgement can be
                    # trusted, including its req_id: drop it and let the
                    # watchdog retransmit the affected request.
                    self.stats.counter(f"{self.name}.bad_replies").add()
                    continue
                att = self._inflight.pop(reply.req_id, None)
                if att is None:
                    if reply.req_id in self._stale:
                        # The watchdog (or a winning tied attempt) gave
                        # up on this attempt and its credit was
                        # reclaimed; the answer showed up after all.
                        self._stale.discard(reply.req_id)
                        self._c_stale.add()
                        meta = self._stale_rtt.pop(reply.req_id, None)
                        if meta is not None and reply.ok:
                            # A cancelled tie's late reply is still a
                            # valid service-time sample for its server.
                            self._observe_rtt(meta[0], sim.now - meta[1])
                        continue
                    raise SimulationError(
                        f"{self.name}: reply for unknown request {reply.req_id}"
                    )
                self._credits[att.server].release()
                entry = att.entry
                entry.live_rids.discard(reply.req_id)
                if not reply.ok:
                    if reply.nack:
                        # Typed back-pressure (pool exhaustion /
                        # admission bound): retryable by design.
                        self._c_nacks.add()
                        self._fail_attempt(att, cause="nack")
                    else:
                        self._fail_attempt(att, cause="error")
                    continue
                # Per-server service signal for the EWMA selectors and
                # the fail-slow detector: post-to-ack round trip.
                self._observe_rtt(att.server, sim.now - att.sent_at)
                entry.acked += 1
                entry.copies_left -= 1
                if (
                    entry.degraded
                    and self.redundancy is not None
                    and att.server in self.redundancy.parity_servers
                ):
                    # A parity shard's reply carries the stripe's parity
                    # token; reconstruction reads the lost column out of
                    # it once all k fetches are in.
                    entry.parity_replies.append(reply.data_token)
                if entry.op == READ and entry.live_rids and not entry.degraded:
                    # First reply wins a tied (hedged) read; cancel the
                    # losers and reclaim their credits.
                    self._cancel_losers(entry, att)
                trace = sim.trace
                if entry.copies_left > 0:
                    if not entry.completed and entry.acked >= entry.need_acks:
                        # Semi-sync mirrored write: the fast copy's ack
                        # completes the block request; the quarantined
                        # straggler only gates the buffer release.
                        if trace.enabled:
                            trace.complete(
                                self.name, "receiver", "phys_rtt",
                                "hpbd.rtt", att.sent_at, sim.now,
                                req_id=entry.pending.req.req_id,
                                op=entry.op, nbytes=entry.seg.nbytes,
                                server=att.server,
                            )
                        self._complete_segment(entry)
                    continue  # mirrored write: wait for the other copy
                if entry.completed:
                    # Straggler ack of a semi-sync write: release the
                    # shared buffer, nothing left to complete.
                    yield from self._release_buffers(entry, copy_out=False)
                    continue
                if trace.enabled:
                    # Physical request round trip: control message out
                    # to acknowledgement drained from the reply CQ —
                    # this attempt's only; failed attempts are billed to
                    # their own hpbd.timeout/hpbd.failover spans.
                    trace.complete(
                        self.name, "receiver", "phys_rtt", "hpbd.rtt",
                        att.sent_at, sim.now,
                        req_id=entry.pending.req.req_id, op=entry.op,
                        nbytes=entry.seg.nbytes, server=att.server,
                    )
                yield from self._finish_segment(entry)

    def _cancel_losers(self, entry: _Inflight, winner: _Attempt) -> None:
        """First reply of a tied read wins: reclaim the losers' credits
        and mark their replies stale (counted and discarded on arrival —
        the same convention the watchdog uses for timed-out attempts)."""
        sim = self.sim
        trace = sim.trace
        for rid in list(entry.live_rids):
            loser = self._inflight.pop(rid, None)
            entry.live_rids.discard(rid)
            if loser is None:
                continue
            self._credits[loser.server].release()
            self._stale.add(rid)
            self._stale_rtt[rid] = (loser.server, loser.sent_at)
            if winner.is_hedge and not loser.is_hedge:
                self._c_hedge_wins.add()
                if trace.enabled:
                    # The primary attempt's window the hedge rescued.
                    trace.complete(
                        self.name, "recovery", "hedge_win",
                        "hpbd.hedge_win", loser.sent_at, sim.now,
                        req_id=entry.pending.req.req_id,
                        server=loser.server, hedge_server=winner.server,
                    )
            elif loser.is_hedge and trace.enabled:
                # The hedge lost the race: its window was pure overhead.
                trace.complete(
                    self.name, "recovery", "hedge_waste",
                    "hpbd.hedge_waste", loser.sent_at, sim.now,
                    req_id=entry.pending.req.req_id,
                    server=winner.server, hedge_server=loser.server,
                )

    def _finish_segment(self, entry: _Inflight, copy_out: bool = True):
        """Release buffers and complete the block request; generator."""
        if entry.degraded:
            yield from self._reconstruct_segment(entry)
        yield from self._release_buffers(entry, copy_out)
        self._complete_segment(entry)

    def _release_buffers(self, entry: _Inflight, copy_out: bool = True):
        """Return the segment's pool buffer / on-the-fly MR; generator."""
        sim = self.sim
        trace = sim.trace
        if entry.mr is not None:
            # Register-on-the-fly ablation: unpin (zero-copy).
            yield from self.hca.deregister_mr(
                self.pd, entry.mr, req_id=entry.pending.req.req_id
            )
        elif entry.buf is not None:
            if entry.op == READ and copy_out:
                # Data already landed in the pool via RDMA write; copy
                # it out to the page frames.
                cost = memcpy_cost(entry.seg.nbytes)
                self.copy_usec += cost
                t_copy = sim.now
                yield from self.node.cpus.run(cost)
                if trace.enabled:
                    trace.complete(
                        self.name, "receiver", "copy_out",
                        "hpbd.copy", t_copy, sim.now,
                        req_id=entry.pending.req.req_id,
                        nbytes=entry.seg.nbytes,
                    )
            self.pool.free(entry.buf)
        # All acks are in: every surviving copy of the write is applied,
        # so the catch-up registry and the row gate let go (a later
        # restore reads the update from the survivors instead).
        self._release_rows(entry)
        self._open_writes.discard(entry)

    def _complete_segment(self, entry: _Inflight) -> None:
        """Count the segment done; completes the block request when it
        was the last outstanding segment."""
        sim = self.sim
        trace = sim.trace
        entry.completed = True
        entry.pending.done_segs += 1
        if entry.pending.done_segs == entry.pending.nsegs:
            self._t_req.record(sim.now - entry.pending.submit_time)
            if self.health is not None:
                self.health.record_request(
                    self.tenant or self.name,
                    sim.now - entry.pending.submit_time,
                )
            if trace.enabled:
                req = entry.pending.req
                trace.complete(
                    self.name, "requests", "block_request",
                    "hpbd.request",
                    entry.pending.submit_time, sim.now,
                    req_id=req.req_id, op=req.op,
                    sector=req.sector, nbytes=req.nbytes,
                    nsegs=entry.pending.nsegs,
                )
            self.queue.complete(entry.pending.req)

    # -- recovery state machine ----------------------------------------------

    def _watchdog(self):
        """Expires overdue attempts and fires hedged reads; sleeps on a
        latch while idle so an otherwise-drained simulation still runs
        to completion."""
        sim = self.sim
        while True:
            target = None
            for att in self._inflight.values():
                for t in (att.deadline, att.hedge_at):
                    if t is not None and (target is None or t < target):
                        target = t
            if target is None:
                self._watch_target = None
                yield self._watch_wake.wait()
                continue
            if target > sim.now:
                # Race the sleep against the wake latch: a newly posted
                # attempt may need service *before* this target (hedge
                # schedules undercut the constant-timeout ladder, so the
                # old sleep-to-minimum-deadline shortcut no longer
                # holds); _arm_watchdog wakes us to re-aim.
                self._watch_target = target
                timer = sim.timeout(target - sim.now)
                wake = self._watch_wake.wait()
                idx, _value = yield any_of(sim, [timer, wake])
                self._watch_target = None
                if idx == 0:
                    # Timer fired; the losing wait must not swallow a
                    # future wake_one.
                    wake.abandoned = True
                else:
                    timer.cancel()
                continue
            now = sim.now
            for att in list(self._inflight.values()):
                if att.hedge_at is not None and att.hedge_at <= now:
                    att.hedge_at = None
                    self._fire_hedge(att)
            expired = [
                rid
                for rid, att in self._inflight.items()
                if att.deadline is not None and att.deadline <= now
            ]
            for rid in expired:
                att = self._inflight.pop(rid, None)
                if att is None:
                    continue
                # Reclaim the credit now — the server may never answer —
                # and remember the id so a late reply is not "unknown".
                self._credits[att.server].release()
                self._stale.add(rid)
                att.entry.live_rids.discard(rid)
                self._c_timeouts.add()
                if (
                    att.entry.op == READ
                    and att.entry.live_rids
                    and not att.entry.degraded
                ):
                    # A tied attempt on the other copy is still in
                    # flight; it carries the read.
                    self._mark_failed_span(att, "timeout")
                    continue
                self._fail_attempt(att, cause="timeout")

    def _fire_hedge(self, att: _Attempt) -> None:
        """The EWMA-derived hedge deadline passed without a reply: fire
        a tied request at an alive copy no attempt has tried; first
        acknowledgement wins and the losers are cancelled with their
        credits reclaimed."""
        entry = att.entry
        if entry.completed or entry.hedged or entry.op != READ:
            return
        copy = self._untried_copy(entry, att.server)
        if copy is None:
            return
        entry.hedged = True
        self._c_hedges.add()
        self.sim.trace.instant(
            self.name, "recovery", "hedge_fired",
            req_id=entry.pending.req.req_id,
            server=att.server, hedge_server=copy[0],
        )
        self.sim.spawn(
            self._post_attempt(entry, *copy, is_hedge=True),
            name=f"{self.name}.hedge",
        )

    def _fail_attempt(self, att: _Attempt, cause: str) -> None:
        """One attempt came back bad (``error``/``nack``) or never came
        back (``timeout``): the failure ladder.  Retry against the same
        server with bounded backoff, then declare it dead and re-route
        through the redundancy group.

        The caller has already popped the attempt and returned its
        credit; this either schedules exactly one replacement attempt,
        drops a redundant write's copy, or raises.
        """
        entry = att.entry
        if self.health is not None:
            self.health.record_error(self.tenant or self.name, att.server)
        self._mark_failed_span(att, cause)
        if entry.op == READ and entry.live_rids and not entry.degraded:
            # A tied (hedged) attempt on another copy is still in
            # flight — let it carry the read instead of spawning more.
            return
        if self.request_timeout_usec is None:
            # No timeouts: no retries and no dead-set, so the failing
            # server stays in service.  A write copy dropped here would
            # hand the next read a stale page; only a read with a copy
            # left to try carries on, anything else fails loudly.
            entry.failed_servers.add(att.server)
            group = self.redundancy
            if (
                entry.op == WRITE
                or group is None
                or (
                    group.policy.kind == "nway"
                    and self._untried_copy(entry, att.server) is None
                )
            ):
                raise SimulationError(
                    f"{self.name}: server {cause} on request "
                    f"{entry.pending.req.req_id}"
                )
            self._reroute(entry, att.server)
            return
        if att.retries < self.max_retries and att.server not in self._dead:
            self._c_retries.add()
            backoff = self.retry_backoff_usec * (
                self.backoff_mult ** att.retries
            )
            self.sim.spawn(
                self._backoff_resend(
                    entry, att.server, att.offset, backoff, att.retries + 1
                ),
                name=f"{self.name}.retry",
            )
            return
        # Retries exhausted: _mark_dead re-routes every *other* attempt
        # aimed at the server; this one was already popped by the
        # caller, so route it explicitly.
        self._mark_dead(att.server)
        self._reroute(entry, att.server)

    def _drop_write_copy(self, entry: _Inflight) -> None:
        """One copy of a redundant write is gone: stop expecting its
        ack.  The surviving copies (rs: parity; nway: replicas) carry
        the data; the write stays on the open-writes registry until its
        last ack, so repair can post the lost copy back."""
        self._c_write_failovers.add()
        entry.copies_left -= 1
        entry.need_acks -= 1
        if entry.copies_left > 0:
            return
        if entry.acked == 0:
            raise SimulationError(
                f"{self.name}: write segment {entry.seg} lost every copy"
            )
        # Off the catch-up registry before the finisher frees the buffer
        # — a notify in the gap must not post against a dead entry; the
        # acked surviving copies cover the restore instead.
        self._open_writes.discard(entry)
        if entry.completed:
            # The drop was the straggler: just release the buffers.
            self.sim.spawn(
                self._release_buffers(entry, copy_out=False),
                name=f"{self.name}.release",
            )
        else:
            self.sim.spawn(
                self._finish_segment(entry), name=f"{self.name}.finish"
            )

    def _mark_failed_span(self, att: _Attempt, cause: str) -> None:
        trace = self.sim.trace
        if not trace.enabled:
            return
        cat = "hpbd.timeout" if cause == "timeout" else "hpbd.failover"
        trace.complete(
            self.name, "recovery",
            "attempt_timeout" if cause == "timeout" else "failed_attempt",
            cat, att.sent_at, self.sim.now,
            req_id=att.entry.pending.req.req_id,
            server=att.server, op=att.entry.op, retries=att.retries,
        )

    def _backoff_resend(
        self,
        entry: _Inflight,
        server: int,
        offset: int,
        backoff: float,
        retries: int,
    ):
        sim = self.sim
        t0 = sim.now
        if backoff > 0:
            yield sim.timeout(backoff)
            if sim.trace.enabled:
                sim.trace.complete(
                    self.name, "recovery", "backoff", "hpbd.retry",
                    t0, sim.now,
                    req_id=entry.pending.req.req_id, server=server,
                    retries=retries,
                )
        if server in self._dead:
            # Someone else's attempt condemned the server meanwhile.
            self._reroute(entry, server)
            return
        yield from self._post_attempt(entry, server, offset, retries=retries)

    def _mark_dead(self, server: int) -> None:
        """Declare a server dead and re-route its pending attempts."""
        if server in self._dead:
            return
        self._dead.add(server)
        self._c_dead.add()
        self.sim.trace.instant(
            self.name, "recovery", "server_dead", server=server,
        )
        doomed = [
            rid
            for rid, att in self._inflight.items()
            if att.server == server
        ]
        for rid in doomed:
            att = self._inflight.pop(rid)
            self._credits[server].release()
            self._stale.add(rid)
            att.entry.live_rids.discard(rid)
            if (
                att.entry.op == READ
                and att.entry.live_rids
                and not att.entry.degraded
            ):
                # A tied attempt on the surviving copy carries the read.
                continue
            self._reroute(att.entry, server)

    def _reroute(self, entry: _Inflight, failed_server: int) -> None:
        """Replace one attempt that failed against ``failed_server``
        through the redundancy group — drop a write's copy, fail a read
        over to an untried copy or degrade it — or raise if nothing is
        left.  An unprotected tenant is the degenerate group: its only
        re-route is the local swap disk."""
        group = self.redundancy
        seg = entry.seg
        if group is None:
            if self.degraded_mode != "disk":
                raise SimulationError(
                    f"{self.name}: server {failed_server} failed and no "
                    f"degraded mode is configured"
                )
            self._c_disk_fallbacks.add()
            self.sim.spawn(
                self._fallback_io(entry), name=f"{self.name}.fallback"
            )
            return
        pol = group.policy
        entry.failed_servers.add(failed_server)
        if entry.op == WRITE:
            self._drop_write_copy(entry)
            return
        if pol.kind == "nway":
            copy = self._untried_copy(entry, failed_server)
            if copy is None:
                raise SimulationError(
                    f"{self.name}: segment {seg} lost all {pol.m + 1} copies"
                )
            if copy[0] != seg.server:
                self._c_failovers.add()
            self.sim.spawn(
                self._post_attempt(entry, *copy),
                name=f"{self.name}.failover",
            )
            return
        if not entry.degraded:
            # A plain rs read failed against its data shard: restart
            # the entry as a degraded fan-out.
            targets = self._degraded_target_list(entry)
            entry.acked = 0
            entry.copies_left = len(targets)
            entry.need_acks = len(targets)
        else:
            # One degraded fetch failed: swap in another survivor,
            # keeping at least one parity source in the fetch set.
            entry.degraded_servers.discard(failed_server)
            avoid = (
                self._dead
                | entry.failed_servers
                | entry.degraded_servers
                | {seg.server}
            )
            has_parity = bool(entry.parity_replies) or any(
                s in group.parity_servers for s in entry.degraded_servers
            )
            pick = None
            for s in group.parity_servers + group.data_servers:
                if s in avoid:
                    continue
                if has_parity or s in group.parity_servers:
                    pick = s
                    break
            if pick is None:
                raise SimulationError(
                    f"{self.name}: segment {seg} unrecoverable — "
                    f"{pol.label} stripe lost beyond tolerance"
                )
            entry.degraded_servers.add(pick)
            targets = [(pick, seg.server_offset)]
        for s, off in targets:
            self.sim.spawn(
                self._post_attempt(entry, s, off),
                name=f"{self.name}.degraded",
            )

    def _fallback_io(self, entry: _Inflight):
        """Serve one segment from the local swap disk instead; generator.

        The blocking layout keeps segments contiguous in device space,
        so the fallback bio targets the same absolute device range.
        """
        sim = self.sim
        seg = entry.seg
        t0 = sim.now
        abs_offset = self.dist.absolute_offset(seg)
        done = Event(sim, name=f"{self.name}.fallback")
        self.fallback_queue.submit_bio(
            Bio(
                op=entry.op,
                sector=abs_offset // SECTOR_SIZE,
                nsectors=seg.nbytes // SECTOR_SIZE,
                done=done,
                submit_time=sim.now,
            )
        )
        self.fallback_queue.unplug()
        yield done
        if sim.trace.enabled:
            sim.trace.complete(
                self.name, "recovery", "disk_fallback", "fault.fallback",
                t0, sim.now,
                req_id=entry.pending.req.req_id, op=entry.op,
                nbytes=seg.nbytes,
            )
        # The disk path moves data without the pool (no RDMA landing
        # zone to copy out of), but any buffer a failed network attempt
        # left behind must still be released.
        yield from self._finish_segment(entry, copy_out=False)

    # -- repair notifications ------------------------------------------------

    def notify_server_down(self, server: int) -> None:
        """Control-plane liveness verdict (registry heartbeat edge):
        declare the server dead without waiting for a request timeout,
        shrinking the window where reads hit a restarted-but-wiped
        store.  No-op when the driver already noticed."""
        self._mark_dead(server)

    def notify_repaired(self, server: int) -> None:
        """Background repair restored ``server``'s shard in place: lift
        the dead verdict and post this member's copy of every write
        still in flight.

        Must be called at the same instant the repair manager restores
        the store content — a fully-acked write's surviving copies are
        applied before the restore reads them, and everything still in
        flight gets a catch-up post here, so no update can fall between
        the two.
        """
        if server in self._dead:
            self._dead.discard(server)
            # Fresh RTT estimators: pre-crash samples say nothing about
            # the restarted daemon.
            self._srtt[server] = EWMA(RTT_ALPHA)
            self._rttvar[server] = EWMA(RTTVAR_ALPHA)
            self.sim.trace.instant(
                self.name, "recovery", "server_repaired", server=server,
            )
        if self.redundancy is not None:
            self._catch_up_writes(
                self.redundancy.shard_index(server), server
            )

    def notify_rebuilt(self, old: int, new: int, new_base: int) -> None:
        """Background repair rebuilt ``old``'s shard onto spare ``new``
        (at store offset ``new_base``): rewrite the group membership,
        the chunk map and the area bases, then catch up open writes."""
        if self.redundancy is None:
            raise SimulationError(f"{self.name}: no redundancy group")
        idx = self.redundancy.shard_index(old)
        self.redundancy.replace_server(old, new, new_base)
        self.server_area_bases[new] = new_base
        if self._server_qps:
            self.servers[new].set_client_area_base(
                self._server_qps[new], new_base
            )
        self.dist.remap_server(old, new)
        self._dead.discard(new)
        self.sim.trace.instant(
            self.name, "recovery", "shard_rebuilt",
            old=old, new=new, base=new_base,
        )
        self._catch_up_writes(idx, new)

    def _catch_up_writes(self, shard_idx: int, target: int) -> None:
        """Re-post the repaired member's copy of every still-open
        redundant write.  The restore read only covers updates whose
        surviving copies were applied before it ran; anything not yet
        fully acknowledged gets an explicit post (idempotent — same
        token), so the rebuilt shard converges with the survivors.
        ``shard_idx`` is the repaired member's role index (stable across
        a spare rebuild); ``target`` the server now playing it."""
        group = self.redundancy
        pol = group.policy
        for entry in list(self._open_writes):
            if entry.completed and entry.copies_left <= 0:
                self._open_writes.discard(entry)
                continue
            if pol.kind == "rs":
                # The member holds a copy iff it is the write's own data
                # shard or any parity shard (which all see every row).
                if shard_idx < pol.k and shard_idx != entry.shard_idx:
                    continue
                off = entry.seg.server_offset
            else:
                # nway ring: member holds copy j of the write's chunk
                # when it sits j <= m places after the owner.
                j = (shard_idx - entry.shard_idx) % len(group.servers)
                if j > pol.m:
                    continue
                off = j * group.share_bytes + entry.seg.server_offset
            entry.copies_left += 1
            entry.need_acks += 1
            self.sim.spawn(
                self._post_attempt(entry, target, off),
                name=f"{self.name}.catchup",
            )

    # -- introspection ------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    @property
    def dead_servers(self) -> frozenset[int]:
        return frozenset(self._dead)

    def credit_stalls(self) -> int:
        return sum(c.stall_count for c in self._credits)

    def drain(self):
        """Wait (bounded) for straggler acknowledgements; generator.

        Semi-sync mirrored writes complete the block request before the
        quarantined copy acks, so a run can reach teardown with those
        straggler attempts still in flight.  Poll them out before the
        audit; the bound keeps a genuinely wedged run failing loudly in
        ``audit_teardown`` instead of hanging here.
        """
        for _ in range(50):
            if not self._inflight:
                return
            yield self.sim.timeout(100.0)

    def audit_teardown(self) -> None:
        """Invariant monitors for a quiesced device (runner teardown).

        With all I/O drained: every physical request acknowledged, every
        flow-control credit back in its bucket, and no pool bytes leaked.
        These must hold even after a faulted run — recovery is not
        allowed to leak.
        """
        monitors = self.sim.monitors
        monitors.check(
            not self._inflight,
            "hpbd.inflight_drained", self.name,
            "physical requests still awaiting acknowledgement at teardown",
            outstanding=len(self._inflight),
        )
        monitors.check(
            not self._locked_rows,
            "hpbd.rows_unlocked", self.name,
            "parity write gate still held at teardown",
            locked=len(self._locked_rows),
        )
        for i, bucket in enumerate(self._credits):
            monitors.check(
                bucket.tokens == bucket.capacity,
                "hpbd.credits_returned", self.name,
                f"server {i} credits not fully returned",
                server=i, tokens=bucket.tokens, capacity=bucket.capacity,
            )
        if self.pool is not None:
            self.pool.audit_teardown()
