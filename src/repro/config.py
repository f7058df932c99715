"""Scenario configuration: which swap device, how much memory, who runs.

A scenario is one simulated machine ("the compute node") running one or
more workload instances, with its swap attached to one of the paper's
four device kinds:

* ``LocalMemory``  — enough RAM, no swapping (the baseline);
* ``HPBD``         — the paper's device over N memory servers;
* ``NBD``          — the TCP block device over GigE or IPoIB (1 server);
* ``LocalDisk``    — the node's ATA disk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .disk.model import DiskParams, ST340014A
from .faults.plan import CreditStarve, FaultPlan, LinkDegrade, LinkFlap
from .kernel.params import DEFAULT_VM_PARAMS, VMParams
from .obs.health import HealthConfig
from .net.fabrics import (
    GIGE_DEFAULT,
    IB_DEFAULT,
    IPOIB_DEFAULT,
    IBParams,
    TCPParams,
)
from .redundancy.policy import parse_policy
from .units import GiB, MiB
from .workloads.base import Workload

__all__ = [
    "LocalMemory",
    "HPBD",
    "NBD",
    "LocalDisk",
    "DeviceConfig",
    "FaultConfig",
    "HealthConfig",
    "ScenarioConfig",
    "TenantSpec",
    "ClusterScenarioConfig",
    "PLACEMENT_POLICIES",
]


@dataclass(frozen=True)
class LocalMemory:
    """No swap: the node has enough RAM (the 2 GiB baseline runs)."""

    label: str = "local"


@dataclass(frozen=True)
class HPBD:
    """The paper's high performance block device."""

    nservers: int = 1
    pool_bytes: int = MiB  # §4.2.2: "default pool size of 1MB"
    credits_per_server: int = 16
    server_store_bytes: int | None = None  # default: an equal share + slack
    staging_pool_bytes: int = 4 * MiB
    max_outstanding_rdma: int = 8
    ib: IBParams = IB_DEFAULT
    #: ablation (§4.1): per-request registration instead of the pool
    register_on_fly: bool = False
    #: ablation (§4.2.5): stripe size in bytes (None = blocking layout)
    stripe_bytes: int | None = None
    #: reliability extension: synchronous write mirroring + read failover
    #: (an nway(2) replica ring over the servers)
    mirror: bool = False
    label: str = "hpbd"


@dataclass(frozen=True)
class NBD:
    """The TCP network block device baseline (single server in 2.4)."""

    transport: str = "gige"  # "gige" | "ipoib"
    tcp: TCPParams | None = None

    def params(self) -> TCPParams:
        if self.tcp is not None:
            return self.tcp
        if self.transport == "gige":
            return GIGE_DEFAULT
        if self.transport == "ipoib":
            return IPOIB_DEFAULT
        raise ValueError(f"unknown NBD transport {self.transport!r}")

    @property
    def label(self) -> str:
        return f"nbd-{self.transport}"


@dataclass(frozen=True)
class LocalDisk:
    """Swap to the node's own ATA disk."""

    params: DiskParams = ST340014A
    label: str = "disk"


DeviceConfig = LocalMemory | HPBD | NBD | LocalDisk


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection + the recovery knobs that survive it.

    ``plan`` is the injected trouble (see :mod:`repro.faults`);
    the rest configures the client-side recovery state machine.
    Attaching a ``FaultConfig`` to a scenario enables per-request
    timeouts — without one, drivers keep the legacy raise-on-error
    behaviour.
    """

    plan: FaultPlan | None = None
    #: per-physical-request timeout; ``None`` disables the whole
    #: recovery machine (legacy raise-on-error semantics).
    request_timeout_usec: float | None = 2_000.0
    #: attempts against the same server before it is declared dead
    max_retries: int = 2
    retry_backoff_usec: float = 200.0
    backoff_mult: float = 2.0
    #: where an unprotected tenant's requests go once an HPBD server is
    #: dead: the local "disk", or "none" (the run fails); redundant
    #: tenants (mirror included) re-route through their group instead
    degraded_mode: str = "none"
    #: the disk model backing ``degraded_mode="disk"``
    fallback_disk: DiskParams = ST340014A
    #: fail-slow countermeasures (nway rings only, mirror included):
    #: per-server RTT EWMAs steer reads to the fastest copy and
    #: quarantine verdicts relax redundant-write acks to semi-sync
    ewma_select: bool = False
    #: hedged reads: fire a tied request at an untried copy when an
    #: attempt exceeds its EWMA-derived deadline; first reply wins
    hedge_reads: bool = False
    #: hedge deadline = max(hedge_min_usec, srtt + hedge_k * rttvar)
    hedge_k: float = 4.0
    hedge_min_usec: float = 50.0

    def __post_init__(self) -> None:
        if self.degraded_mode not in ("none", "disk"):
            raise ValueError(f"unknown degraded_mode {self.degraded_mode!r}")
        if self.request_timeout_usec is not None and self.request_timeout_usec <= 0:
            raise ValueError(f"bad request_timeout_usec {self.request_timeout_usec}")
        if self.max_retries < 0:
            raise ValueError(f"bad max_retries {self.max_retries}")
        if self.hedge_k <= 0 or self.hedge_min_usec < 0:
            raise ValueError(
                f"bad hedge parameters ({self.hedge_k}, {self.hedge_min_usec})"
            )


@dataclass
class ScenarioConfig:
    """One full experiment configuration."""

    workloads: list[Workload]
    device: DeviceConfig
    mem_bytes: int
    swap_bytes: int = GiB
    ncpus: int = 2
    vm_params: VMParams = DEFAULT_VM_PARAMS
    #: frames the kernel itself pins (text, slab, page tables...) — the
    #: app never sees the full DIMM size.
    mem_reserved_bytes: int = 24 * MiB
    seed: int = 42
    #: fault injection + recovery tuning; ``None`` = fault-free run
    #: with legacy error semantics.
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("scenario needs at least one workload instance")
        if self.mem_bytes <= self.mem_reserved_bytes:
            raise ValueError(
                f"memory {self.mem_bytes} does not cover the kernel reserve "
                f"{self.mem_reserved_bytes}"
            )
        if self.swap_bytes < 0:
            raise ValueError("negative swap size")
        if isinstance(self.device, LocalMemory) and self.swap_bytes:
            # Local runs simply ignore the swap size.
            self.swap_bytes = 0

    @property
    def usable_mem_bytes(self) -> int:
        return self.mem_bytes - self.mem_reserved_bytes

    @property
    def label(self) -> str:
        return self.device.label

    def with_device(self, device: DeviceConfig) -> "ScenarioConfig":
        """Same scenario on a different swap device."""
        return replace(self, device=device)


#: placement policies the cluster layer knows (repro.cluster.placement)
PLACEMENT_POLICIES = ("blocking", "least_loaded", "hash")


@dataclass(frozen=True)
class TenantSpec:
    """One client node sharing the cluster's server fleet.

    A tenant is a full compute node (its own VM, CPUs and HPBD driver)
    running one workload; ``weight`` is its share under weighted-fair
    QoS (credits and server service order).
    """

    name: str
    workload: Workload
    mem_bytes: int
    swap_bytes: int
    weight: float = 1.0
    ncpus: int = 2
    #: redundancy policy for this tenant's swap area: "none", "nway(r)"
    #: or "rs(k,m)" (see :mod:`repro.redundancy.policy`)
    redundancy: str = "none"

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ". /"):
            raise ValueError(f"bad tenant name {self.name!r}")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name}: bad weight {self.weight}")
        if self.swap_bytes <= 0:
            raise ValueError(f"tenant {self.name}: needs swap_bytes > 0")
        parse_policy(self.redundancy)  # fail fast on a bad spec

    @property
    def redundancy_policy(self):
        return parse_policy(self.redundancy)


@dataclass
class ClusterScenarioConfig:
    """N tenants sharing one capacity-managed memory-server fleet.

    The single-node :class:`ScenarioConfig` runs the paper's topology;
    this is the scale-out variant (repro.cluster): placement decides
    where each tenant's swap area lands, admission control reserves it
    against advertised capacity (optionally overcommitted, with
    server-side eviction-to-disk), and per-tenant QoS keeps one
    thrashing tenant from starving the rest.
    """

    tenants: list[TenantSpec]
    nservers: int = 2
    #: advertised RAM per server; ``None`` sizes the fleet to total
    #: demand split evenly (plus slack for allocator rounding).
    server_capacity_bytes: int | None = None
    #: "blocking" (the paper's contiguous layout), "least_loaded"
    #: bin-packing, or consistent-"hash" sharding
    placement: str = "blocking"
    #: mirror every tenant's pages across the fleet: an alias that gives
    #: each tenant ``redundancy="nway(2)"`` (replica of server i's chunk
    #: on server i+1, behind that server's own share).  Enables the
    #: fail-slow countermeasures in FaultConfig.
    mirror: bool = False
    #: weighted-fair QoS: partition server credits by tenant weight and
    #: serve requests in start-time-fair order (off = FIFO free-for-all)
    qos: bool = True
    #: per-server credit pool partitioned across tenants under QoS
    credit_pool: int = 48
    #: per-tenant, per-server credits when QoS is off
    credits_per_server: int = 16
    #: admit up to ``capacity * overcommit`` bytes per server; the
    #: excess lives behind a residency cap and spills to the server's
    #: local disk on eviction
    overcommit: float = 1.0
    #: tenant whose reservation is NACKed outright: "raise" or fall
    #: back to a local "disk" swap on its own node
    admission_fallback: str = "raise"
    pool_bytes: int = MiB
    staging_pool_bytes: int = 4 * MiB
    max_outstanding_rdma: int = 8
    ib: IBParams = IB_DEFAULT
    vm_params: VMParams = DEFAULT_VM_PARAMS
    mem_reserved_bytes: int = 24 * MiB
    heartbeat_interval_usec: float = 1_000.0
    #: aggregate background-copy bandwidth cap (migration + repair) in
    #: MiB/s; ``None`` leaves the bulk channel unthrottled
    migration_throttle_mib_s: float | None = None
    #: repair manager scan period (liveness edges + rebuild triggers)
    repair_interval_usec: float = 500.0
    #: rebuild a still-down member onto a spare after this long down
    #: (``None`` = in-place only: wait for the daemon to restart)
    repair_spare_after_usec: float | None = None
    seed: int = 42
    faults: FaultConfig | None = None
    #: always-on fleet health model (SLO engine + fail-slow detector);
    #: ``None`` disables it (the overhead-benchmark baseline).
    health: HealthConfig | None = HealthConfig()
    label: str = "cluster"

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("cluster scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.nservers < 1:
            raise ValueError(f"need at least one server, got {self.nservers}")
        if self.mirror:
            if self.nservers < 2:
                raise ValueError("mirrored cluster needs at least two servers")
            for t in self.tenants:
                if t.redundancy_policy.label not in ("none", "nway(2)"):
                    raise ValueError(
                        f"tenant {t.name}: per-tenant redundancy and the "
                        f"fleet-wide mirror flag are exclusive"
                    )
            self.tenants = [
                replace(t, redundancy="nway(2)") for t in self.tenants
            ]
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement {self.placement!r} not in {PLACEMENT_POLICIES}"
            )
        for t in self.tenants:
            pol = t.redundancy_policy
            if pol.kind == "none":
                continue
            if self.faults is not None and self.faults.degraded_mode != "none":
                raise ValueError(
                    f"tenant {t.name}: redundancy supplies its own "
                    f"degraded path; degraded_mode must stay 'none'"
                )
            if pol.kind == "rs":
                if self.nservers < pol.width:
                    raise ValueError(
                        f"tenant {t.name}: {pol.label} needs "
                        f"{pol.width} servers, fleet has {self.nservers}"
                    )
                if t.swap_bytes % pol.k:
                    raise ValueError(
                        f"tenant {t.name}: swap area {t.swap_bytes} B "
                        f"does not stripe over k={pol.k} data shards"
                    )
            else:  # nway ring over the whole fleet
                if self.nservers < pol.m + 1:
                    raise ValueError(
                        f"tenant {t.name}: {pol.label} needs "
                        f"{pol.m + 1} servers, fleet has {self.nservers}"
                    )
                if t.swap_bytes % self.nservers:
                    raise ValueError(
                        f"tenant {t.name}: swap area {t.swap_bytes} B "
                        f"must divide across the {self.nservers}-server "
                        f"ring"
                    )
        plan = self.faults.plan if self.faults is not None else None
        if plan is not None:
            self._check_fault_targets(plan, names)
        if self.migration_throttle_mib_s is not None:
            if self.migration_throttle_mib_s <= 0:
                raise ValueError(
                    f"bad migration throttle {self.migration_throttle_mib_s}"
                )
        if self.repair_interval_usec <= 0:
            raise ValueError(
                f"bad repair interval {self.repair_interval_usec}"
            )
        if self.overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1, got {self.overcommit}")
        if self.admission_fallback not in ("raise", "disk"):
            raise ValueError(
                f"admission_fallback {self.admission_fallback!r} "
                f"not in ('raise', 'disk')"
            )
        if self.credit_pool < len(self.tenants):
            raise ValueError(
                f"credit pool {self.credit_pool} cannot give "
                f"{len(self.tenants)} tenants one credit each"
            )
        for t in self.tenants:
            if t.mem_bytes <= self.mem_reserved_bytes:
                raise ValueError(
                    f"tenant {t.name}: memory {t.mem_bytes} does not cover "
                    f"the kernel reserve {self.mem_reserved_bytes}"
                )

    def _check_fault_targets(self, plan: FaultPlan, tenants: list[str]) -> None:
        """Reject a plan naming a server or port the fleet lacks, or a
        credit starvation (it targets a single node's HPBD client),
        before any scenario is built."""
        nodes = {f"mem{i}" for i in range(self.nservers)} | set(tenants)
        for ev in plan.events:
            if isinstance(ev, CreditStarve):
                raise ValueError(
                    "credit starvation targets a single node's HPBD "
                    "client; a cluster plan has no one client to starve"
                )
            if isinstance(ev, (LinkFlap, LinkDegrade)):
                if ev.node not in nodes:
                    raise ValueError(
                        f"fault plan targets node {ev.node!r}; the fleet's "
                        f"nodes are {', '.join(sorted(nodes))}"
                    )
            elif not (
                isinstance(ev.server, int) and 0 <= ev.server < self.nservers
            ):
                raise ValueError(
                    f"fault plan targets server {ev.server!r}; the fleet "
                    f"has {self.nservers} servers"
                )
