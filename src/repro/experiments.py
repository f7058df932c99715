"""Paper-experiment presets: one function per table/figure.

Each ``fig*`` function reproduces one evaluation artifact from the paper
at a configurable ``scale`` (a divisor on data-set and memory sizes;
``scale=1`` is the paper's full size).  Ratios are scale-invariant to a
good approximation because compute, traffic and memory all shrink
together while the cost *models* stay fixed; EXPERIMENTS.md records both
scaled and full-size spot checks.

Every preset also carries the paper's reported numbers (`PAPER_*`) so
benches print measured-vs-paper side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (
    ClusterScenarioConfig,
    FaultConfig,
    HPBD,
    LocalDisk,
    LocalMemory,
    NBD,
    ScenarioConfig,
    TenantSpec,
)
from .faults import (
    CreditStarve,
    FaultPlan,
    LinkDegrade,
    ServerCrash,
    ServerSlow,
)
from .net.fabrics import (
    GIGE_DEFAULT,
    IB_DEFAULT,
    IPOIB_DEFAULT,
    MEMCPY,
    REGISTRATION,
)
from .results import ScenarioResult
from .sweep import SweepPoint, run_sweep
from .units import GiB, KiB, MiB, PAGE_SIZE
from .workloads import BarnesWorkload, QuicksortWorkload, TestswapWorkload
from .workloads.base import Workload

__all__ = [
    "DEFAULT_SCALE",
    "fig01_latency",
    "fig03_registration",
    "fig05_testswap",
    "fig05_points",
    "fig06_reqsize_run",
    "fig06_points",
    "fig07_quicksort",
    "fig07_points",
    "fig08_barnes",
    "fig08_points",
    "fig09_concurrent",
    "fig09_points",
    "fig10_servers",
    "fig10_points",
    "faults_points",
    "cluster_points",
    "campaign_points",
    "cluster_fair_config",
    "cluster_redundancy_config",
    "redundancy_points",
    "cluster_failslow_config",
    "cluster_failslow_mitigated_config",
    "failslow_points",
    "cluster_unfair_config",
    "sec62_runs",
    "SWEEPS",
    "PAPER_FIG5",
    "PAPER_FIG7",
    "PAPER_FIG9",
    "DEVICES_DEFAULT",
]

#: Default divisor for CI-speed runs; EXPERIMENTS.md also records scale=1.
DEFAULT_SCALE = 8

#: Paper Fig. 5 (testswap) execution times, seconds.
PAPER_FIG5 = {
    "local": 5.8,
    "hpbd": 8.4,
    "nbd-ipoib": 10.8,
    "nbd-gige": 12.2,
    "disk": 18.5,
}

#: Paper Fig. 7 (quick sort): local and HPBD given in the text; the
#: NBD/disk values follow from the stated ratios (1.13×, 1.36×, 4.5×).
PAPER_FIG7 = {
    "local": 94.0,
    "hpbd": 138.0,
    "nbd-ipoib": 156.0,
    "nbd-gige": 188.0,
    "disk": 621.0,
}

#: Paper Fig. 9 (two concurrent quick sorts): slowdown vs 2 GiB local.
PAPER_FIG9 = {
    ("hpbd", "50%"): 1.7,
    ("hpbd", "25%"): 2.5,
    ("disk", "25%"): 36.0,
}


def DEVICES_DEFAULT() -> list:
    return [LocalMemory(), HPBD(), NBD("ipoib"), NBD("gige"), LocalDisk()]


# ---------------------------------------------------------------------------
# Microbenchmarks evaluated straight from the calibrated cost models
# ---------------------------------------------------------------------------


def fig01_latency(max_bytes: int = 128 * KiB) -> dict[str, np.ndarray]:
    """Fig. 1: one-way latency vs message size for memcpy, RDMA write,
    IPoIB and GigE.  Returns ``{"sizes": ..., "<series>": usec array}``."""
    sizes = np.array(
        [1] + [1 << k for k in range(2, 18)], dtype=np.int64
    )
    sizes = sizes[sizes <= max_bytes]
    return {
        "sizes": sizes,
        "memcpy": MEMCPY.cost_array(sizes),
        "rdma_write": IB_DEFAULT.latency_curve().cost_array(sizes),
        "ipoib": np.array([IPOIB_DEFAULT.one_way_cost(int(s)) for s in sizes]),
        "gige": np.array([GIGE_DEFAULT.one_way_cost(int(s)) for s in sizes]),
    }


def fig03_registration(max_bytes: int = 128 * KiB) -> dict[str, np.ndarray]:
    """Fig. 3: memory-registration vs memcpy cost over the swap-request
    size range."""
    sizes = np.array([1 << k for k in range(12, 18)], dtype=np.int64)
    sizes = sizes[sizes <= max_bytes]
    return {
        "sizes": sizes,
        "registration": REGISTRATION.cost_array(sizes),
        "memcpy": MEMCPY.cost_array(sizes),
    }


# ---------------------------------------------------------------------------
# Full-system scenarios
# ---------------------------------------------------------------------------


def _scenario(
    workloads: list[Workload],
    device,
    scale: int,
    mem_bytes: int,
    swap_bytes: int,
) -> ScenarioConfig:
    if isinstance(device, LocalMemory):
        swap = 0
    else:
        swap = swap_bytes // scale
    return ScenarioConfig(
        workloads,
        device,
        mem_bytes=mem_bytes // scale,
        swap_bytes=swap,
        mem_reserved_bytes=24 * MiB // scale,
    )


def _device_points(
    fig: str, scale: int, devices: list | None, make_workload
) -> list[SweepPoint]:
    """One point per device: the common fig05/07/08 grid shape."""
    points = []
    for dev in devices if devices is not None else DEVICES_DEFAULT():
        w = make_workload()
        mem = 2 * GiB if isinstance(dev, LocalMemory) else 512 * MiB
        points.append(
            SweepPoint(
                f"{fig}/{dev.label}", _scenario([w], dev, scale, mem, GiB)
            )
        )
    return points


def _results(points, workers, cache, force=False) -> list[ScenarioResult]:
    return run_sweep(points, workers=workers, cache=cache, force=force).results


def fig05_points(
    scale: int = DEFAULT_SCALE, devices: list | None = None
) -> list[SweepPoint]:
    return _device_points(
        "fig05", scale, devices,
        lambda: TestswapWorkload(size_bytes=GiB // scale),
    )


def fig05_testswap(
    scale: int = DEFAULT_SCALE,
    devices: list | None = None,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> list[ScenarioResult]:
    """Fig. 5: testswap over every device (512 MiB RAM, 1 GiB data)."""
    return _results(fig05_points(scale, devices), workers, cache)


def fig06_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    w = TestswapWorkload(size_bytes=GiB // scale)
    return [SweepPoint("fig06/hpbd", _scenario([w], HPBD(), scale, 512 * MiB, GiB))]


def fig06_reqsize_run(
    scale: int = DEFAULT_SCALE,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> ScenarioResult:
    """Fig. 6's input: the testswap-over-HPBD run with its request
    trace (cluster it with :func:`repro.analysis.cluster_requests`)."""
    return _results(fig06_points(scale), workers, cache)[0]


def fig07_points(
    scale: int = DEFAULT_SCALE, devices: list | None = None
) -> list[SweepPoint]:
    return _device_points(
        "fig07", scale, devices,
        lambda: QuicksortWorkload(nelems=256 * 1024 * 1024 // scale),
    )


def fig07_quicksort(
    scale: int = DEFAULT_SCALE,
    devices: list | None = None,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> list[ScenarioResult]:
    """Fig. 7: quick sort of 256 Mi ints over every device."""
    return _results(fig07_points(scale, devices), workers, cache)


def fig08_points(
    scale: int = 4, devices: list | None = None
) -> list[SweepPoint]:
    return _device_points(
        "fig08", scale, devices,
        lambda: BarnesWorkload(nbodies=2_097_152 // scale),
    )


def fig08_barnes(
    scale: int = 4,
    devices: list | None = None,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> list[ScenarioResult]:
    """Fig. 8: Barnes (2,097,152 bodies, 516 MiB peak) over every device.

    Default scale is 4 (not 8): Barnes's 4 MiB overflow margin gets
    noisy below ~1/4 size.
    """
    return _results(fig08_points(scale, devices), workers, cache)


@dataclass
class ConcurrentResult:
    """One Fig. 9 cell."""

    label: str
    memory: str  # "local" / "50%" / "25%"
    result: ScenarioResult
    slowdown: float


def fig09_points(
    scale: int = DEFAULT_SCALE,
    nservers: int = 4,
    include_disk: bool = True,
) -> list[SweepPoint]:
    """Point 0 is the 100 %-memory baseline; the rest are the cells.

    Point names carry the memory label (``fig09/<device>@<memory>``) so
    callers can recover the grid from a flat result list.
    """
    def two():
        return [
            QuicksortWorkload(nelems=256 * 1024 * 1024 // scale, seed=100 + i)
            for i in range(2)
        ]

    points = [
        SweepPoint(
            "fig09/local@local",
            _scenario(two(), LocalMemory(), scale, 2 * GiB + 256 * MiB, 0),
        )
    ]
    for mem_label, mem in (("50%", GiB), ("25%", 512 * MiB)):
        devices = [HPBD(nservers=nservers)]
        if include_disk:
            devices.append(LocalDisk())
        for dev in devices:
            points.append(
                SweepPoint(
                    f"fig09/{dev.label}@{mem_label}",
                    _scenario(two(), dev, scale, mem, 2 * GiB),
                )
            )
    return points


def fig09_concurrent(
    scale: int = DEFAULT_SCALE,
    nservers: int = 4,
    include_disk: bool = True,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> list[ConcurrentResult]:
    """Fig. 9: two concurrent quick sorts at 100 %/50 %/25 % memory.

    "for multiple application execution instances, each memory server is
    configured with 512MB swap area" — total 2 GiB over ``nservers``.
    """
    points = fig09_points(scale, nservers, include_disk)
    results = _results(points, workers, cache)
    base = results[0]
    out = [ConcurrentResult("local", "local", base, 1.0)]
    for point, r in zip(points[1:], results[1:]):
        mem_label = point.name.rsplit("@", 1)[1]
        out.append(
            ConcurrentResult(
                r.label, mem_label, r, r.elapsed_usec / base.elapsed_usec
            )
        )
    return out


def fig10_points(
    scale: int = DEFAULT_SCALE, counts: tuple[int, ...] = (1, 2, 4, 8, 16)
) -> list[SweepPoint]:
    points = []
    for n in counts:
        w = QuicksortWorkload(nelems=256 * 1024 * 1024 // scale)
        points.append(
            SweepPoint(
                f"fig10/n{n}",
                _scenario([w], HPBD(nservers=n), scale, 512 * MiB, GiB),
            )
        )
    return points


def fig10_servers(
    scale: int = DEFAULT_SCALE,
    counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> list[tuple[int, ScenarioResult]]:
    """Fig. 10: quick sort vs number of memory servers."""
    results = _results(fig10_points(scale, counts), workers, cache)
    return list(zip(counts, results))


def faults_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    """Fault-injection grid: each recovery mode against its fault.

    Not a paper figure — the reliability extension's sweep: a healthy
    run under the recovery machinery (the control), a mid-run server
    crash absorbed by disk fallback and by a mirror replica, plus a
    degraded link and a credit squeeze.  Every point must complete with
    clean invariant monitors.
    """

    def _cfg(device, faults: FaultConfig) -> ScenarioConfig:
        cfg = _scenario(
            [TestswapWorkload(size_bytes=GiB // scale)],
            device, scale, 512 * MiB, GiB,
        )
        cfg.faults = faults
        return cfg

    # Aim the episodes at the middle of the run so they overlap swap
    # traffic (testswap takes ~8.4e6/scale simulated us end to end).
    mid = 4_200_000.0 / scale
    crash = FaultPlan(events=(ServerCrash(at=mid, server=1),))
    crash0 = FaultPlan(events=(ServerCrash(at=mid, server=0),))
    degrade = FaultPlan(events=(
        LinkDegrade(at=mid, node="mem0", duration=mid / 4,
                    latency_mult=20.0, bandwidth_mult=0.25),
    ))
    starve = FaultPlan(events=(
        CreditStarve(at=mid, server=0, ntokens=8, duration=mid / 4),
    ))
    quad = HPBD(nservers=4)
    return [
        SweepPoint("faults/baseline", _cfg(quad, FaultConfig())),
        SweepPoint("faults/crash-disk",
                   _cfg(quad, FaultConfig(plan=crash, degraded_mode="disk"))),
        SweepPoint("faults/degrade",
                   _cfg(quad, FaultConfig(plan=degrade, max_retries=8))),
        SweepPoint("faults/starve", _cfg(quad, FaultConfig(plan=starve))),
        SweepPoint("faults/mirror-crash",
                   _cfg(HPBD(nservers=2, mirror=True),
                        FaultConfig(plan=crash0))),
    ]


def _cluster_tenant(
    name: str,
    scale: int,
    *,
    memdiv: int = 1,
    datamul: int = 1,
    weight: float = 1.0,
) -> TenantSpec:
    """One quicksort tenant at fig07 sizing (512 MiB RAM, 1 GiB data,
    both over ``scale``); ``memdiv``/``datamul`` make it thrash."""
    return TenantSpec(
        name=name,
        workload=QuicksortWorkload(
            nelems=datamul * 256 * 1024 * 1024 // scale, seed=7
        ),
        mem_bytes=512 * MiB // scale // memdiv,
        swap_bytes=datamul * GiB // scale,
        weight=weight,
    )


def cluster_fair_config(
    scale: int = DEFAULT_SCALE,
    nservers: int = 2,
    placement: str = "blocking",
) -> ClusterScenarioConfig:
    """The fairness acceptance run: three *identical* quicksort tenants
    under weighted-fair QoS — completion times must land within 10%."""
    return ClusterScenarioConfig(
        tenants=[_cluster_tenant(f"t{i}", scale) for i in range(3)],
        nservers=nservers,
        placement=placement,
        qos=True,
        mem_reserved_bytes=24 * MiB // scale,
    )


def cluster_failslow_config(
    scale: int = DEFAULT_SCALE,
    nservers: int = 3,
    latency_mult: float = 20.0,
) -> ClusterScenarioConfig:
    """The fail-slow acceptance run (``repro health``): three identical
    quicksort tenants over three servers, with ``mem1``'s link degraded
    mid-run.  Timeouts stay disabled so the recovery machine never
    declares the server dead — it *limps*, which is exactly the failure
    mode the fail-slow detector exists to catch (a crash would already
    surface through the registry heartbeat)."""
    mid = 73_000_000.0 / scale
    degrade = FaultPlan(events=(
        LinkDegrade(at=mid, node="mem1", duration=mid / 2,
                    latency_mult=latency_mult, bandwidth_mult=0.25),
    ))
    return ClusterScenarioConfig(
        tenants=[_cluster_tenant(f"t{i}", scale) for i in range(3)],
        nservers=nservers,
        qos=True,
        mem_reserved_bytes=24 * MiB // scale,
        faults=FaultConfig(plan=degrade, request_timeout_usec=None),
        label="cluster-failslow",
    )


def _mirror_tenant(name: str, scale: int, nservers: int) -> TenantSpec:
    """A fig07-sized quicksort tenant whose swap area is rounded up so
    the mirror's blocking layout splits into page-aligned per-server
    shares."""
    spec = _cluster_tenant(name, scale)
    grain = nservers * PAGE_SIZE
    swap = -(-spec.swap_bytes // grain) * grain
    return replace(spec, swap_bytes=swap)


def cluster_failslow_mitigated_config(
    scale: int = DEFAULT_SCALE,
    nservers: int = 3,
    service_mult: float = 16.0,
    extra_rtt_usec: float = 400.0,
    *,
    slow: bool = True,
    mitigate: bool = True,
) -> ClusterScenarioConfig:
    """The limping-server mitigation run: three mirrored quicksort
    tenants with ``mem1`` fail-slow mid-run — its memcpy service rate
    scaled by ``service_mult`` and every op stalled ``extra_rtt_usec``.
    Timeouts stay disabled (the server limps, it never dies), so the
    only defenses are the ones this config arms: ``mitigate=True``
    turns on EWMA replica selection, hedged reads, and quarantine;
    ``mitigate=False`` is the unmitigated cliff; ``slow=False`` is the
    healthy mirrored baseline the acceptance gate compares against."""
    mid = 73_000_000.0 / scale
    plan = None
    if slow:
        plan = FaultPlan(events=(
            ServerSlow(at=mid, server=1, duration=mid / 2,
                       service_mult=service_mult,
                       extra_rtt_usec=extra_rtt_usec),
        ))
    label = "cluster-mirror-healthy"
    if slow:
        label = ("cluster-failslow-mitigated" if mitigate
                 else "cluster-failslow-unmitigated")
    return ClusterScenarioConfig(
        tenants=[
            _mirror_tenant(f"t{i}", scale, nservers) for i in range(3)
        ],
        nservers=nservers,
        mirror=True,
        qos=True,
        mem_reserved_bytes=24 * MiB // scale,
        faults=FaultConfig(
            plan=plan,
            request_timeout_usec=None,
            ewma_select=mitigate,
            hedge_reads=mitigate,
        ),
        label=label,
    )


def failslow_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    """The limping-server grid: healthy mirrored baseline, the
    unmitigated cliff, and the mitigated run the acceptance gate
    compares against it."""
    return [
        SweepPoint(
            "failslow/healthy",
            cluster_failslow_mitigated_config(scale, slow=False),
        ),
        SweepPoint(
            "failslow/unmitigated",
            cluster_failslow_mitigated_config(scale, mitigate=False),
        ),
        SweepPoint(
            "failslow/mitigated",
            cluster_failslow_mitigated_config(scale),
        ),
    ]


def cluster_unfair_config(
    scale: int = DEFAULT_SCALE, nservers: int = 2
) -> ClusterScenarioConfig:
    """The unfair baseline: QoS off, one thrashing tenant (quarter the
    memory, double the data) sharing the fleet with two healthy ones —
    the spread the QoS machinery exists to prevent (>= 2x)."""
    return ClusterScenarioConfig(
        tenants=[
            _cluster_tenant("thrash", scale, memdiv=4, datamul=2),
            _cluster_tenant("t1", scale),
            _cluster_tenant("t2", scale),
        ],
        nservers=nservers,
        qos=False,
        mem_reserved_bytes=24 * MiB // scale,
    )


def cluster_redundancy_config(
    scale: int = DEFAULT_SCALE,
    redundancy: str = "rs(4,2)",
    *,
    nservers: int = 8,
    crashes: "tuple[tuple[float, int], ...]" = ((120_000.0, 2),),
    down_for: float = 40_000.0,
    throttle_mib_s: "float | None" = 400.0,
    spare_after_usec: "float | None" = None,
    label: "str | None" = None,
) -> ClusterScenarioConfig:
    """The durability acceptance run: one quicksort tenant whose swap
    area is protected by ``redundancy``, with mid-run server crashes
    (wipe + 40 ms outage + restart) the repair manager must absorb —
    degraded reads while a member is down, a rebuild once it restarts,
    and zero invariant violations end to end.

    Sizes are fixed (not paper-scaled): the point is durability
    mechanics, not figure timing, and the fixed 8 MiB swap area keeps
    the stripe-divisibility constraints valid for every policy in the
    grid at any ``scale``.  ``crashes`` is a tuple of ``(at_usec,
    server)`` pairs; the defaults aim each outage at the shard the
    quicksort read frontier is sweeping at that moment (the ~420 ms
    run walks its address space roughly linearly), so the crash
    provably intersects live reads and the degraded path gets
    exercised, not just the rebuild.
    """
    del scale  # fixed-size run; accepted for SWEEPS uniformity
    events = tuple(
        ServerCrash(at=at, server=server, down_for=down_for)
        for at, server in crashes
    )
    faults = FaultConfig(plan=FaultPlan(events=events)) if events else None
    return ClusterScenarioConfig(
        tenants=[
            TenantSpec(
                name="t0",
                workload=QuicksortWorkload(nelems=768 * 1024, seed=7),
                mem_bytes=3 * MiB,
                swap_bytes=8 * MiB,
                redundancy=redundancy,
            )
        ],
        nservers=nservers,
        qos=True,
        mem_reserved_bytes=MiB,
        faults=faults,
        migration_throttle_mib_s=throttle_mib_s,
        repair_spare_after_usec=spare_after_usec,
        label=label or f"redundancy-{redundancy}",
    )


def redundancy_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    """The durability/overhead grid ``repro sweep redundancy`` runs:
    an unprotected baseline, 2-way mirroring and RS(4,2) each absorbing
    a mid-run crash, RS(4,2) under *two* staggered crashes (its full
    fault tolerance), and RS(2,1) rebuilding under a deliberately tight
    migration throttle (``mig.throttle_waits`` must fire).  Together
    the points show the headline trade: RS(4,2) survives the same
    double fault as 3-way replication at 1.5x memory instead of 3x.
    """
    return [
        SweepPoint(
            "redundancy/none",
            cluster_redundancy_config(scale, "none", crashes=()),
        ),
        SweepPoint(
            "redundancy/nway2-crash",
            cluster_redundancy_config(
                scale, "nway(2)", crashes=((90_000.0, 2),)
            ),
        ),
        SweepPoint(
            "redundancy/rs42-crash",
            cluster_redundancy_config(scale, "rs(4,2)"),
        ),
        SweepPoint(
            "redundancy/rs42-crash2",
            cluster_redundancy_config(
                scale, "rs(4,2)",
                crashes=((120_000.0, 2), (200_000.0, 3)),
            ),
        ),
        SweepPoint(
            "redundancy/rs21-tight-throttle",
            cluster_redundancy_config(
                scale, "rs(2,1)",
                crashes=((140_000.0, 1),),
                throttle_mib_s=128.0,
            ),
        ),
    ]


def cluster_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    """Cluster grid: clients x servers x placement policy, all under
    QoS, plus the QoS-off unfair baseline."""
    points = []
    for nclients in (2, 3):
        for nservers in (2, 4):
            for policy in ("blocking", "least_loaded", "hash"):
                cfg = ClusterScenarioConfig(
                    tenants=[
                        _cluster_tenant(f"t{i}", scale)
                        for i in range(nclients)
                    ],
                    nservers=nservers,
                    placement=policy,
                    qos=True,
                    mem_reserved_bytes=24 * MiB // scale,
                )
                points.append(
                    SweepPoint(
                        f"cluster/c{nclients}s{nservers}/{policy}", cfg
                    )
                )
    points.append(
        SweepPoint("cluster/unfair-baseline", cluster_unfair_config(scale))
    )
    return points


def campaign_points(scale: int = DEFAULT_SCALE) -> list[SweepPoint]:
    """The campaign preset: a small cluster grid with one deliberately
    degraded point, sized for seed replication.  The fair points give
    the regression gate a healthy baseline; the fail-slow point is the
    known-bad outlier CI uses to prove ``repro compare`` actually fires
    (relabel it onto a fair point's name and the latency regression
    must flag as significant)."""
    return [
        SweepPoint("campaign/fair-2s", cluster_fair_config(scale)),
        SweepPoint(
            "campaign/fair-3s", cluster_fair_config(scale, nservers=3)
        ),
        SweepPoint("campaign/failslow", cluster_failslow_config(scale)),
        SweepPoint("campaign/redundancy", cluster_redundancy_config(scale)),
    ]


def sec62_runs(
    scale: int = DEFAULT_SCALE,
    *,
    workers: "int | str | None" = None,
    cache=None,
) -> dict[str, ScenarioResult]:
    """The four testswap runs the §6.2 Amdahl analysis needs."""
    results = fig05_testswap(scale, workers=workers, cache=cache)
    return {r.label: r for r in results}


#: Sweepable experiments: name -> (points builder taking ``scale``,
#: human description).  Used by ``repro sweep``.
SWEEPS: dict = {
    "fig05": (fig05_points, "testswap across devices"),
    "fig06": (fig06_points, "testswap over HPBD (request trace)"),
    "fig07": (fig07_points, "quick sort across devices"),
    "fig08": (lambda scale: fig08_points(max(1, scale // 2)),
              "Barnes across devices"),
    "fig09": (fig09_points, "two concurrent quick sorts"),
    "fig10": (fig10_points, "quick sort vs number of servers"),
    "faults": (faults_points, "fault injection / recovery grid"),
    "cluster": (cluster_points,
                "multi-tenant cluster: clients x servers x placement"),
    "failslow": (failslow_points,
                 "limping server: healthy / unmitigated / mitigated"),
    "campaign": (campaign_points,
                 "campaign preset: fair cluster points + fail-slow outlier"),
    "redundancy": (redundancy_points,
                   "erasure-coded durability: crash survival vs overhead"),
}
