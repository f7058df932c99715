"""The benchmark's four workloads, built from the public config API.

Every size, device, tenant, crash schedule and paper number measured
here is defined in this file rather than taken from
``repro.experiments``, so retuning those presets cannot silently change
what the benchmark measures.

A workload is built in two steps, which the set-up probe times apart:
``inputs(seed, qs_seed)`` generates the inputs, and ``scenarios(inputs)``
wraps them in scenario configs.

Two seeds feed the inputs.  ``qs_seed`` picks the quick sort's pivots.
It is fixed per campaign: one pivot draw against another moves the
HPBD bar's simulated time by 13% and the mean paper error by 80%
(interquartile range over 12 draws at scale 64), which would swamp any
change the benchmark exists to detect.  ``seed`` is the run's seed: it
jitters the recovery workload's crash times, so successive runs probe
nearby fault timings without moving the metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import (
    GiB,
    HPBD,
    LocalDisk,
    LocalMemory,
    MiB,
    NBD,
    PAGE_SIZE,
    QuicksortWorkload,
    ScenarioConfig,
    TestswapWorkload,
    build_scenario,
)
from repro.cluster.runner import build_cluster_scenario
from repro.config import ClusterScenarioConfig, FaultConfig, TenantSpec
from repro.faults import FaultPlan, ServerCrash, ServerSlow

#: Paper Fig. 5 (testswap over 1 GiB, 512 MiB RAM), seconds.
PAPER_FIG5 = {
    "local": 5.8,
    "hpbd": 8.4,
    "nbd-ipoib": 10.8,
    "nbd-gige": 12.2,
    "disk": 18.5,
}

#: Paper Fig. 7 (quick sort of 256 Mi ints, 512 MiB RAM), seconds: local
#: and HPBD are given in the text, the rest follow from its ratios.
PAPER_FIG7 = {
    "local": 94.0,
    "hpbd": 138.0,
    "nbd-ipoib": 156.0,
    "nbd-gige": 188.0,
    "disk": 621.0,
}

#: Bar order of both figures, fastest device first.
BARS = ("local", "hpbd", "nbd-ipoib", "nbd-gige", "disk")

QUICKSORT_ELEMS = 256 * 1024 * 1024


@dataclass(frozen=True)
class Scenario:
    """One simulated run of a workload."""

    name: str
    config: ScenarioConfig | ClusterScenarioConfig
    #: the paper's seconds for each instance at full size (None: no bar)
    paper_sec: float | None = None
    #: divisor from the paper's sizes to this run's
    scale: int = 1

    @property
    def is_cluster(self) -> bool:
        return isinstance(self.config, ClusterScenarioConfig)

    @property
    def is_hpbd(self) -> bool:
        """Swaps over HPBD (every cluster tenant does)."""
        return self.is_cluster or isinstance(self.config.device, HPBD)

    def build(self, trace: bool = False):
        """A fresh, runnable scenario object (``trace``: record spans)."""
        if self.is_cluster:
            return build_cluster_scenario(self.config, trace=trace)
        return build_scenario(self.config, trace=trace)


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    #: divisor on the paper's data and memory sizes
    scale: int
    #: (seed, qs_seed) -> the generated inputs
    inputs: Callable[[int, int], dict]
    scenarios: Callable[[dict], list[Scenario]]


def _devices() -> list:
    return [LocalMemory(), HPBD(), NBD("ipoib"), NBD("gige"), LocalDisk()]


def _bar(workload, device, paper: dict, scale: int) -> Scenario:
    """One figure bar: 512 MiB RAM and 1 GiB of swap (2 GiB RAM for the
    local bar), both divided by ``scale``."""
    local = isinstance(device, LocalMemory)
    cfg = ScenarioConfig(
        [workload],
        device,
        mem_bytes=(2 * GiB if local else 512 * MiB) // scale,
        swap_bytes=0 if local else GiB // scale,
        mem_reserved_bytes=24 * MiB // scale,
    )
    return Scenario(device.label, cfg, paper[device.label], scale)


def _figure(workload, paper: dict, scale: int) -> list[Scenario]:
    return [_bar(workload, dev, paper, scale) for dev in _devices()]


# -- fig07-quicksort --------------------------------------------------------

FIG07_SCALE = 64


def _fig07_inputs(seed: int, qs_seed: int) -> dict:
    return {"quicksort": QuicksortWorkload(QUICKSORT_ELEMS // FIG07_SCALE, seed=qs_seed)}


def _fig07_scenarios(inputs: dict) -> list[Scenario]:
    return _figure(inputs["quicksort"], PAPER_FIG7, FIG07_SCALE)


# -- fig05-testswap ---------------------------------------------------------

FIG05_SCALE = 16


def _fig05_inputs(seed: int, qs_seed: int) -> dict:
    # testswap is a fixed sequential store pass: no draw at all
    return {"testswap": TestswapWorkload(size_bytes=GiB // FIG05_SCALE)}


def _fig05_scenarios(inputs: dict) -> list[Scenario]:
    return _figure(inputs["testswap"], PAPER_FIG5, FIG05_SCALE)


# -- cluster-fair -----------------------------------------------------------

CLUSTER_SCALE = 128


def _fig07_tenant(name: str, workload, scale: int, swap_grain: int = 1) -> TenantSpec:
    """A tenant node at Fig. 7's HPBD sizing: 512 MiB RAM and 1 GiB of
    swap over ``scale``, the swap rounded up to ``swap_grain``."""
    swap = -(-(GiB // scale) // swap_grain) * swap_grain
    return TenantSpec(
        name=name, workload=workload, mem_bytes=512 * MiB // scale, swap_bytes=swap
    )


def _cluster_inputs(seed: int, qs_seed: int) -> dict:
    # One shared instance: the fairness check assumes identical tenants.
    return {"quicksort": QuicksortWorkload(QUICKSORT_ELEMS // CLUSTER_SCALE, seed=qs_seed)}


def _cluster_scenarios(inputs: dict) -> list[Scenario]:
    cfg = ClusterScenarioConfig(
        tenants=[
            _fig07_tenant(f"t{i}", inputs["quicksort"], CLUSTER_SCALE) for i in range(3)
        ],
        nservers=2,
        placement="blocking",
        qos=True,
        mem_reserved_bytes=24 * MiB // CLUSTER_SCALE,
        label="cluster-fair",
    )
    # The tenants' quick sort with enough RAM: Fig. 7's local bar, the
    # workload's only paper anchor (no figure shares a server fleet).
    local = _bar(inputs["quicksort"], LocalMemory(), PAPER_FIG7, CLUSTER_SCALE)
    return [local, Scenario("fair-3t2s", cfg)]


# -- recovery ---------------------------------------------------------------

#: Fixed-size crash points: one 3 MiB tenant sorting 768 Ki ints over an
#: 8 MiB swap area on eight servers (a ~420 ms run that walks its address
#: space roughly linearly, so each crash below lands on live reads).
CRASH_ELEMS = 768 * 1024
#: (label, policy, crashes as (at_usec, server), throttle MiB/s)
CRASH_POINTS = (
    ("nway2-crash", "nway(2)", ((90_000.0, 2),), 400.0),
    ("rs42-crash2", "rs(4,2)", ((120_000.0, 2), (200_000.0, 3)), 400.0),
    ("rs21-throttle", "rs(2,1)", ((140_000.0, 1),), 128.0),
)
CRASH_DOWN_USEC = 40_000.0
#: Each crash moves by a uniform draw from +-this many us per run.
JITTER_USEC = 4_000.0

#: The fail-slow fleet runs Fig. 7-sized tenants at this divisor, small
#: enough that its requests do not swamp the crash points'.
FAILSLOW_SCALE = 256


def _recovery_inputs(seed: int, qs_seed: int) -> dict:
    rng = random.Random(seed)

    def jitter() -> float:
        return rng.uniform(-JITTER_USEC, JITTER_USEC)

    return {
        "crash": QuicksortWorkload(CRASH_ELEMS, seed=qs_seed),
        "failslow": QuicksortWorkload(QUICKSORT_ELEMS // FAILSLOW_SCALE, seed=qs_seed),
        "crashes": [
            tuple((at + jitter(), srv) for at, srv in crashes)
            for _label, _policy, crashes, _throttle in CRASH_POINTS
        ],
    }


def _crash_point(label, policy, crashes, throttle, workload) -> Scenario:
    plan = FaultPlan(
        events=tuple(
            ServerCrash(at=at, server=srv, down_for=CRASH_DOWN_USEC)
            for at, srv in crashes
        )
    )
    cfg = ClusterScenarioConfig(
        tenants=[
            TenantSpec(
                name="t0",
                workload=workload,
                mem_bytes=3 * MiB,
                swap_bytes=8 * MiB,
                redundancy=policy,
            )
        ],
        nservers=8,
        qos=True,
        mem_reserved_bytes=MiB,
        faults=FaultConfig(plan=plan),
        migration_throttle_mib_s=throttle,
        label=label,
    )
    return Scenario(label, cfg)


def _failslow_fleet(workload) -> Scenario:
    """Three mirrored tenants on three servers; mem1 limps mid-run (16x
    service time plus 400 us per op) and EWMA steering, hedged reads
    and quarantine absorb it.  Timeouts stay off: the server never dies."""
    scale, nservers = FAILSLOW_SCALE, 3
    mid = 73_000_000.0 / scale
    plan = FaultPlan(
        events=(
            ServerSlow(
                at=mid, server=1, duration=mid / 2,
                service_mult=16.0, extra_rtt_usec=400.0,
            ),
        )
    )
    cfg = ClusterScenarioConfig(
        tenants=[
            _fig07_tenant(f"t{i}", workload, scale, swap_grain=nservers * PAGE_SIZE)
            for i in range(3)
        ],
        nservers=nservers,
        mirror=True,
        qos=True,
        mem_reserved_bytes=24 * MiB // scale,
        faults=FaultConfig(
            plan=plan,
            request_timeout_usec=None,
            ewma_select=True,
            hedge_reads=True,
        ),
        label="failslow-mitigated",
    )
    return Scenario("failslow-mitigated", cfg)


def _recovery_scenarios(inputs: dict) -> list[Scenario]:
    points = [
        _crash_point(label, policy, crashes, throttle, inputs["crash"])
        for (label, policy, _aimed, throttle), crashes in zip(
            CRASH_POINTS, inputs["crashes"]
        )
    ]
    # The fleet's quick sort with enough RAM: the paper anchor, as in
    # cluster-fair.
    local = _bar(inputs["failslow"], LocalMemory(), PAPER_FIG7, FAILSLOW_SCALE)
    return [local] + points + [_failslow_fleet(inputs["failslow"])]


#: Why each workload was chosen is recorded in perfbench/design.json.
WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef("fig07-quicksort", FIG07_SCALE, _fig07_inputs, _fig07_scenarios),
        WorkloadDef("fig05-testswap", FIG05_SCALE, _fig05_inputs, _fig05_scenarios),
        WorkloadDef("cluster-fair", CLUSTER_SCALE, _cluster_inputs, _cluster_scenarios),
        WorkloadDef("recovery", FAILSLOW_SCALE, _recovery_inputs, _recovery_scenarios),
    )
}
