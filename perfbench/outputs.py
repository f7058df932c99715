"""What a workload's simulated runs yield: the simulated end-to-end
metrics, the per-layer counts, the output checks and the request
accounting.

``runs`` everywhere is a list of ``(Scenario, built, result)`` triples:
the benchmark's scenario, the object ``build()`` returned (it owns the
simulator) and the result its ``run()`` returned.  Counts are summed
over tenants, servers and scenarios.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from scenarios import BARS

LATENCY = ".rq.req_latency_usec"
_HPBD_CLIENT = re.compile(r"hpbd\d+|.+-hpbd")


def _registries(runs) -> list:
    return [result.registry for _sc, _built, result in runs]


def _stats(registries, pred):
    """Every registry entry whose name satisfies ``pred``."""
    for reg in registries:
        for name in reg.names():
            if pred(name):
                yield reg.get(name)


def _hpbd(stat: str):
    """Predicate: an HPBD client's ``stat`` (``hpbd0.x``, ``t1-hpbd.x``)."""

    def pred(name: str) -> bool:
        prefix, _, rest = name.partition(".")
        return rest == stat and _HPBD_CLIENT.fullmatch(prefix) is not None

    return pred


def _count(registries, pred) -> int:
    return int(sum(s.count for s in _stats(registries, pred)))


def _total(registries, pred) -> float:
    return float(sum(s.total for s in _stats(registries, pred)))


def _suffix(suffix: str):
    return lambda name: name.endswith(suffix)


def _exact(full: str):
    return lambda name: name == full


def latencies(runs) -> np.ndarray:
    """Every swap request's submit-to-complete latency (us), in
    scenario and registry order."""
    parts = [s.values() for s in _stats(_registries(runs), _suffix(LATENCY))]
    return np.concatenate(parts) if parts else np.array([], dtype=np.float64)


def paper_errors(runs) -> dict[str, float]:
    """Signed % error of every scenario that is a paper bar."""
    return {
        sc.name: (result.elapsed_usec * sc.scale / 1e6 - sc.paper_sec)
        / sc.paper_sec
        * 100.0
        for sc, _built, result in runs
        if sc.paper_sec is not None
    }


def end_to_end(runs) -> dict[str, float]:
    """The simulated end-to-end metrics.

    ``paper_err_pct`` covers the paper bars, ``sim_s`` and the ``io_*``
    latencies the HPBD scenarios: pooling NBD and disk requests would
    make the latency tail the disk's.  ``tenant_spread`` is 1.0 when no
    scenario has more than one tenant.
    """
    hpbd = [run for run in runs if run[0].is_hpbd]
    lat = latencies(hpbd)
    errors = paper_errors(runs)
    spreads = [
        max(e) / min(e)
        for e in (
            [inst.elapsed_usec for inst in result.instances]
            for _sc, _built, result in runs
        )
        if len(e) > 1
    ]
    return {
        "paper_err_pct": float(np.mean(np.abs(list(errors.values())))),
        "sim_s": sum(result.elapsed_usec for _sc, _b, result in hpbd) / 1e6,
        "io_p50_us": float(np.percentile(lat, 50)),
        "io_p99_us": float(np.percentile(lat, 99)),
        "tenant_spread": max(spreads, default=1.0),
    }


def layer_counts(runs) -> dict[str, float]:
    """The exact per-layer counts (everything but host time, blame and
    set-up), keyed by their benchmark names."""
    regs = _registries(runs)

    def c(pred) -> int:
        return _count(regs, pred)

    def t(pred) -> float:
        return _total(regs, pred)

    swap_bytes = t(_suffix(".rq.req_bytes.read")) + t(_suffix(".rq.req_bytes.write"))
    nreq = c(_suffix(LATENCY))
    fabric = t(lambda n: n.startswith("fabric.bytes."))
    hedges = c(_hpbd("hedges"))
    lost = t(_exact("repair.lost_bytes"))
    return {
        "sim.events": sum(built.sim.events_processed for _s, built, _r in runs),
        "vm.faults_major": c(_suffix(".vm.fault_major")),
        "vm.swapin_pages": t(_suffix(".vm.swapin_pages")),
        "vm.swapout_pages": t(_suffix(".vm.swapout_pages")),
        "vm.alloc_stall_us": t(_suffix(".vm.alloc_stall_usec")),
        "blk.requests": nreq,
        "blk.req_kib_mean": swap_bytes / nreq / 1024 if nreq else 0.0,
        "hpbd.requests": c(_hpbd("physical_requests")),
        "hpbd.pool_stall_us": t(_hpbd("pool.alloc_stall_usec")),
        "srv.staging_stall_us": t(_suffix(".staging.alloc_stall_usec")),
        "hpbd.retries": c(_hpbd("retries")),
        "hpbd.timeouts": c(_hpbd("timeouts")),
        "hpbd.failovers": c(_hpbd("failovers")),
        "hpbd.write_failovers": c(_hpbd("write_failovers")),
        "hpbd.degraded_reads": c(_hpbd("degraded_reads")),
        "hpbd.hedges": hedges,
        "hpbd.hedge_win_frac": c(_hpbd("hedge_wins")) / hedges if hedges else 0.0,
        "hpbd.steered_reads": c(_hpbd("steered_reads")),
        "ib.registrations": c(_exact("ib.registrations")),
        "ib.registration_us": t(_exact("ib.registration_usec")),
        "net.transfer_us": t(_exact("fabric.transfer_usec")),
        "net.bytes_per_swap_byte": fabric / swap_bytes if swap_bytes else 0.0,
        "nbd.request_us": t(lambda n: n.startswith("nbd") and n.endswith(".request_usec")),
        "nbd.deadlock_hazards": c(_suffix(".deadlock_hazards")),
        "disk.service_us": t(_suffix(".service_usec")),
        "cluster.admission_nacks": c(_exact("cluster.admission_nacks")),
        "repair.rebuilds": c(_exact("repair.rebuilds")),
        "repair.traffic_ratio": t(_exact("repair.bytes_moved")) / lost if lost else 0.0,
        "repair.aborts": c(_exact("repair.aborts")),
        "repair_s": t(_exact("repair.rebuild_usec")) / 1e6,
        "mig.throttle_waits": c(_exact("mig.throttle_waits")),
        "fault.crashes": c(_exact("fault.server_crashes")),
        "fault.slowdowns": c(_exact("fault.server_slowdowns")),
    }


def outcome_digest(runs) -> str:
    """Hash of every completion time and request latency, to prove two
    runs of the same inputs simulated the same thing."""
    h = hashlib.sha256()
    for _sc, _built, result in runs:
        h.update(np.float64(result.elapsed_usec).tobytes())
        for inst in result.instances:
            h.update(np.float64(inst.elapsed_usec).tobytes())
    h.update(latencies(runs).tobytes())
    return h.hexdigest()


def requests(registry) -> int:
    """Swap requests a scenario's stats registry saw: completed block
    requests plus admission NACKs (refused requests)."""
    regs = [registry]
    return _count(regs, _suffix(LATENCY)) + _count(regs, _exact("cluster.admission_nacks"))


def checks(workload: str, runs) -> list[tuple[str | None, str]]:
    """Failed output checks as ``(scenario or None for all, message)``."""
    bad: list[tuple[str | None, str]] = []
    for sc, _built, result in runs:
        if result.invariant_violations:
            bad.append((sc.name, f"{len(result.invariant_violations)} monitor violations"))
        want = len(sc.config.tenants) if sc.is_cluster else len(sc.config.workloads)
        done = [i for i in result.instances if i.elapsed_usec > 0]
        if len(done) != want:
            bad.append((sc.name, f"{len(done)} of {want} instances completed"))
        if sc.is_cluster and any(t.disk_fallback for t in result.tenants):
            bad.append((sc.name, "a tenant was refused by admission control"))
    by_name = {sc.name: result for sc, _b, result in runs}
    if workload in ("fig07-quicksort", "fig05-testswap"):
        times = [by_name[bar].elapsed_usec for bar in BARS]
        if times != sorted(times) or len(set(times)) != len(times):
            bad.append((None, f"bars out of order: {dict(zip(BARS, times))}"))
    if workload == "cluster-fair":
        spread = end_to_end(runs)["tenant_spread"]
        if spread > 1.10:
            bad.append((None, f"tenant spread {spread:.3f} beyond the 10% fairness gate"))
    if workload == "recovery":
        for sc, _b, result in runs:
            repair = result.redundancy.get("repair") if sc.is_cluster else None
            if repair is None:
                continue
            crashes = len(sc.config.faults.plan.events)
            if repair["rebuilds"] < crashes or repair["pending"]:
                bad.append((sc.name, f"repair incomplete: {repair}"))
        counts = layer_counts(runs)
        for key in ("hpbd.degraded_reads", "hpbd.failovers", "mig.throttle_waits"):
            if counts[key] == 0:
                bad.append((None, f"{key} never observed"))
        if _count(_registries(runs), _hpbd("hedge_wins")) == 0:
            bad.append((None, "no hedged read ever won"))
    return bad
