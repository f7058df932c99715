"""Command-line interface: run paper experiments from the shell.

::

    python -m repro list
    python -m repro run fig05 --scale 8
    python -m repro run fig10 --scale 16 --json out.json
    python -m repro run all
    python -m repro table1

Each experiment prints the same paper-vs-measured table its benchmark
prints; ``--json`` additionally dumps the raw numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from . import experiments
from .analysis import (
    cluster_requests,
    comparison_table,
    format_table,
    render_table1,
    write_json_report,
)
from .results import ScenarioResult
from .units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from .config import ClusterScenarioConfig, ScenarioConfig

__all__ = ["main", "EXPERIMENTS"]


def _scaled(results: list[ScenarioResult], scale: int) -> list[ScenarioResult]:
    return [
        dataclasses.replace(r, elapsed_usec=r.elapsed_usec * scale)
        for r in results
    ]


def _run_fig01(scale: int) -> dict:
    data = experiments.fig01_latency()
    rows = [
        [int(s), data["memcpy"][i], data["rdma_write"][i],
         data["ipoib"][i], data["gige"][i]]
        for i, s in enumerate(data["sizes"])
    ]
    print("Fig. 1 — one-way latency (µs) vs size (B)")
    print(format_table(["size", "memcpy", "rdma_write", "ipoib", "gige"], rows))
    return {k: list(map(float, v)) for k, v in data.items()}


def _run_fig03(scale: int) -> dict:
    data = experiments.fig03_registration()
    print("Fig. 3 — registration vs memcpy cost (µs)")
    print(format_table(
        ["size", "registration", "memcpy"],
        [[int(s), data["registration"][i], data["memcpy"][i]]
         for i, s in enumerate(data["sizes"])],
    ))
    return {k: list(map(float, v)) for k, v in data.items()}


def _run_fig05(scale: int) -> dict:
    results = experiments.fig05_testswap(scale)
    print(f"Fig. 5 — testswap (scale=1/{scale}; seconds shown x{scale})")
    print(comparison_table(_scaled(results, scale), paper=experiments.PAPER_FIG5))
    return {r.label: r.elapsed_sec * scale for r in results}


def _run_fig06(scale: int) -> dict:
    result = experiments.fig06_reqsize_run(scale)
    clusters = cluster_requests(result.request_trace, op="write")
    print(f"Fig. 6 — request clusters (testswap over HPBD, scale=1/{scale})")
    print(format_table(
        ["cluster", "requests", "avg size (KiB)"],
        [[c.index, c.count, c.mean_bytes / KiB]
         for c in clusters[:: max(1, len(clusters) // 20)]],
    ))
    return {
        "mean_write_request_kib": result.mean_write_request / KiB,
        "clusters": len(clusters),
    }


def _run_fig07(scale: int) -> dict:
    results = experiments.fig07_quicksort(scale)
    print(f"Fig. 7 — quick sort (scale=1/{scale}; seconds shown x{scale})")
    print(comparison_table(_scaled(results, scale), paper=experiments.PAPER_FIG7))
    return {r.label: r.elapsed_sec * scale for r in results}


def _run_fig08(scale: int) -> dict:
    s = max(1, scale // 2)
    results = experiments.fig08_barnes(s)
    print(f"Fig. 8 — Barnes (scale=1/{s}; seconds shown x{s})")
    print(comparison_table(_scaled(results, s)))
    return {r.label: r.elapsed_sec * s for r in results}


def _run_fig09(scale: int) -> dict:
    cells = experiments.fig09_concurrent(scale)
    print(f"Fig. 9 — two concurrent quick sorts (scale=1/{scale})")
    print(format_table(
        ["device", "memory", "vs local"],
        [[c.label, c.memory, c.slowdown] for c in cells],
    ))
    return {f"{c.label}@{c.memory}": c.slowdown for c in cells}


def _run_fig10(scale: int) -> dict:
    results = experiments.fig10_servers(scale)
    base = results[0][1]
    print(f"Fig. 10 — quick sort vs #servers (scale=1/{scale})")
    print(format_table(
        ["servers", f"time (s, x{scale})", "vs 1 server"],
        [[n, r.elapsed_sec * scale, r.slowdown_vs(base)] for n, r in results],
    ))
    return {str(n): r.elapsed_sec * scale for n, r in results}


def _run_table1(scale: int) -> dict:
    print(render_table1())
    return {"systems": 10}


EXPERIMENTS: dict[str, tuple[Callable[[int], dict], str]] = {
    "table1": (_run_table1, "related-work taxonomy"),
    "fig01": (_run_fig01, "latency vs size microbenchmark"),
    "fig03": (_run_fig03, "registration vs memcpy cost"),
    "fig05": (_run_fig05, "testswap across devices"),
    "fig06": (_run_fig06, "testswap request-size clusters"),
    "fig07": (_run_fig07, "quick sort across devices"),
    "fig08": (_run_fig08, "Barnes across devices"),
    "fig09": (_run_fig09, "two concurrent quick sorts"),
    "fig10": (_run_fig10, "quick sort vs number of servers"),
}


def _write_csv(name: str, scale: int, outdir: str) -> None:
    """Write the plot-ready CSV for one experiment, if it has one."""
    from pathlib import Path

    from .analysis.export import (
        clusters_to_csv,
        results_to_csv,
        series_to_csv,
    )

    path = Path(outdir) / f"{name}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    if name == "fig01":
        path.write_text(series_to_csv(experiments.fig01_latency()))
    elif name == "fig03":
        path.write_text(series_to_csv(experiments.fig03_registration()))
    elif name == "fig05":
        path.write_text(results_to_csv(experiments.fig05_testswap(scale)))
    elif name == "fig06":
        run = experiments.fig06_reqsize_run(scale)
        path.write_text(clusters_to_csv(run.request_trace))
    elif name == "fig07":
        path.write_text(results_to_csv(experiments.fig07_quicksort(scale)))
    elif name == "fig08":
        path.write_text(
            results_to_csv(experiments.fig08_barnes(max(1, scale // 2)))
        )
    else:
        return
    print(f"wrote {path}")


_TRACE_DEVICES = ("hpbd", "nbd-ipoib", "nbd-gige", "disk")
_TRACE_WORKLOADS = ("quicksort", "testswap")


def _workload(args):
    """A fresh ``--workload`` instance sized by ``--scale``."""
    from .units import GiB
    from .workloads import QuicksortWorkload, TestswapWorkload

    if args.workload == "quicksort":
        return QuicksortWorkload(nelems=256 * 1024 * 1024 // args.scale)
    return TestswapWorkload(size_bytes=GiB // args.scale)


def _device_scenario(args):
    """``trace`` / ``critpath``: ``--workload`` swapping over ``--device``."""
    from .config import HPBD, LocalDisk, NBD
    from .experiments import _scenario
    from .units import GiB, MiB

    device = {
        "hpbd": HPBD(),
        "nbd-ipoib": NBD("ipoib"),
        "nbd-gige": NBD("gige"),
        "disk": LocalDisk(),
    }[args.device]
    return _scenario([_workload(args)], device, args.scale, 512 * MiB, GiB)


def _run_trace(args) -> int:
    """``repro trace``: one traced run + baseline, breakdown, exports."""
    from .analysis.breakdown import (
        format_breakdown,
        measured_breakdown,
        measured_network_fraction,
        wire_crosscheck,
    )
    from .config import LocalMemory
    from .experiments import _scenario
    from .net.fabrics import IB_DEFAULT
    from .obs import spans_to_csv, write_chrome_trace
    from .runner import run_scenario
    from .units import GiB

    print(f"tracing {args.workload} over {args.device} (scale=1/{args.scale})...")
    result = run_scenario(_device_scenario(args), trace=True)
    base = run_scenario(
        _scenario([_workload(args)], LocalMemory(), args.scale, 2 * GiB, GiB)
    )
    rows = measured_breakdown(result, base)
    print(f"{result.summary()}   ({len(result.trace)} trace events)")
    print()
    print("Measured §6.2 decomposition (aggregate span time, share of "
          "swap overhead):")
    print(format_breakdown(rows))
    frac = measured_network_fraction(result, base)
    print(f"network share of overhead (measured): {frac:.1%}")
    if args.device == "hpbd":
        measured, modeled, err = wire_crosscheck(
            result, IB_DEFAULT.rdma_write_cost
        )
        print(
            f"wire cross-check vs Amdahl cost model: measured "
            f"{measured / 1e3:.1f} ms, modeled {modeled / 1e3:.1f} ms "
            f"(rel. err {err:.1%})"
        )
    write_chrome_trace(result.trace, args.output)
    print(f"wrote {args.output}  (load in Perfetto / chrome://tracing)")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(spans_to_csv(result.trace))
        print(f"wrote {args.csv}")
    return 0


# -- scenario gates -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Run:
    """One simulation a gate needs.  ``spans``: the gate reads the run's
    trace, so the run is traced."""

    name: str
    config: ScenarioConfig | ClusterScenarioConfig
    spans: bool = False


@dataclasses.dataclass(frozen=True)
class _Gate:
    """One scenario command, as :func:`_drive` runs it.

    ``runs`` are simulated in order; the last is the headline run, the
    one ``-o`` traces and writes.  ``check`` turns the results (keyed by
    run name) into the ``--json`` payload and the failed predicates;
    ``show`` prints the report from the results, that payload and those
    failures.
    """

    intro: str
    runs: tuple[_Run, ...]
    check: Callable[[dict], tuple[dict, list[str]]]
    show: Callable[[dict, dict, list[str]], None]


def _judge(gate: _Gate, output: str | None):
    """Simulate a gate's runs; return the results by name, the payload
    (plus every run's invariant violations, in run order) and the
    failed predicates."""
    from .runner import run_scenario

    results = {
        run.name: run_scenario(
            run.config,
            trace=run.spans or (bool(output) and run is gate.runs[-1]),
        )
        for run in gate.runs
    }
    payload, failures = gate.check(results)
    payload["violations"] = [
        v for result in results.values() for v in result.invariant_violations
    ]
    return results, payload, failures


def _drive(build: Callable[[argparse.Namespace], _Gate], args) -> int:
    """Run one scenario command: build its gate, simulate, report.

    Exit status 0 when everything passes; 1 on an invariant violation, a
    failed predicate or a replay divergence; 2 when the arguments give
    no valid config (``build`` raised ``ValueError``).  ``--replay-check``
    builds and simulates every run again and compares the whole payload
    but ``status``; ``--json`` writes the payload plus ``status``.
    """
    from .obs import write_chrome_trace

    try:
        gate = build(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    output = getattr(args, "output", None)
    print(gate.intro)
    results, payload, failures = _judge(gate, output)
    gate.show(results, payload, failures)
    violations = payload["violations"]
    if violations:
        failures.insert(0, f"{len(violations)} invariant violations:" + "".join(
            f"\n  t={v['t_usec']:.1f} {v['monitor']} "
            f"[{v['component']}]: {v['message']}"
            for v in violations[:20]
        ))
    else:
        print("invariant monitors: clean (0 violations)")
    if getattr(args, "replay_check", False):
        _, again, _ = _judge(build(args), output)
        diverged = sorted(
            key for key in payload.keys() | again.keys()
            if json.dumps(payload.get(key), sort_keys=True)
            != json.dumps(again.get(key), sort_keys=True)
        )
        if diverged:
            failures.append(
                f"replay diverged for the same seed ({', '.join(diverged)})"
            )
        else:
            print("replay check: second run identical (whole payload)")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    status = 1 if failures else 0
    if output:
        write_chrome_trace(results[gate.runs[-1].name].trace, output)
        print(f"wrote {output}  (load in Perfetto / chrome://tracing)")
    if args.json:
        write_json_report(args.json, {**payload, "status": status})
        print(f"wrote {args.json}")
    return status


def _counter(registry, name: str) -> int:
    c = registry.get(name)
    return int(c.total) if c is not None else 0


def _critpath_gate(args) -> _Gate:
    """``repro critpath``: per-request blame; fails on orphan
    request-path spans (no ``req_id``)."""
    from .analysis.critpath import (
        blame_split,
        format_critpath,
        orphan_spans,
        request_paths,
        slowest,
    )

    def check(results):
        result = results["run"]
        paths = request_paths(result.trace)
        orphans = orphan_spans(result.trace)
        payload = {
            "device": args.device,
            "workload": args.workload,
            "scale": args.scale,
            "requests": len(paths),
            "blame_usec": result.blame_usec,
            **blame_split(result.blame_usec),
            "orphan_spans": len(orphans),
            "watermarks": result.monitor_watermarks,
            "slowest": [
                {
                    "req_id": p.req_id,
                    "op": p.op,
                    "nbytes": p.nbytes,
                    "e2e_usec": p.e2e,
                    "queue_wait_usec": p.queue_wait,
                    "blame_usec": p.blame,
                }
                for p in slowest(paths, args.top)
            ],
        }
        failures = []
        if orphans:
            cats = sorted({s.cat for s in orphans})
            failures.append(
                f"{len(orphans)} request-path spans without req_id "
                f"(cats: {', '.join(cats)})"
            )
        return payload, failures

    def show(results, payload, failures):
        print(format_critpath(request_paths(results["run"].trace), top=args.top))
        if payload["watermarks"]:
            print("watermarks:")
            for key, value in sorted(payload["watermarks"].items()):
                print(f"  {key} = {value:g}")

    return _Gate(
        f"critical-path analysis: {args.workload} over {args.device} "
        f"(scale=1/{args.scale})...",
        (_Run("run", _device_scenario(args), spans=True),),
        check,
        show,
    )


_FAULT_MODES = ("mirror", "disk")
_PLACEMENT_POLICIES = ("blocking", "least_loaded", "hash")

#: the HPBD client's recovery counters ``repro faults`` reports.
_RECOVERY_COUNTERS = (
    "retries", "timeouts", "failovers", "write_failovers",
    "disk_fallbacks", "stale_replies", "servers_dead",
)


def _faults_gate(args) -> _Gate:
    """``repro faults``: crash a memory server mid-run, audit recovery.

    One traced testswap run with a scheduled ``ServerCrash`` and the
    recovery machinery of ``--mode``; reports the recovery counters and
    the fault/retry blame shares.  ``--expect-recovery`` fails a run
    that never timed out or never failed over / fell back.
    """
    from .analysis.critpath import blame_split
    from .config import FaultConfig, HPBD
    from .experiments import _scenario
    from .faults import FaultPlan, ServerCrash
    from .units import GiB, MiB
    from .workloads import TestswapWorkload

    scale = args.scale
    mirror = args.mode == "mirror"
    # Mid-run for a testswap at this scale (~8.4e6/scale us total), so
    # the crash lands inside active swap traffic.
    crash_at = 4_200_000.0 / scale if args.crash_at is None else args.crash_at
    cfg = _scenario(
        [TestswapWorkload(size_bytes=GiB // scale)],
        HPBD(nservers=2, mirror=True) if mirror else HPBD(nservers=4),
        scale, 512 * MiB, GiB,
    )
    cfg.faults = FaultConfig(
        plan=FaultPlan(
            events=(ServerCrash(at=crash_at, server=0 if mirror else 1),),
            seed=args.seed,
        ),
        request_timeout_usec=args.timeout,
        degraded_mode="none" if mirror else "disk",
    )
    cfg.seed = args.seed

    def check(results):
        result = results["run"]
        ctrs = {
            key: _counter(result.registry, f"hpbd0.{key}")
            for key in _RECOVERY_COUNTERS
        }
        for name in sorted(result.registry.names()):
            if name.startswith("fault."):
                ctrs[name] = _counter(result.registry, name)
        payload = {
            "mode": args.mode,
            "scale": scale,
            "seed": args.seed,
            "crash_at_usec": crash_at,
            "timeout_usec": args.timeout,
            "elapsed_usec": result.elapsed_usec,
            "counters": ctrs,
            "blame_usec": result.blame_usec,
            **blame_split(result.blame_usec),
        }
        failures = []
        recovered = (
            ctrs["failovers"] + ctrs["write_failovers"] + ctrs["disk_fallbacks"]
        )
        detected = ctrs["retries"] + ctrs["timeouts"]
        if args.expect_recovery and (recovered == 0 or detected == 0):
            failures.append(
                f"expected recovery activity, got {detected} "
                f"timeouts/retries and {recovered} failovers/fallbacks"
            )
        return payload, failures

    def show(results, payload, failures):
        print(results["run"].summary())
        print()
        print("recovery / fault counters:")
        for key, value in payload["counters"].items():
            if value:
                print(f"  {key:<24s} {value}")
        blame = payload["blame_usec"]
        total = sum(blame.values())
        if total > 0:
            print("blame shares:")
            for label in ("fault", "retry"):
                print(f"  {label:<8s} {blame.get(label, 0.0) / total:6.2%}")

    return _Gate(
        f"fault run: testswap over hpbd, mode={args.mode}, crash at "
        f"t={crash_at:g} us (scale=1/{scale}, seed={args.seed})...",
        (_Run("run", cfg, spans=True),),
        check,
        show,
    )


def _redundancy_default_crashes(pol, ncrashes: int):
    """Crash schedule aimed at the quicksort read frontier (see
    :func:`~repro.experiments.cluster_redundancy_config`): each outage
    lands on the shard being swept at that moment, so the degraded
    path is provably exercised, not just the rebuild."""
    if pol.kind == "nway":
        picks = ((90_000.0, 2), (200_000.0, 4))
    elif pol.k == 2:  # two wide data shards: the frontier crosses late
        picks = ((140_000.0, 1), (60_000.0, 0))
    else:
        picks = ((120_000.0, 2), (200_000.0, 3))
    return picks[:ncrashes]


def _redundancy_gate(args) -> _Gate:
    """``repro redundancy``: crash erasure-coded members mid-run, audit
    degraded reads and background repair.

    One quicksort tenant whose swap area is protected by ``--policy``,
    with ``--crashes`` mid-run server crashes (wipe + 40 ms outage +
    restart).  ``--expect-recovery`` fails unless every lost member
    rebuilt and nothing is left pending, degraded service was observed
    while members were down (rs reads reconstruct; nway reads fail
    over), repair traffic is within 10% of lost x (k+m)/k, memory
    overhead within 0.05 of the policy's nominal, and the throttle
    contended.
    """
    from .experiments import cluster_redundancy_config
    from .redundancy.policy import parse_policy
    from .units import fmt_bytes

    pol = parse_policy(args.policy)
    if pol.kind == "none":
        raise ValueError("pick a redundant policy (nway(r) or rs(k,m))")
    if args.crashes > pol.m:
        # Staggered outages heal in between, but keep the gate honest:
        # the schedule never exceeds the policy's concurrent tolerance,
        # so > m crashes only make sense with a wider policy.
        raise ValueError(
            f"{pol.label} tolerates {pol.m} concurrent failures; "
            f"--crashes {args.crashes} exceeds that"
        )
    crashes = _redundancy_default_crashes(pol, args.crashes)
    cfg = cluster_redundancy_config(
        redundancy=args.policy,
        nservers=args.nservers,
        crashes=crashes,
        throttle_mib_s=args.throttle_mib_s,
    )
    cfg.seed = args.seed

    def check(results):
        result = results["run"]
        report = result.redundancy
        payload = {
            "policy": pol.label,
            "nservers": args.nservers,
            "seed": args.seed,
            "crashes": [{"at_usec": at, "server": s} for at, s in crashes],
            "throttle_mib_s": args.throttle_mib_s,
            "elapsed_usec": result.elapsed_usec,
            "report": report,
        }
        if not args.expect_recovery:
            return payload, []
        problems = []
        repair = report.get("repair", {})
        if repair.get("rebuilds", 0) < len(crashes):
            problems.append(
                f"{repair.get('rebuilds', 0)} rebuilds for "
                f"{len(crashes)} crashes"
            )
        if repair.get("pending", 0):
            problems.append(f"{repair['pending']} members still pending")
        degraded = (
            report["read_failovers"]
            if pol.kind == "nway"
            else report["degraded_reads"]
        )
        if degraded == 0:
            problems.append("no degraded service observed during outages")
        lost = repair.get("lost_bytes", 0)
        moved = repair.get("bytes_moved", 0)
        expect = pol.repair_traffic_bytes(lost)
        if lost and abs(moved - expect) > 0.10 * expect:
            problems.append(
                f"repair moved {moved} B, expected ~{expect} B "
                f"(lost x {(pol.k + pol.m)}/{pol.k})"
            )
        if report["overhead"] > pol.overhead + 0.05:
            problems.append(
                f"overhead {report['overhead']:.3f}x exceeds "
                f"{pol.overhead + 0.05:.2f}x"
            )
        if not repair.get("throttle_waits", 0):
            problems.append("migration throttle never contended")
        return payload, [f"expected recovery: {p}" for p in problems]

    def show(results, payload, failures):
        report = payload["report"]
        repair = report.get("repair", {})
        print(results["run"].summary())
        print()
        print(f"policy {pol.label}: demand {fmt_bytes(report['demand_bytes'])}, "
              f"reserved {fmt_bytes(report['reserved_bytes'])} "
              f"(overhead {report['overhead']:.2f}x, "
              f"nominal {pol.overhead:.2f}x)")
        print(f"degraded service: {report['degraded_reads']} degraded reads, "
              f"{report['reconstructs']} reconstructs, "
              f"{report['read_failovers']} read failovers, "
              f"{report['write_failovers']} write failovers")
        print(f"repair: {repair.get('rebuilds', 0)} rebuilds "
              f"({repair.get('spare_rebuilds', 0)} onto spares, "
              f"{repair.get('aborts', 0)} aborted), "
              f"{fmt_bytes(repair.get('bytes_moved', 0))} moved for "
              f"{fmt_bytes(repair.get('lost_bytes', 0))} lost, "
              f"{repair.get('pending', 0)} pending, "
              f"{repair.get('throttle_waits', 0)} throttle waits")
        if args.expect_recovery and not failures:
            print("recovery gate: rebuilt, degraded service observed, "
                  "traffic and overhead within bounds")

    when = ", ".join(f"mem{s}@{at / 1000:g}ms" for at, s in crashes)
    return _Gate(
        f"redundancy run: quicksort over {args.policy}, "
        f"{args.nservers} servers, crashes [{when}], "
        f"throttle {args.throttle_mib_s:g} MiB/s (seed={args.seed})...",
        (_Run("run", cfg),),
        check,
        show,
    )


def _cluster_gate(args) -> _Gate:
    """``repro cluster``: multi-tenant fairness scenario + report.

    The three-tenant weighted-fair run and, unless ``--skip-baseline``,
    the QoS-off unfair baseline.  Fails when the fair run's
    completion-time spread exceeds ``--max-spread`` or the baseline's
    falls below ``--min-baseline-spread`` (the contrast the QoS
    machinery must create).
    """
    from .experiments import cluster_fair_config, cluster_unfair_config
    from .units import fmt_bytes

    scale = args.scale
    fair = cluster_fair_config(
        scale, nservers=args.nservers, placement=args.placement
    )
    runs = [_Run("fair", fair)]
    if not args.skip_baseline:
        runs.append(_Run(
            "baseline", cluster_unfair_config(scale, nservers=args.nservers)
        ))
    for run in runs:
        run.config.seed = args.seed

    def check(results):
        fair = results["fair"]
        payload = {
            "scale": scale,
            "seed": args.seed,
            "fair": fair.fairness_report(),
        }
        failures = []
        if fair.spread > args.max_spread:
            failures.append(
                f"fair spread {fair.spread:.2f} exceeds "
                f"--max-spread {args.max_spread:.2f}"
            )
        unfair = results.get("baseline")
        if unfair is not None:
            payload["unfair_baseline"] = unfair.fairness_report()
            if unfair.spread < args.min_baseline_spread:
                failures.append(
                    f"baseline spread {unfair.spread:.2f} below "
                    f"--min-baseline-spread {args.min_baseline_spread:.2f}"
                )
        return payload, failures

    def show(results, payload, failures):
        titles = {
            "fair": "fair (qos on)",
            "baseline": "baseline (qos off, one thrashing tenant)",
        }
        for name, result in results.items():
            if name != "fair":
                print()
            print(f"{titles[name]}: {result.summary()}")
            print(format_table(
                ["tenant", "workload", f"time (s, x{scale})", "majors",
                 "served", "placement"],
                [
                    [
                        t.name,
                        t.workload,
                        f"{t.elapsed_usec * scale / 1e6:.2f}",
                        t.major_faults,
                        fmt_bytes(t.bytes_served),
                        t.placement if not t.disk_fallback else "disk-fallback",
                    ]
                    for t in result.tenants
                ],
            ))

    return _Gate(
        f"cluster run: 3 tenants x {args.nservers} servers, "
        f"placement={args.placement} (scale=1/{scale}, seed={args.seed})...",
        tuple(runs),
        check,
        show,
    )


def _plan_degraded_servers(faults) -> list[str]:
    """Server names a fault plan degrades without killing: the
    ``LinkDegrade`` targets plus ``ServerSlow``'s indices mapped to the
    runner's ``mem{i}`` naming.  Event order, no duplicates."""
    from .faults import LinkDegrade, ServerSlow

    names: list[str] = []
    if faults is None or faults.plan is None:
        return names
    for ev in faults.plan.events:
        if isinstance(ev, LinkDegrade):
            name = ev.node
        elif isinstance(ev, ServerSlow):
            name = f"mem{ev.server}"
        else:
            continue
        if name not in names:
            names.append(name)
    return names


def _mitigate_gate(args) -> _Gate:
    """``repro health --mitigate``: the limping-server acceptance run.

    The mirrored three-tenant fleet three ways — healthy baseline,
    unmitigated fail-slow cliff, and fail-slow with EWMA replica
    selection + hedged reads + quarantine armed — gated on the worst
    tenant p99: the unmitigated run must breach the ratio (the fault
    bites) and the mitigated run must stay under it (the countermeasures
    earn their keep), with winning hedges whose time the mitigated
    run's critical-path blame shows.
    """
    from .experiments import cluster_failslow_mitigated_config

    def run(name: str, slow: bool, mitigate: bool) -> _Run:
        cfg = cluster_failslow_mitigated_config(
            args.scale,
            nservers=args.nservers,
            service_mult=args.service_mult,
            extra_rtt_usec=args.extra_rtt_usec,
            slow=slow,
            mitigate=mitigate,
        )
        cfg.seed = args.seed
        return _Run(name, cfg, spans=name == "mitigated")

    def check(results):
        p99 = {
            name: max(
                t["p99_usec"] or 0.0 for t in result.health["tenants"].values()
            )
            for name, result in results.items()
        }
        mitigated = results["mitigated"]
        counters = {
            key: sum(
                _counter(mitigated.registry, f"{t.name}-hpbd.{key}")
                for t in mitigated.tenants
            )
            for key in (
                "hedges", "hedge_wins", "steered_reads", "semisync_writes",
                "quarantines", "quarantine_lifts",
            )
        }
        counters["server_slowdowns"] = _counter(
            mitigated.registry, "fault.server_slowdowns"
        )
        payload = {
            "scenario": "cluster-failslow-mitigated",
            "scale": args.scale,
            "seed": args.seed,
            "nservers": args.nservers,
            "p99_ratio_gate": args.p99_ratio,
            "p99_usec": p99,
            "counters": counters,
            "blame_usec": mitigated.blame_usec,
            "health": mitigated.health,
        }
        healthy = p99["healthy"]
        failures = []
        if p99["unmitigated"] < args.p99_ratio * healthy:
            failures.append(
                f"unmitigated run did not breach the gate "
                f"({p99['unmitigated']:.1f} < {args.p99_ratio}x "
                f"{healthy:.1f}) — the injected fault is too mild to "
                f"prove mitigation"
            )
        if p99["mitigated"] >= args.p99_ratio * healthy:
            failures.append(
                f"mitigated p99 {p99['mitigated']:.1f} us >= "
                f"{args.p99_ratio}x healthy {healthy:.1f} us"
            )
        if counters["hedges"] == 0 or counters["hedge_wins"] == 0:
            failures.append("mitigated run fired no winning hedges")
        if mitigated.blame_usec.get("hedge_win", 0.0) <= 0.0:
            failures.append("critical-path blame shows no hedge-win time")
        return payload, failures

    def show(results, payload, failures):
        p99 = payload["p99_usec"]
        healthy = p99["healthy"]
        print()
        print(format_table(
            ["run", "worst tenant p99 (us)", "vs healthy"],
            [
                [name, round(value, 1), f"{value / healthy:.2f}x"]
                for name, value in p99.items()
            ],
        ))
        print()
        print("mitigated-run counters:")
        for key, value in payload["counters"].items():
            print(f"  {key:<18s} {value}")
        blame = payload["blame_usec"]
        print(
            f"critpath blame: hedge_win={blame.get('hedge_win', 0.0):.1f} us, "
            f"hedge_waste={blame.get('hedge_waste', 0.0):.1f} us, "
            f"server_slow={blame.get('server_slow', 0.0):.1f} us"
        )
        if not failures:
            print(
                f"mitigation gate: mitigated {p99['mitigated'] / healthy:.2f}x "
                f"vs unmitigated {p99['unmitigated'] / healthy:.2f}x healthy "
                f"(threshold {args.p99_ratio}x)"
            )

    return _Gate(
        f"mitigation run: 3 mirrored tenants x {args.nservers} servers "
        f"(scale=1/{args.scale}, seed={args.seed}, gate {args.p99_ratio}x)...",
        (
            run("healthy", False, True),
            run("unmitigated", True, False),
            run("mitigated", True, True),
        ),
        check,
        show,
    )


def _latency_breaches(report: dict) -> list[dict]:
    return [
        b for b in report["breach_timeline"]
        if b["slo"] == "latency_p99" and b["edge"] == "start"
    ]


def _health_gate(args) -> _Gate:
    """``repro health``: per-run fleet health report (SLOs + fail-slow).

    The seeded three-tenant cluster with one fail-slow server (a mid-run
    ``LinkDegrade`` on mem1) — or, under ``--healthy``, the fault-free
    fair scenario — with the always-on SLO engine and anomaly detector.
    By default any fail-slow flag or SLO breach fails the gate; under
    ``--expect-breach`` the gate inverts and fails unless the detector
    flagged exactly the degraded server and at least one latency SLO
    breach was recorded.  ``--mitigate`` runs :func:`_mitigate_gate`.
    """
    from .experiments import cluster_failslow_config, cluster_fair_config

    if args.mitigate:
        return _mitigate_gate(args)
    if args.healthy:
        cfg = cluster_fair_config(args.scale, nservers=args.nservers)
    else:
        cfg = cluster_failslow_config(
            args.scale, nservers=args.nservers, latency_mult=args.latency_mult
        )
    cfg.seed = args.seed
    # The server(s) the configured fault plan actually degrades — the
    # --expect-breach gate checks the detector flagged exactly these.
    degraded = _plan_degraded_servers(cfg.faults)
    scenario = "cluster-fair" if args.healthy else "cluster-failslow"

    def check(results):
        result = results["run"]
        report = result.health
        payload = {
            "scenario": scenario,
            "scale": args.scale,
            "seed": args.seed,
            "nservers": args.nservers,
            "elapsed_usec": result.elapsed_usec,
            "health": report,
        }
        if not report:
            return payload, ["run produced no health report"]
        flagged = report["flagged_servers"]
        failures = []
        if args.expect_breach:
            if sorted(flagged) != sorted(degraded):
                failures.append(
                    f"expected fail-slow flag on exactly {degraded}, "
                    f"detector flagged {flagged}"
                )
            if not _latency_breaches(report):
                failures.append(
                    "expected at least one latency_p99 SLO breach, got none"
                )
        elif flagged or report["breached_tenants"]:
            failures.append(
                f"health gate failed — flagged servers {flagged}, "
                f"breached tenants {report['breached_tenants']}"
            )
        return payload, failures

    def show(results, payload, failures):
        report = payload["health"]
        if not report:
            return
        print(results["run"].summary())
        print()
        print("servers:")
        print(format_table(
            ["server", "status", "flagged", "samples", "ewma (us)",
             "p99 (us)", "peak score"],
            [
                [name, s["status"], "yes" if s["flagged"] else "no",
                 s["samples"], s["ewma_usec"] or 0.0, s["p99_usec"] or 0.0,
                 s["peak_score"]]
                for name, s in report["servers"].items()
            ],
        ))
        print()
        print("tenants:")
        print(format_table(
            ["tenant", "requests", "fails", "avail", "p50 (us)", "p99 (us)",
             "peak burn", "breaches", "slo met"],
            [
                [name, t["requests"], t["failed_attempts"],
                 t["availability"] if t["availability"] is not None else "-",
                 t["p50_usec"] or 0.0, t["p99_usec"] or 0.0,
                 t["peak_burn_rate"], t["breaches"],
                 "yes" if t["slo_met"] else "no"]
                for name, t in report["tenants"].items()
            ],
        ))
        timeline = report["breach_timeline"]
        if timeline:
            print()
            print(f"breach timeline ({len(timeline)} edges, "
                  f"{len(report['burn_timeline'])} burn samples):")
            for b in timeline[:args.top]:
                print(
                    f"  t={b['t_usec']:>12.1f}  {b['tenant']:<8s} "
                    f"{b['slo']:<12s} {b['edge']:<5s} "
                    f"observed={b['observed']:.1f} burn={b['burn_rate']:.2f}"
                )
            if len(timeline) > args.top:
                print(f"  ... {len(timeline) - args.top} more")
        if failures:
            return
        if args.expect_breach:
            print(
                f"expected breach confirmed: flagged "
                f"{report['flagged_servers']}, "
                f"{len(_latency_breaches(report))} latency breach(es), "
                f"victims: {', '.join(report['breached_tenants'])}"
            )
        else:
            print("health gate: all SLOs met, no fail-slow flags")

    return _Gate(
        f"health run: {scenario}, 3 tenants x {args.nservers} servers "
        f"(scale=1/{args.scale}, seed={args.seed})...",
        (_Run("run", cfg),),
        check,
        show,
    )


#: the scenario commands :func:`_drive` runs (``health --mitigate`` is
#: chosen inside :func:`_health_gate`).
_GATES: dict[str, Callable[[argparse.Namespace], _Gate]] = {
    "critpath": _critpath_gate,
    "faults": _faults_gate,
    "redundancy": _redundancy_gate,
    "cluster": _cluster_gate,
    "health": _health_gate,
}


def _run_sweep_cmd(args) -> int:
    """``repro sweep``: run figure grids through the parallel engine."""
    from .analysis.critpath import blame_split
    from .experiments import SWEEPS
    from .sweep import ResultCache, default_cache_dir, run_sweep
    from .units import SEC

    names = list(SWEEPS) if args.experiment == "all" else [args.experiment]
    store = None
    if not args.no_cache:
        store = ResultCache(args.cache or default_cache_dir())
    cache = store if store is not None else False
    payload: dict[str, dict] = {}
    status = 0
    for name in names:
        builder, desc = SWEEPS[name]
        points = builder(args.scale)
        report = run_sweep(
            points,
            workers=args.workers,
            cache=cache,
            force=args.force,
            trace=args.trace,
            campaign=args.campaign,
            progress=(
                None if args.quiet
                else lambda pname, how: print(f"  {pname}: {how}")
            ),
        )
        print(
            f"{name} — {desc}: {len(points)} points, "
            f"{report.simulated} simulated, {report.cached} cached, "
            f"{report.wall_sec:.2f} s wall (workers={report.workers})"
        )
        rows = [
            [p.name, r.elapsed_usec * args.scale / SEC,
             r.swapout_pages, r.swapin_pages]
            for p, r in zip(report.points, report.results)
        ]
        print(format_table(
            ["point", f"time (s, x{args.scale})", "out (pages)", "in (pages)"],
            rows,
        ))
        print()
        payload[name] = {
            "points": {p.name: r.elapsed_sec * args.scale
                       for p, r in zip(report.points, report.results)},
            "simulated": report.simulated,
            "cached": report.cached,
            "wall_sec": report.wall_sec,
            "workers": report.workers,
        }
        if args.trace:
            payload[name]["blame"] = {
                p.name: {
                    "blame_usec": r.blame_usec,
                    **blame_split(r.blame_usec),
                    "violations": len(r.invariant_violations),
                }
                for p, r in zip(report.points, report.results)
            }
        # Cluster points carry a fleet health report; aggregate the
        # verdicts so a grid's fail-slow flags and SLO breaches land
        # in one payload (cached results may predate the field).
        health = {
            p.name: {
                "flagged_servers": h["flagged_servers"],
                "breached_tenants": h["breached_tenants"],
                "breach_events": len(h["breach_timeline"]),
            }
            for p, r in zip(report.points, report.results)
            if (h := getattr(r, "health", {}))
        }
        if health:
            payload[name]["health"] = health
    if store is not None:
        print(f"cache: {store.summary()}")
    if args.campaign:
        print(f"appended run records to {args.campaign}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"scale": args.scale, "sweeps": payload}, fh, indent=2)
        print(f"wrote {args.json}")
    return status


def _run_bench(args) -> int:
    """``repro bench``: measure the simulator itself, write JSON."""
    from .bench import run_bench, write_bench_json

    profiler = None
    if args.profile or args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    payload = run_bench(
        nevents=args.events,
        rounds=args.rounds,
        sweep_scale=args.sweep_scale,
        workers=args.workers if args.workers else "auto",
        skip_sweep=args.skip_sweep,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"wrote profile to {args.profile_out} "
                  "(inspect with python -m pstats)")
        if args.profile:
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    loop = payload["event_loop"]
    print(
        f"event loop: timeout churn {loop['timeout_events_per_sec']:,.0f} ev/s, "
        f"relay resume {loop['relay_events_per_sec']:,.0f} ev/s"
    )
    obs = payload["obs_overhead"]
    print(
        f"disabled-trace overhead: {obs['overhead_frac']:+.2%} "
        f"({obs['guarded_events_per_sec']:,.0f} ev/s guarded vs "
        f"{obs['bare_events_per_sec']:,.0f} bare)"
    )
    fb = payload["fluid_bulk"]
    print(
        f"fluid bulk fast path: {fb['event_reduction']:,.0f}x fewer events "
        f"({fb['fluid_events']:,} vs {fb['discrete_events']:,} discrete), "
        f"{fb['wall_speedup']:,.1f}x wall speedup, results "
        f"{'identical' if fb['identical_results'] else 'DIVERGED'}"
    )
    if not fb["identical_results"]:
        print("ERROR: fluid fast path diverged from discrete stepping",
              file=sys.stderr)
        return 1
    rs = payload.get("rs_encode")
    if rs is not None:
        print(
            f"rs({rs['k']},{rs['m']}) GF(256) codec: encode "
            f"{rs['encode_mb_s']:,.0f} MB/s, reconstruct "
            f"{rs['reconstruct_mb_s']:,.0f} MB/s, roundtrip "
            f"{'ok' if rs['roundtrip_ok'] else 'CORRUPT'}"
        )
        if not rs["roundtrip_ok"]:
            print("ERROR: RS reconstruct did not round-trip",
                  file=sys.stderr)
            return 1
    else:
        print("rs encode: skipped (numpy unavailable)")
    if "sweep" in payload:
        sw = payload["sweep"]
        print(
            f"fig07 sweep ({sw['points']} points, scale=1/{sw['scale']}): "
            f"serial {sw['serial_sec']:.2f} s, parallel "
            f"{sw['parallel_sec']:.2f} s (x{sw['parallel_workers']}), "
            f"cached re-run {sw['cached_rerun_sec']:.3f} s "
            f"({sw['cached_points_resimulated']} re-simulated)"
        )
        if sw.get("parallel_note"):
            print(f"  note: {sw['parallel_note']}")
        if sw["cached_points_resimulated"] != 0:
            print("ERROR: cached re-run re-simulated points", file=sys.stderr)
            return 1
    if "blame" in payload:
        bl = payload["blame"]
        print(
            f"blame split ({bl['point']}): queueing "
            f"{bl['queueing_frac']:.1%}, wire {bl['wire_frac']:.1%} "
            f"({bl['invariant_violations']} invariant violations)"
        )
        if bl["invariant_violations"] != 0:
            print("ERROR: traced run recorded invariant violations",
                  file=sys.stderr)
            return 1
    if "cluster_fairness" in payload:
        cf = payload["cluster_fairness"]
        print(
            f"cluster fairness ({cf['tenants']} tenants x "
            f"{cf['nservers']} servers, scale=1/{cf['scale']}): "
            f"{cf['events_per_sec']:,.0f} ev/s, "
            f"spread {cf['spread']:.2f}, jain {cf['jain_index']:.3f}"
        )
    if "health_overhead" in payload:
        ho = payload["health_overhead"]
        print(
            f"always-on health overhead: {ho['overhead_frac']:+.2%} "
            f"({ho['health_wall_sec']:.2f} s with SLO engine vs "
            f"{ho['baseline_wall_sec']:.2f} s monitors-only)"
        )
    write_bench_json(args.json, payload)
    print(f"wrote {args.json}")
    floor = args.min_events_per_sec
    if floor and loop["timeout_events_per_sec"] < floor:
        print(
            f"ERROR: timeout churn {loop['timeout_events_per_sec']:,.0f} ev/s "
            f"below floor {floor:,.0f}",
            file=sys.stderr,
        )
        return 1
    rs_floor = args.min_rs_encode_mb_s
    if rs_floor and rs is not None and rs["encode_mb_s"] < rs_floor:
        print(
            f"ERROR: rs encode {rs['encode_mb_s']:,.0f} MB/s below "
            f"floor {rs_floor:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_campaign_cmd(args) -> int:
    """``repro campaign``: replicate a sweep grid across seeds into a
    JSONL campaign store, then print the cross-seed aggregates."""
    from .analysis.campaign import aggregate
    from .experiments import SWEEPS
    from .obs.campaign import run_campaign
    from .sweep import ResultCache, default_cache_dir

    builder, desc = SWEEPS[args.experiment]
    points = builder(args.scale)
    if args.filter:
        points = [p for p in points if args.filter in p.name]
    if args.limit:
        points = points[: args.limit]
    if not points:
        print("no points match the filter", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    store = None
    if not args.no_cache:
        store = ResultCache(args.cache or default_cache_dir())
    report = run_campaign(
        points,
        seeds,
        args.store,
        workers=args.workers,
        cache=store if store is not None else False,
        force=args.force,
        progress=(
            None if args.quiet
            else lambda pname, how: print(f"  {pname}: {how}")
        ),
    )
    print(
        f"{args.experiment} — {desc}: {len(points)} points x "
        f"{len(seeds)} seeds, {report.simulated} simulated, "
        f"{report.cached} cached, {report.wall_sec:.2f} s wall"
    )
    if store is not None:
        print(f"cache: {store.summary()}")
    summary = aggregate(
        report.store.load(), ci_level=args.ci_level, method=args.method
    )
    rows = []
    for point in summary.points:
        stats = summary.get(point, "elapsed_usec")
        if stats is None:
            continue
        rows.append([
            point, stats.n, stats.mean,
            f"±{stats.halfwidth:.4g}",
        ])
    print(format_table(
        ["point", "seeds", "mean elapsed (us)",
         f"{int(summary.ci_level * 100)}% CI"],
        rows,
    ))
    print(f"appended {len(report.records)} records to {report.store.path}")
    return 0


def _load_campaign(path: str):
    from .obs.campaign import CampaignStore

    records = CampaignStore(path).load()
    if not records:
        raise SystemExit(f"campaign store {path} is empty or missing")
    return records


def _run_compare_cmd(args) -> int:
    """``repro compare``: regression-gate one campaign against another
    (or against the bench file's campaign floors); nonzero on
    regression."""
    from .analysis.campaign import aggregate
    from .analysis.compare import (
        check_floors,
        compare_summaries,
        format_compare,
    )

    status = 0
    payload: dict = {}
    test_records = _load_campaign(args.test if args.test else args.base)
    if args.test:
        base_records = _load_campaign(args.base)
        base = aggregate(
            base_records, ci_level=args.ci_level, method=args.method
        )
        test = aggregate(
            test_records, ci_level=args.ci_level, method=args.method
        )
        report = compare_summaries(base, test, threshold=args.threshold)
        print(format_compare(report, all_rows=args.all))
        if report.missing_points:
            print(
                f"note: {len(report.missing_points)} points present on "
                f"only one side: {', '.join(report.missing_points)}"
            )
        print(
            f"{len(report.regressions)} regressions, "
            f"{len(report.improvements)} improvements, "
            f"{len(report.shifts)} shifts "
            f"(threshold {args.threshold:.0%}, "
            f"{int(args.ci_level * 100)}% CI)"
        )
        payload["compare"] = report.to_dict()
        if not report.ok:
            status = 1
    if args.bench:
        with open(args.bench) as fh:
            floors = json.load(fh).get("campaign_floors", [])
        violations = check_floors(test_records, floors)
        if violations:
            for v in violations:
                print(
                    f"FLOOR VIOLATION: {v.point} seed {v.seed} "
                    f"{v.metric}={v.value:g} breaks {v.bound} "
                    f"bound {v.limit:g}",
                    file=sys.stderr,
                )
            status = 1
        else:
            print(
                f"{len(floors)} bench floors checked against "
                f"{len(test_records)} records: all clear"
            )
        payload["floors"] = {
            "checked": len(floors),
            "violations": [v.to_dict() for v in violations],
        }
    if args.json:
        write_json_report(args.json, payload)
        print(f"wrote {args.json}")
    return status


def _report_campaign(args) -> int:
    """``repro report --campaign``: render the HTML dashboard."""
    from .analysis.campaign import aggregate
    from .analysis.compare import compare_summaries
    from .analysis.htmlreport import render_campaign_html

    records = _load_campaign(args.campaign)
    summary = aggregate(records)
    compare_report = None
    if args.against:
        base = aggregate(_load_campaign(args.against))
        compare_report = compare_summaries(base, summary)
    html = render_campaign_html(
        summary,
        records,
        compare_report=compare_report,
        title=f"Campaign report — {args.campaign}",
    )
    output = args.output
    if output == "REPORT.md":  # the markdown-mode default doesn't fit
        output = "report.html"
    if args.replay_check:
        again = render_campaign_html(
            summary,
            records,
            compare_report=compare_report,
            title=f"Campaign report — {args.campaign}",
        )
        if again != html:
            print(
                "ERROR: replay check failed — two renders of the same "
                "campaign store differ",
                file=sys.stderr,
            )
            return 1
        print("replay check passed: render is byte-identical")
    with open(output, "w") as fh:
        fh.write(html)
    print(f"wrote {output}")
    return 0


def _report(scale: int, output: str) -> int:
    """Run every experiment, capturing the printed tables into markdown."""
    import contextlib
    import io

    sections: list[str] = [
        "# HPBD reproduction report",
        "",
        f"Generated by `repro report --scale {scale}` "
        f"(sizes divided by {scale}; run times shown scaled back).",
        "",
    ]
    for name, (fn, desc) in EXPERIMENTS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            fn(scale)
        sections.append(f"## {name} — {desc}")
        sections.append("")
        sections.append("```")
        sections.append(buf.getvalue().rstrip())
        sections.append("```")
        sections.append("")
        print(f"{name} done")
    with open(output, "w") as fh:
        fh.write("\n".join(sections))
    print(f"wrote {output}")
    return 0


def _min_int(low: int) -> Callable[[str], int]:
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


#: flags several commands share: option strings and argparse keywords;
#: each command passes its own default to :func:`_add_flags`.
_FLAGS: dict[str, tuple[tuple[str, ...], dict]] = {
    "scale": (("--scale",), {
        "type": _min_int(1),
        "help": "size divisor; 1 = full paper sizes (default: %(default)s)",
    }),
    "seed": (("--seed",), {"type": int}),
    "nservers": (("--nservers",), {
        "type": int,
        "help": "memory servers in the fleet (default: %(default)s)",
    }),
    "replay_check": (("--replay-check",), {
        "action": "store_true",
        "help": "run again with the same seed; fail unless the JSON "
        "payload (all but status) is identical",
    }),
    "output": (("-o", "--output"), {
        "metavar": "PATH", "help": "write the Chrome trace-event JSON here",
    }),
    "json": (("--json",), {
        "metavar": "PATH", "help": "write the JSON report here",
    }),
}


def _add_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the shared flags named in ``defaults``, with those
    defaults."""
    for dest, default in defaults.items():
        names, kwargs = _FLAGS[dest]
        parser.add_argument(*names, default=default, **kwargs)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPBD (Cluster 2005) reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="print the related-work taxonomy")
    rep = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    _add_flags(rep, scale=8)
    rep.add_argument("-o", "--output", default="REPORT.md")
    rep.add_argument(
        "--campaign", metavar="JSONL", default=None,
        help="render an HTML dashboard from this campaign store instead "
        "of running the experiments (output defaults to report.html)",
    )
    rep.add_argument(
        "--against", metavar="JSONL", default=None,
        help="with --campaign: include a diff table vs this baseline store",
    )
    rep.add_argument(
        "--replay-check", action="store_true",
        help="with --campaign: render twice and fail unless byte-identical",
    )
    tr = sub.add_parser(
        "trace",
        help="run one traced scenario; print the measured §6.2 breakdown "
        "and write a Chrome/Perfetto trace",
    )
    tr.add_argument("--device", choices=_TRACE_DEVICES, default="hpbd")
    tr.add_argument("--workload", choices=_TRACE_WORKLOADS, default="quicksort")
    _add_flags(tr, scale=32, output="trace.json")
    tr.add_argument("--csv", metavar="PATH", help="also dump flat span CSV")
    cp = sub.add_parser(
        "critpath",
        help="run one traced scenario; print per-request critical-path "
        "blame, audit invariants (nonzero exit on violations/orphans)",
    )
    cp.add_argument("--device", choices=_TRACE_DEVICES, default="hpbd")
    cp.add_argument("--workload", choices=_TRACE_WORKLOADS, default="quicksort")
    cp.add_argument(
        "--top", type=int, default=10,
        help="slowest requests to show (default: 10)",
    )
    _add_flags(cp, scale=32, output=None, json=None)
    fa = sub.add_parser(
        "faults",
        help="crash a memory server mid-run; audit the recovery "
        "machinery and invariant monitors (nonzero exit on violations)",
    )
    fa.add_argument(
        "--mode", choices=_FAULT_MODES, default="mirror",
        help="recovery mode absorbing the crash (default: mirror)",
    )
    fa.add_argument(
        "--crash-at", type=float, default=None,
        help="crash time in simulated us (default: mid-run for --scale)",
    )
    fa.add_argument(
        "--timeout", type=float, default=2_000.0,
        help="per-request timeout in us (default: 2000)",
    )
    fa.add_argument(
        "--expect-recovery", action="store_true",
        help="fail unless the run actually timed out and failed over",
    )
    _add_flags(fa, scale=32, seed=1, replay_check=False, output=None, json=None)
    rd = sub.add_parser(
        "redundancy",
        help="crash erasure-coded members mid-run; audit degraded "
        "reads and background repair (nonzero exit on violations or "
        "failed recovery gates)",
    )
    rd.add_argument(
        "--policy", default="rs(4,2)",
        help="redundancy policy: nway(r) or rs(k,m) (default: rs(4,2))",
    )
    rd.add_argument(
        "--crashes", type=_min_int(0), default=1,
        help="staggered mid-run server crashes, at most the policy's "
        "tolerance m (default: 1)",
    )
    rd.add_argument(
        "--throttle-mib-s", type=float, default=400.0,
        help="repair/migration bandwidth cap in MiB/s (default: 400)",
    )
    rd.add_argument(
        "--expect-recovery", action="store_true",
        help="fail unless every lost member rebuilt, degraded service "
        "was observed, and repair traffic/overhead are within bounds",
    )
    _add_flags(rd, nservers=8, seed=42, replay_check=False, json=None)
    cl = sub.add_parser(
        "cluster",
        help="run the multi-tenant fairness scenario (+ QoS-off "
        "baseline); print per-tenant report (nonzero exit on "
        "violations or fairness-gate failures)",
    )
    cl.add_argument(
        "--placement", choices=_PLACEMENT_POLICIES, default="blocking",
        help="placement policy for the fair run (default: blocking)",
    )
    cl.add_argument(
        "--max-spread", type=float, default=1.10,
        help="fail if the fair run's completion-time spread exceeds "
        "this (default: 1.10)",
    )
    cl.add_argument(
        "--min-baseline-spread", type=float, default=2.0,
        help="fail if the QoS-off baseline's spread is below this "
        "(default: 2.0)",
    )
    cl.add_argument(
        "--skip-baseline", action="store_true",
        help="fair run only; skip the unfair baseline",
    )
    _add_flags(cl, scale=64, nservers=2, seed=42, replay_check=False, json=None)
    he = sub.add_parser(
        "health",
        help="run the fail-slow cluster scenario; print the fleet "
        "health report (SLO attainment, breach timeline, anomaly "
        "verdicts; nonzero exit on failed health gates)",
    )
    he.add_argument(
        "--latency-mult", type=float, default=20.0,
        help="LinkDegrade latency multiplier on the limping server "
        "(default: 20)",
    )
    he.add_argument(
        "--healthy", action="store_true",
        help="run the fault-free fair scenario instead (gate passes "
        "only when nothing is flagged or breached)",
    )
    he.add_argument(
        "--expect-breach", action="store_true",
        help="invert the gate: fail unless the detector flagged "
        "exactly the degraded server and a latency SLO breach occurred",
    )
    he.add_argument(
        "--mitigate", action="store_true",
        help="limping-server acceptance: run the mirrored fleet "
        "healthy, fail-slow unmitigated, and fail-slow with hedged "
        "reads + EWMA selection + quarantine; gate on worst tenant "
        "p99 vs the healthy baseline",
    )
    he.add_argument(
        "--p99-ratio", type=float, default=2.0,
        help="--mitigate gate: mitigated worst p99 must stay under "
        "this multiple of healthy (and unmitigated must exceed it; "
        "default: 2.0)",
    )
    he.add_argument(
        "--service-mult", type=float, default=16.0,
        help="--mitigate: fail-slow memcpy service-time multiplier "
        "(default: 16)",
    )
    he.add_argument(
        "--extra-rtt-usec", type=float, default=400.0,
        help="--mitigate: fail-slow per-op stall in usec (default: 400)",
    )
    he.add_argument(
        "--top", type=int, default=10,
        help="breach-timeline edges to print (default: 10)",
    )
    _add_flags(
        he, scale=64, nservers=3, seed=42, replay_check=False, output=None,
        json=None,
    )
    sw = sub.add_parser(
        "sweep",
        help="run a figure's scenario grid through the parallel sweep "
        "engine with result caching",
    )
    from .experiments import SWEEPS as _SWEEPS

    sw.add_argument("experiment", choices=[*_SWEEPS, "all"])
    sw.add_argument(
        "--workers", default=None,
        help="process count, 'auto' = one per CPU (default: "
        "$REPRO_SWEEP_WORKERS or serial)",
    )
    sw.add_argument(
        "--cache", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    sw.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sw.add_argument(
        "--force", action="store_true",
        help="re-simulate every point (still refreshes the cache)",
    )
    sw.add_argument("--quiet", action="store_true", help="no per-point lines")
    sw.add_argument(
        "--trace", action="store_true",
        help="trace every point; results carry per-request blame "
        "aggregates (queueing-vs-wire split in the JSON payload)",
    )
    sw.add_argument(
        "--campaign", metavar="JSONL", default=None,
        help="append a RunRecord per point to this campaign store",
    )
    _add_flags(sw, scale=8, json=None)
    ca = sub.add_parser(
        "campaign",
        help="replicate a sweep grid across seeds into a JSONL campaign "
        "store and print cross-seed aggregates",
    )
    ca.add_argument("experiment", choices=list(_SWEEPS))
    ca.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated campaign seeds (default: 1,2,3)",
    )
    _add_flags(ca, scale=8)
    ca.add_argument(
        "--store", metavar="JSONL", default="campaign.jsonl",
        help="campaign store to append to (default: campaign.jsonl)",
    )
    ca.add_argument(
        "--filter", default=None,
        help="only run points whose name contains this substring",
    )
    ca.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of points after filtering",
    )
    ca.add_argument(
        "--workers", default=None,
        help="process count, 'auto' = one per CPU (default: "
        "$REPRO_SWEEP_WORKERS or serial)",
    )
    ca.add_argument(
        "--cache", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    ca.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    ca.add_argument(
        "--force", action="store_true",
        help="re-simulate every replica (still refreshes the cache)",
    )
    ca.add_argument("--quiet", action="store_true", help="no per-point lines")
    ca.add_argument(
        "--ci-level", type=float, default=0.95,
        help="confidence level for the printed aggregates (default: 0.95)",
    )
    ca.add_argument(
        "--method", choices=["t", "bootstrap"], default="t",
        help="confidence-interval method (default: t)",
    )
    co = sub.add_parser(
        "compare",
        help="regression-gate one campaign store against another and/or "
        "against the bench file's campaign floors (exit 1 on regression)",
    )
    co.add_argument("base", help="baseline campaign JSONL (or sole store "
                    "when only checking --bench floors)")
    co.add_argument(
        "test", nargs="?", default=None,
        help="candidate campaign JSONL to compare against base",
    )
    co.add_argument(
        "--bench", metavar="JSON", default=None,
        help="also check records against this bench file's campaign_floors",
    )
    co.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative-change significance threshold (default: 0.05)",
    )
    co.add_argument(
        "--ci-level", type=float, default=0.95,
        help="confidence level for the interval test (default: 0.95)",
    )
    co.add_argument(
        "--method", choices=["t", "bootstrap"], default="t",
        help="confidence-interval method (default: t)",
    )
    co.add_argument(
        "--all", action="store_true",
        help="print every aligned metric, not just significant ones",
    )
    _add_flags(co, json=None)
    be = sub.add_parser(
        "bench",
        help="measure host-side simulator performance and write "
        "BENCH_simulator.json",
    )
    _add_flags(be, json="BENCH_simulator.json")
    be.add_argument("--events", type=int, default=100_000)
    be.add_argument("--rounds", type=int, default=3)
    be.add_argument(
        "--sweep-scale", type=int, default=64,
        help="scale divisor for the fig07 sweep benchmark (default: 64)",
    )
    be.add_argument(
        "--workers", default=None,
        help="process count for the parallel sweep leg (default: auto)",
    )
    be.add_argument(
        "--skip-sweep", action="store_true",
        help="event-loop microbenchmarks only",
    )
    be.add_argument(
        "--min-events-per-sec", type=float, default=0.0,
        help="fail (exit 1) if timeout churn drops below this floor",
    )
    be.add_argument(
        "--min-rs-encode-mb-s", type=float, default=0.0,
        help="fail (exit 1) if GF(256) RS encode throughput drops "
        "below this floor (skipped when numpy is absent)",
    )
    be.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 25 functions by "
        "cumulative time",
    )
    be.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="dump raw cProfile stats to FILE (pstats format; implies "
        "profiling even without --profile)",
    )
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    _add_flags(run, scale=8, json=None)
    run.add_argument(
        "--csv", metavar="DIR",
        help="also write plot-ready CSV files into DIR (fig01/03/05/06/07/08)",
    )
    args = parser.parse_args(argv)

    if args.command in _GATES:
        return _drive(_GATES[args.command], args)
    if args.command == "list":
        print(format_table(
            ["experiment", "description"],
            [[name, desc] for name, (_fn, desc) in EXPERIMENTS.items()],
        ))
        return 0
    if args.command == "table1":
        print(render_table1())
        return 0
    if args.command == "report":
        if args.campaign:
            return _report_campaign(args)
        return _report(args.scale, args.output)
    commands = {
        "trace": _run_trace,
        "sweep": _run_sweep_cmd,
        "campaign": _run_campaign_cmd,
        "compare": _run_compare_cmd,
        "bench": _run_bench,
    }
    if args.command in commands:
        return commands[args.command](args)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    payload: dict[str, dict] = {}
    for name in names:
        fn, _desc = EXPERIMENTS[name]
        payload[name] = fn(args.scale)
        if args.csv:
            _write_csv(name, args.scale, args.csv)
        print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"scale": args.scale, "results": payload}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
