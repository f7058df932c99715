"""One measurement in a fresh interpreter; prints one JSON line.

Run by ``run.py``, one process per measurement, from the repository
root::

    python3 perfbench/worker.py setup  --workload W --seed N --qs-seed Q
    python3 perfbench/worker.py timed  --workload W --seed N --qs-seed Q --seconds S
    python3 perfbench/worker.py trace  --workload W --seed N --qs-seed Q
    python3 perfbench/worker.py warmup

``setup`` times import, input generation and scenario construction
from a fresh interpreter.  ``timed`` simulates the workload untraced
for ``--seconds``, one freshly built set of scenarios per repeat.
``trace`` makes the per-layer runs: untraced under the layer sampler,
traced for critical-path blame, and under cProfile for call counts.
"""

import argparse
import contextlib
import gc
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

# Modules that import repro (scenarios, outputs) are imported inside the
# modes, so the set-up probe times the interpreter's first import of it.
import refloop  # noqa: E402

#: Fewest timed repeats, however long each takes.
MIN_REPEATS = 3
#: One reference slice per this much wall time of a timed repeat.
SLICE_EVERY_S = 0.5


def _setup(args) -> dict:
    """Fresh interpreter to ready-for-first-event, split in three.  Half
    a reference pass runs on each side of it."""
    ref_before = refloop.time_ref(refloop.HALF_PASS)
    t0 = time.perf_counter()
    import scenarios

    t1 = time.perf_counter()
    w = scenarios.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed, args.qs_seed)
    t2 = time.perf_counter()
    built = [sc.build() for sc in w.scenarios(inputs)]
    t3 = time.perf_counter()
    del built
    return {
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "build_s": t3 - t2,
        "total_s": t3 - t0,
        "ref_s": ref_before + refloop.time_ref(refloop.HALF_PASS),
    }


def _simulate(scenario_list, trace: bool = False, around=None):
    """Build every scenario, then run them one after another inside the
    context manager ``around``.  Returns the runs and the host seconds
    the runs took (building excluded)."""
    built = [sc.build(trace=trace) for sc in scenario_list]
    gc.collect()
    with around or contextlib.nullcontext():
        t0 = time.perf_counter()
        results = [b.run() for b in built]
        elapsed = time.perf_counter() - t0
    return list(zip(scenario_list, built, results)), elapsed


def _exact(runs) -> dict:
    """Everything that must repeat exactly for the same inputs."""
    import outputs

    return {
        "end_to_end": outputs.end_to_end(runs),
        "counts": outputs.layer_counts(runs),
        "digest": outputs.outcome_digest(runs),
    }


def _account(args, runs) -> dict:
    import outputs

    bad = outputs.checks(args.workload, runs)
    per = {sc.name: outputs.requests(result.registry) for sc, _b, result in runs}
    flagged = {name for name, _msg in bad}
    failed = sum(per.values()) if None in flagged else sum(
        n for name, n in per.items() if name in flagged
    )
    return {
        "attempted": sum(per.values()),
        "failed": max(failed, 1) if bad else 0,
        "problems": [msg if name is None else f"{name}: {msg}" for name, msg in bad],
    }


class _RefTicker:
    """Reference-loop slices every ``SLICE_EVERY_S`` of wall time while
    active, run from SIGALRM so they sample the very stretch of host
    time the simulation is using.  ``slices`` holds their times."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.slices.append(refloop.time_slice())

    def __enter__(self) -> "_RefTicker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _timed(args) -> dict:
    """Repeats until ``--seconds`` is used up.  Each repeat's raw time
    excludes the reference slices that ran inside it, and is normalised
    by their mean."""
    import resource

    import outputs
    import scenarios

    w = scenarios.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed, args.qs_seed)
    refloop.time_slice()  # warm the loop's own code and allocations
    start = time.perf_counter()
    repeats, attempted, failed, problems = [], 0, 0, []
    first = details = None
    while True:
        scenario_list = w.scenarios(inputs)
        built = [sc.build() for sc in scenario_list]
        gc.collect()
        results = []
        with _RefTicker() as ticker:
            t0 = time.perf_counter()
            for sc, b in zip(scenario_list, built):
                try:
                    results.append(b.run())
                except Exception as exc:  # the scenario's requests all failed
                    lost = max(1, outputs.requests(b.stats))
                    problems.append(f"{sc.name} raised {exc!r}")
                    return {
                        "attempted": attempted + lost,
                        "failed": failed + lost,
                        "problems": problems,
                    }
            raw = time.perf_counter() - t0 - sum(ticker.slices)
        ref = refloop.slices_to_ref(ticker.slices or [refloop.time_slice()])
        repeats.append({"raw_s": raw, "ref_s": ref, "norm_s": refloop.normalise(raw, ref)})
        runs = list(zip(scenario_list, built, results))
        acct = _account(args, runs)
        exact = _exact(runs)
        if first is None:
            first = exact
            lat = outputs.latencies([r for r in runs if r[0].is_hpbd])
            details = {
                "paper_errors": outputs.paper_errors(runs),
                "io_samples": int(lat.size),
                "io_beyond_p99": int((lat > exact["end_to_end"]["io_p99_us"]).sum()),
            }
        elif exact != first:
            acct["problems"].append("simulated outputs differ between repeats")
            acct["failed"] = acct["attempted"]
        attempted += acct["attempted"]
        failed += acct["failed"]
        problems += acct["problems"]
        del runs, built, results
        elapsed = time.perf_counter() - start
        if problems or (len(repeats) >= MIN_REPEATS and elapsed + raw > args.seconds):
            break
    return {
        "repeats": repeats,
        "exact": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        **details,
    }


def _trace(args) -> dict:
    import cProfile

    import hostprof
    import scenarios

    w = scenarios.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed, args.qs_seed)
    layers = hostprof.LayerMap(os.path.join(SRC, "repro"))
    problems = []

    sampler = hostprof.LayerSampler(layers)
    runs, untraced_s = _simulate(w.scenarios(inputs), around=sampler)
    acct = _account(args, runs)
    plain = _exact(runs)
    del runs

    traced, traced_s = _simulate(w.scenarios(inputs), trace=True)
    blame: dict[str, float] = {}
    for _sc, _b, result in traced:
        for label, usec in result.blame_usec.items():
            blame[label] = blame.get(label, 0.0) + usec
    with_trace = _exact(traced)
    # Tracing turns off the fluid fast path, so it processes more events.
    with_trace["counts"].pop("sim.events")
    untraced_counts = dict(plain["counts"])
    untraced_counts.pop("sim.events")
    if (with_trace["digest"], with_trace["end_to_end"], with_trace["counts"]) != (
        plain["digest"], plain["end_to_end"], untraced_counts
    ):
        problems.append("traced run simulated differently from the untraced run")
    del traced

    profile = cProfile.Profile()
    profiled, _ = _simulate(w.scenarios(inputs), around=profile)
    if _exact(profiled) != plain:
        problems.append("profiled run simulated differently from the untraced run")
    calls = hostprof.layer_calls(profile, layers)
    del profiled, profile

    return {
        "exact": plain,
        "blame_us": blame,
        "host_fracs": sampler.fractions(),
        "host_samples": sampler.samples,
        "host_attributed_s": sampler.attributed_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calls": calls,
        "attempted": acct["attempted"] * 3,
        "failed": acct["attempted"] * 3 if problems else acct["failed"] * 3,
        "problems": acct["problems"] + problems,
    }


def _warmup(args) -> dict:
    """Compile every module's bytecode and import the simulator once, so
    no set-up sample pays for compilation or a cold file cache."""
    import compileall

    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    import outputs  # noqa: F401  (imports scenarios and repro)

    return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "timed", "trace", "warmup"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--qs-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    mode = {"setup": _setup, "timed": _timed, "trace": _trace, "warmup": _warmup}
    print(json.dumps(mode[args.mode](args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
