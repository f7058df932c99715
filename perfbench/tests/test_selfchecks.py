"""Self-checks of the benchmark's own instruments.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They use the recovery workload's scenarios (a few seconds of host time
in all), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostprof  # noqa: E402
import outputs  # noqa: E402
import scenarios  # noqa: E402
from repro.analysis.critpath import BLAME_CLASSES, request_paths  # noqa: E402
from repro.net import link  # noqa: E402

QS_SEED = 20050926
LAYERS = hostprof.LayerMap(os.path.join(ROOT, "src", "repro"))


def _recovery(*names: str) -> list:
    """The named scenarios of the recovery workload."""
    w = scenarios.WORKLOADS["recovery"]
    return [sc for sc in w.scenarios(w.inputs(1, QS_SEED)) if sc.name in names]


def _crash_points() -> list:
    return _recovery("nway2-crash", "rs42-crash2")


def _hpbd_scenarios() -> list:
    """Every HPBD scenario of the workload: enough host time for a few
    hundred samples."""
    return _recovery("nway2-crash", "rs42-crash2", "rs21-throttle", "failslow-mitigated")


def _run(scenario_list, trace: bool = False) -> list:
    runs = []
    for sc in scenario_list:
        built = sc.build(trace=trace)
        runs.append((sc, built, built.run()))
    return runs


def _sampled(scenario_list):
    built = [sc.build() for sc in scenario_list]
    t0 = time.perf_counter()
    with hostprof.LayerSampler(LAYERS) as sampler:
        for b in built:
            b.run()
    return sampler, time.perf_counter() - t0


def _slowed_transfer(spin_s: float):
    """``Fabric.transfer`` wrapped so each call first spins ``spin_s``.

    The wrapper is compiled under ``net/link.py``'s file name, so the
    sampler sees the spin as net-layer code, as it would a real
    slowdown in that function."""
    original = link.Fabric.transfer
    src = (
        "def transfer(*args, **kwargs):\n"
        "    state['calls'] += 1\n"
        "    end = perf_counter() + spin_s\n"
        "    while perf_counter() < end:\n"
        "        pass\n"
        "    return original(*args, **kwargs)\n"
    )
    ns = {
        "original": original,
        "perf_counter": time.perf_counter,
        "spin_s": spin_s,
        "state": {"calls": 0},
    }
    exec(compile(src, original.__code__.co_filename, "exec"), ns)
    return ns["transfer"], ns["state"]


def test_host_shares_sum_to_the_run_total():
    sampler, wall = _sampled(_hpbd_scenarios())
    assert sampler.samples > 50
    assert sampler.attributed_s == pytest.approx(wall, rel=0.05)
    assert sum(sampler.fractions().values()) == pytest.approx(1.0, rel=0.05)


def test_layer_slowdown_is_charged_to_that_layer(monkeypatch):
    fast, fast_state = _slowed_transfer(0.0)
    monkeypatch.setattr(link.Fabric, "transfer", fast)
    base, base_wall = _sampled(_hpbd_scenarios())
    calls = fast_state["calls"]
    assert calls > 100
    # Inject about 40% of the run's host time into the net layer.
    spin = 0.4 * base_wall / calls
    slow, slow_state = _slowed_transfer(spin)
    monkeypatch.setattr(link.Fabric, "transfer", slow)
    slowed, _ = _sampled(_hpbd_scenarios())
    assert slow_state["calls"] == calls
    injected = spin * calls
    # The host's speed drifts between the two runs; the layers that were
    # not slowed give the drift factor.
    others = [layer for layer in hostprof.LAYERS if layer != "net"] + [hostprof.OTHER]
    base_others = sum(base.seconds[k] for k in others)
    drift = sum(slowed.seconds[k] for k in others) / base_others
    assert slowed.seconds["net"] - drift * base.seconds["net"] > 0.8 * injected
    assert slowed.fractions()["net"] > base.fractions()["net"] + 0.15
    # No other layer picks up the injected time: their shares of the
    # un-slowed time stay put, within the sampling noise of a few
    # hundred ticks (a leak of the injected time, which is as large as
    # two thirds of theirs together, would move a share far more).
    slowed_others = sum(slowed.seconds[k] for k in others)
    for k in others:
        assert slowed.seconds[k] / slowed_others == pytest.approx(
            base.seconds[k] / base_others, abs=0.1
        ), k


def test_blame_partitions_each_request_latency():
    for run in _run(_crash_points(), trace=True):
        result = run[2]
        paths = request_paths(result.trace)
        assert paths
        for path in paths:
            assert set(path.blame) == set(BLAME_CLASSES)
            assert sum(path.blame.values()) == pytest.approx(path.e2e, rel=1e-9, abs=1e-6)
        assert len(paths) == outputs.latencies([run]).size


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    runs = _run(_recovery("local", "nway2-crash"))
    counts = outputs.layer_counts(runs)
    expected = (
        {f"host.{layer}.frac" for layer in hostprof.LAYERS + (hostprof.OTHER,)}
        | {f"host.{layer}.calls" for layer in hostprof.LAYERS}
        | {"host.trace_overhead_frac"}
        | {f"blame.{label}_us" for label in BLAME_CLASSES}
        | set(counts)
        | {"setup.import_s", "setup.inputs_s", "setup.build_s"}
    )
    assert {m["name"] for m in spec["per_layer"]} == expected
    e2e = {"wall_s", "setup_s", "peak_rss_mb"} | set(outputs.end_to_end(runs))
    assert {m["name"] for m in spec["end_to_end"]} == e2e


def test_design_record_matches_the_workloads():
    with open(os.path.join(BENCH, "design.json")) as f:
        design = json.load(f)
    for name, w in scenarios.WORKLOADS.items():
        record = design["workloads"][name]
        built = w.scenarios(w.inputs(1, QS_SEED))
        assert record["scenarios"] == [sc.name for sc in built]
        assert record["scale"] == w.scale
