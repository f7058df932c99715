"""Repository benchmark: paper figures, a fair cluster and crash recovery.

Run from the repository root::

    python3 perfbench/run.py --workload fig07-quicksort --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: host wall and set-up time
(normalised by a reference loop, raw seconds beside them), peak RSS,
and the simulated paper error, completion time, request latency and
tenant spread.  ``--trace 1`` prints the per-layer split instead: host
time and calls per layer, critical-path blame, and the layers' counts.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed output check makes
the exit code non-zero.

Every measurement runs in a fresh interpreter (``worker.py``), one
after another, with BLAS single-threaded.  Metric names and units come
from ``BENCHMARK.json``; workload definitions from ``scenarios.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from refloop import normalise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Quick sort pivot seed every run uses (the workload class's default;
#: the repository's recorded figures come from it).
QS_SEED = 20050926
#: Fresh-interpreter set-up samples per run.
SETUP_SAMPLES = 9
#: A worker that outlives this many seconds is killed (the whole run
#: must finish within 180 s).
SETUP_TIMEOUT_S = 30
TRACE_TIMEOUT_S = 150
TIMED_SLACK_S = 60


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run one worker to completion and parse its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_samples(common: list[str], n: int) -> dict:
    """Median set-up split over ``n`` fresh interpreters, each sample
    normalised by the reference time its own interpreter measured."""
    samples = [_worker(["setup", *common], SETUP_TIMEOUT_S) for _ in range(n)]
    out = {"ref_s": statistics.median([s["ref_s"] for s in samples]), "n": n}
    for key in ("total_s", "import_s", "inputs_s", "build_s"):
        out[key] = {
            "raw": statistics.median([s[key] for s in samples]),
            "norm": statistics.median([normalise(s[key], s["ref_s"]) for s in samples]),
        }
    return out


def _end_to_end(setup: dict, timed: dict) -> tuple[dict, dict]:
    repeats = timed["repeats"]
    raw = statistics.median([r["raw_s"] for r in repeats])
    ref = statistics.median([r["ref_s"] for r in repeats])
    values = {
        "wall_s": statistics.median([r["norm_s"] for r in repeats]),
        "setup_s": setup["total_s"]["norm"],
        "peak_rss_mb": timed["peak_rss_mb"],
        **timed["exact"]["end_to_end"],
    }
    notes = {
        "wall_s": f"raw {raw:.4f} s, reference loop {ref:.4f} s; median of "
        f"{len(repeats)} repeats (raw/reference "
        + ", ".join(f"{r['raw_s']:.3f}/{r['ref_s']:.4f}" for r in repeats) + ")",
        "setup_s": f"raw {setup['total_s']['raw']:.4f} s, reference loop "
        f"{setup['ref_s']:.4f} s; median of {setup['n']} fresh interpreters",
        "paper_err_pct": "bars " + ", ".join(
            f"{k} {v:+.1f}%" for k, v in timed["paper_errors"].items()
        ),
        "io_p99_us": f"{timed['io_samples']} HPBD requests, "
        f"{timed['io_beyond_p99']} beyond p99",
    }
    return values, notes


def _per_layer(setup: dict, traced: dict) -> tuple[dict, dict]:
    values = {}
    for layer, frac in traced["host_fracs"].items():
        values[f"host.{layer}.frac"] = frac
    for layer, calls in traced["calls"].items():
        values[f"host.{layer}.calls"] = calls
    values["host.trace_overhead_frac"] = traced["traced_s"] / traced["untraced_s"] - 1.0
    values.update(traced["exact"]["counts"])
    for label, usec in traced["blame_us"].items():
        values[f"blame.{label}_us"] = usec
    for key in ("import_s", "inputs_s", "build_s"):
        values[f"setup.{key}"] = setup[key]["norm"]
    notes = {
        "host.other.frac": f"{traced['host_samples']} samples charged "
        f"{traced['host_attributed_s']:.3f} s of the untraced run's "
        f"{traced['untraced_s']:.3f} s (traced run {traced['traced_s']:.3f} s)",
    }
    return values, notes


def _report(names_units: list[dict], values: dict, notes: dict) -> dict:
    """Print each metric with its unit; return the JSON ``metrics``."""
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise WorkerError(f"metrics not computed: {missing}")
    metrics = {}
    for m in names_units:
        name, unit, value = m["name"], m["unit"], values[m["name"]]
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>16.6g} {unit:<9} {note}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--qs-seed", type=int, default=QS_SEED,
        help=f"quick sort pivot seed (default {QS_SEED})",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    common = [
        "--workload", args.workload, "--seed", str(args.seed), "--qs-seed", str(args.qs_seed),
    ]
    print(
        f"workload {args.workload}  seed {args.seed}  quick sort seed {args.qs_seed}  "
        f"trace {args.trace}"
    )
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        _worker(["warmup"], SETUP_TIMEOUT_S)
        setup = _setup_samples(common, SETUP_SAMPLES)
        if args.trace:
            out = _worker(["trace", *common], TRACE_TIMEOUT_S)
            names = spec["per_layer"]
        else:
            out = _worker(
                ["timed", *common, "--seconds", str(args.seconds)],
                args.seconds + TIMED_SLACK_S,
            )
            names = spec["end_to_end"]
        result["attempted"] = out["attempted"]
        result["failed"] = out["failed"]
        for problem in out["problems"]:
            print(f"CHECK FAILED: {problem}")
        if "exact" in out:
            values, notes = (_per_layer if args.trace else _end_to_end)(setup, out)
            result["metrics"] = _report(names, values, notes)
            result["correct"] = not out["problems"]
    except WorkerError as exc:
        print(f"FAILED: {exc}")
    print(f"requests: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
