"""Golden simulated outcomes: one point per ``SWEEPS`` family.

The heap-vs-wheel suite proves the two schedulers agree with each
other; it cannot see a change that moves both alike, such as a
component that stops scheduling an event or schedules it elsewhere in
the ``(time, priority, seq)`` order.  This module pins the outcome
itself.  One point per family runs untraced at scale 64 and must
reproduce, exactly, the recorded

* ``elapsed_usec`` of every workload instance and of the scenario,
* sha256 over every request latency (the ``*.rq.req_latency_usec``
  tallies, float64 bytes in registry-name order), and
* count and total of every registry counter.

The recorded file was written by the reference implementation with::

    PYTHONPATH=<reference checkout>/src python tests/test_golden_outcomes.py \\
        > tests/data/golden_outcomes.json

Regenerate it only for a change that is meant to move simulated
results, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.experiments import SWEEPS
from repro.runner import run_scenario
from repro.simulator import Counter

SCALE = 64
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_outcomes.json")
LATENCY = ".rq.req_latency_usec"

#: The point each family contributes, chosen so together they cover
#: every device (HPBD, NBD over IPoIB and GigE, disk), striping, server
#: crashes, fail-slow hedging, erasure-coded repair and the cluster.
POINTS = {
    "campaign": "campaign/fair-2s",
    "cluster": "cluster/c3s2/blocking",
    "failslow": "failslow/mitigated",
    "faults": "faults/crash-remap",
    "fig05": "fig05/nbd-gige",
    "fig06": "fig06/hpbd",
    "fig07": "fig07/hpbd",
    "fig08": "fig08/nbd-ipoib",
    "fig09": "fig09/disk@50%",
    "fig10": "fig10/n4",
    "redundancy": "redundancy/rs42-crash",
}


def outcome(family: str) -> dict:
    """Run the family's golden point untraced and digest its outcome."""
    builder, _desc = SWEEPS[family]
    (point,) = [p for p in builder(SCALE) if p.name == POINTS[family]]
    result = run_scenario(point.cfg)
    reg = result.registry
    lat = [reg.get(n).values() for n in reg.names() if n.endswith(LATENCY)]
    lat_bytes = np.concatenate(lat).astype("<f8").tobytes() if lat else b""
    return {
        "point": point.name,
        "elapsed_usec": result.elapsed_usec,
        "instances": [[i.workload, i.elapsed_usec] for i in result.instances],
        "latencies": {
            "n": len(lat_bytes) // 8,
            "sha256": hashlib.sha256(lat_bytes).hexdigest(),
        },
        "counters": {
            n: [reg.get(n).count, reg.get(n).total]
            for n in reg.names()
            if isinstance(reg.get(n), Counter)
        },
    }


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_family():
    assert sorted(_golden()) == sorted(SWEEPS) == sorted(POINTS)


@pytest.mark.parametrize("family", sorted(POINTS))
def test_outcome_matches_golden(family):
    want = _golden()[family]
    got = json.loads(json.dumps(outcome(family)))
    assert got["point"] == want["point"]
    assert got["elapsed_usec"] == want["elapsed_usec"]
    assert got["instances"] == want["instances"]
    assert got["latencies"] == want["latencies"]
    assert got["counters"] == want["counters"]


if __name__ == "__main__":
    json.dump({f: outcome(f) for f in sorted(POINTS)}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
