"""Count one perfbench workload's queued events by posting site.

Builds and runs every scenario of a ``perfbench`` workload untraced,
with a counting wrapper around each simulator's ``_post`` (the one
method both scheduler backends queue every entry through), and prints
the entries posted per (posting function, its caller, event name), most
frequent first, then the total.  The posting function is the innermost
frame outside ``repro/simulator/core.py`` (``Resource.acquire``,
``HPBDServer._main``, ``RequestQueue.complete``, ...), so process
kick-offs are charged to whoever spawned the process; a process's exit
event is charged to the drain loop.  A caller inside the loop (a
process body or callback it resumed) prints as ``(event loop)``.
Digit runs in event names print as ``#``, so per-node names such as
``t1.cpus.acquire`` share a row.

Run from the repository root::

    python3 benchmarks/event_sites.py --workload fig07-quicksort --top 20

Posts exceed the ``sim.events`` perfbench reports by the entries that
never fire: cancelled timeouts and ``run(until=<float>)`` deadline
markers.  The workload definitions come from ``perfbench/scenarios.py``,
imported as is.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import scenarios  # noqa: E402

from repro.simulator import Simulator  # noqa: E402
from repro.simulator import core  # noqa: E402

#: the quick sort pivot seed perfbench runs with (the workload's default)
QS_SEED = 20050926


#: core.py frames that are posting sites in their own right
_LOOP = ("_drain", "step")


def _name(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # CPython >= 3.11
    return f"{os.path.basename(code.co_filename)}:{name}"


def count_sites(workload: str, seed: int = 1, qs_seed: int = QS_SEED):
    """Run ``workload``'s scenarios; return (posts per site, events
    processed)."""
    counts: Counter = Counter()
    core_file = core.__file__
    init = Simulator.__init__

    def counting_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        post = self._post

        def counted(when, key, event) -> None:
            frame = sys._getframe(1)
            while (
                frame.f_code.co_filename == core_file
                and frame.f_code.co_name not in _LOOP
            ):
                frame = frame.f_back
            caller = frame.f_back
            counts[(
                _name(frame),
                "(event loop)" if caller.f_code.co_filename == core_file
                else _name(caller),
                re.sub(r"\d+", "#", event.name),
            )] += 1
            post(when, key, event)

        self._post = counted

    w = scenarios.WORKLOADS[workload]
    Simulator.__init__ = counting_init
    try:
        built = [sc.build() for sc in w.scenarios(w.inputs(seed, qs_seed))]
        for scenario in built:
            scenario.run()
    finally:
        Simulator.__init__ = init
    return counts, sum(b.sim.events_processed for b in built)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--qs-seed", type=int, default=QS_SEED)
    parser.add_argument("--top", type=int, default=30, help="rows to print (0: all)")
    args = parser.parse_args(argv)

    counts, processed = count_sites(args.workload, args.seed, args.qs_seed)
    total = sum(counts.values())
    rows = counts.most_common(args.top or None)
    print(f"{'posts':>9} {'share':>6}  posting function <- caller  [event name]")
    for (site, caller, name), n in rows:
        print(f"{n:9d} {n / total:6.1%}  {site} <- {caller}  [{name}]")
    if len(rows) < len(counts):
        rest = total - sum(n for _k, n in rows)
        print(f"{rest:9d} {rest / total:6.1%}  ({len(counts) - len(rows)} more sites)")
    print(f"total posts {total}, events processed {processed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
