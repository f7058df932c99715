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

After the posts it prints each site that asks to skip an event whose
turn is fixed (``Simulator.sleep_inline``, ``Resource.grant_inline``,
``TokenBucket.grant_inline``, ``Resource.can_hold_inline``): the
function that asks, its caller and, for a grant or a hold, the
resource, with the sleeps, grants or holds taken inline against those
refused.  A refused sleep or grant posts one event (the timeout, or
the grant that ``acquire()`` succeeds), so the ``posted`` column counts
what the site still queues.  A hold is a grant and a sleep at once
(``CPUSet.run``, and the VM's first-touch loop through
``CPUSet.can_run_inline``); a refused one posts nothing itself.
``CPUSet.run`` goes on to ask for the grant, and for the sleep only
after a grant it waited for.

Last it prints the zero-fill (first-touch) faults the VM took in its
inline loop (``VMM._first_touch_inline``) against those it sent to the
``VMM._fault`` generator.
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

from repro.kernel import VMM  # noqa: E402
from repro.simulator import Resource, Simulator, TokenBucket  # noqa: E402
from repro.simulator import core  # noqa: E402

#: the quick sort pivot seed perfbench runs with (the workload's default)
QS_SEED = 20050926


#: core.py frames that are posting sites in their own right
_LOOP = ("_drain", "step")


def _name(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # CPython >= 3.11
    return f"{os.path.basename(code.co_filename)}:{name}"


#: the skip-if-next queries counted per site: (class, method, kind)
_QUERIES = (
    (Simulator, "sleep_inline", "sleep"),
    (Resource, "grant_inline", "grant"),
    (TokenBucket, "grant_inline", "grant"),
    (Resource, "can_hold_inline", "hold"),
)


def _site(frame, core_file: str) -> tuple[str, str]:
    """A frame outside core.py and its caller, as printed: a caller
    inside the loop prints as ``(event loop)``."""
    caller = frame.f_back
    if caller.f_code.co_filename == core_file:
        return _name(frame), "(event loop)"
    return _name(frame), _name(caller)


def count_sites(workload: str, seed: int = 1, qs_seed: int = QS_SEED):
    """Run ``workload``'s scenarios; return (posts per site,
    skip-if-next queries per site, events processed, zero-fill faults).
    A query is keyed (kind, asking function, its caller, resource name,
    taken); the faults count as ``{"inline": n, "all": n}``."""
    counts: Counter = Counter()
    inline: Counter = Counter()
    faults: Counter = Counter()
    core_file = core.__file__
    init = Simulator.__init__
    first_touch_inline = VMM._first_touch_inline
    zero_filled = VMM._zero_filled

    def counting_first_touch_inline(self, *args) -> int:
        done = first_touch_inline(self, *args)
        faults["inline"] += done
        return done

    def counting_zero_filled(self, aspace, pages) -> None:
        faults["all"] += len(pages)
        zero_filled(self, aspace, pages)

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
            counts[(*_site(frame, core_file), re.sub(r"\d+", "#", event.name))] += 1
            post(when, key, event)

        self._post = counted

    def counting_query(query, kind):
        def counted(self, *args, **kwargs) -> bool:
            taken = query(self, *args, **kwargs)
            name = "" if kind == "sleep" else re.sub(r"\d+", "#", self.name)
            inline[(kind, *_site(sys._getframe(1), core_file), name, taken)] += 1
            return taken

        return counted

    w = scenarios.WORKLOADS[workload]
    originals = [(cls, attr, getattr(cls, attr)) for cls, attr, _kind in _QUERIES]
    Simulator.__init__ = counting_init
    VMM._first_touch_inline = counting_first_touch_inline
    VMM._zero_filled = counting_zero_filled
    for cls, attr, kind in _QUERIES:
        setattr(cls, attr, counting_query(getattr(cls, attr), kind))
    try:
        built = [sc.build() for sc in w.scenarios(w.inputs(seed, qs_seed))]
        for scenario in built:
            scenario.run()
    finally:
        Simulator.__init__ = init
        VMM._first_touch_inline = first_touch_inline
        VMM._zero_filled = zero_filled
        for cls, attr, query in originals:
            setattr(cls, attr, query)
    processed = sum(b.sim.events_processed for b in built)
    return counts, inline, processed, faults


def _print_inline(inline: Counter, top: int) -> None:
    split: dict[tuple, list[int]] = {}
    for (*site, taken), n in inline.items():
        split.setdefault(tuple(site), [0, 0])[0 if taken else 1] += n
    rows = sorted(split.items(), key=lambda kv: (-sum(kv[1]), kv[0]))
    print(f"{'inline':>9} {'posted':>9} {'rate':>6}  kind  asking function <- caller  [resource]")
    for (kind, site, caller, name), (took, posted) in rows[: top or None]:
        label = f"  [{name}]" if name else ""
        rate = took / (took + posted)
        print(f"{took:9d} {posted:9d} {rate:6.1%}  {kind:<5} {site} <- {caller}{label}")
    if top and len(rows) > top:
        print(f"({len(rows) - top} more sites)")
    for kind in ("sleep", "grant", "hold"):
        took = sum(t for (k, *_s), (t, _p) in split.items() if k == kind)
        posted = sum(p for (k, *_s), (_t, p) in split.items() if k == kind)
        refused = "refused" if kind == "hold" else "posted"
        print(f"{kind}s: {took} inline, {posted} {refused}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--qs-seed", type=int, default=QS_SEED)
    parser.add_argument("--top", type=int, default=30, help="rows to print (0: all)")
    args = parser.parse_args(argv)

    counts, inline, processed, faults = count_sites(
        args.workload, args.seed, args.qs_seed
    )
    total = sum(counts.values())
    rows = counts.most_common(args.top or None)
    print(f"{'posts':>9} {'share':>6}  posting function <- caller  [event name]")
    for (site, caller, name), n in rows:
        print(f"{n:9d} {n / total:6.1%}  {site} <- {caller}  [{name}]")
    if len(rows) < len(counts):
        rest = total - sum(n for _k, n in rows)
        print(f"{rest:9d} {rest / total:6.1%}  ({len(counts) - len(rows)} more sites)")
    print(f"total posts {total}, events processed {processed}")
    print()
    _print_inline(inline, args.top)
    print()
    took, every = faults["inline"], faults["all"]
    rate = f" ({took / every:.1%})" if every else ""
    print(
        f"zero-fill faults: {took} of {every} inline{rate}, "
        f"{every - took} sent to VMM._fault"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
