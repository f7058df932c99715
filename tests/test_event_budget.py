"""Event and host-work budgets: the fault path does no work whose turn
is fixed.

A first-touch page costs a fault and a frame allocation, each a CPU
grant and a CPU sleep.  When nothing else is queued before them, the
grant and the sleep are taken inline, and a run of such pages is
faulted in by one loop (``VMM._first_touch_inline``) with no generator
per page.  So a page-out stream processes far fewer events than it
touches pages, and builds a ``VMM._fault`` generator only for the pages
that need one.  These budgets fail if an elision on that path is lost,
long before a wall-clock benchmark would notice.
"""

from __future__ import annotations

from repro import (
    HPBD,
    LocalMemory,
    MiB,
    ScenarioConfig,
    TestswapWorkload,
    build_scenario,
)
from repro.kernel import VMM

#: a 2,048-page testswap (8 MiB of 4 KiB pages)
NPAGES = 2048


def _run(device, mem_bytes: int):
    workload = TestswapWorkload(size_bytes=8 * MiB)
    assert workload.npages == NPAGES
    scenario = build_scenario(
        ScenarioConfig(
            workloads=[workload],
            device=device,
            mem_bytes=mem_bytes,
            swap_bytes=16 * MiB,
            mem_reserved_bytes=0,
        )
    )
    scenario.run()
    return scenario


def _fault_calls(device, mem_bytes: int, monkeypatch) -> int:
    """``VMM._fault`` generators built by one run."""
    calls = 0
    fault = VMM._fault

    def counted(self, aspace, page):
        nonlocal calls
        calls += 1
        return fault(self, aspace, page)

    monkeypatch.setattr(VMM, "_fault", counted)
    _run(device, mem_bytes)
    return calls


def test_resident_testswap_runs_its_faults_inline():
    """All 2,048 pages fit in 16 MiB: the run needs a handful of
    events, not two per page."""
    assert _run(LocalMemory(), 16 * MiB).sim.events_processed < 64


def test_swapping_testswap_posts_fewer_events_than_pages():
    """4 MiB of RAM against 8 MiB of pages over HPBD: the write-back
    traffic needs events, the per-page fault path does not."""
    assert _run(HPBD(), 4 * MiB).sim.events_processed < NPAGES


def test_resident_testswap_builds_few_fault_generators(monkeypatch):
    """Nothing competes for the CPUs or frames: the first touches are
    faulted in runs, not one generator per page."""
    assert _fault_calls(LocalMemory(), 16 * MiB, monkeypatch) < 64


def test_swapping_testswap_builds_fault_generators_for_few_pages(monkeypatch):
    """Only pages whose fault must wait (a reclaim, kswapd's wakeup or
    a queued event due first) take the generator path."""
    assert _fault_calls(HPBD(), 4 * MiB, monkeypatch) < 512
