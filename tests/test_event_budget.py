"""Event budgets: the fault path posts no event whose turn is fixed.

A first-touch page costs a fault and a frame allocation, each a CPU
grant and a CPU sleep.  When nothing else is queued before them, the
grant and the sleep are taken inline (``Resource.grant_inline``,
``Simulator.sleep_inline``), so a page-out stream processes far fewer
events than it touches pages.  These budgets fail if an elision on that
path is lost, long before a wall-clock benchmark would notice.
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

#: a 2,048-page testswap (8 MiB of 4 KiB pages)
NPAGES = 2048


def _events(device, mem_bytes: int) -> int:
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
    return scenario.sim.events_processed


def test_resident_testswap_runs_its_faults_inline():
    """All 2,048 pages fit in 16 MiB: the run needs a handful of
    events, not two per page."""
    assert _events(LocalMemory(), 16 * MiB) < 64


def test_swapping_testswap_posts_fewer_events_than_pages():
    """4 MiB of RAM against 8 MiB of pages over HPBD: the write-back
    traffic needs events, the per-page fault path does not."""
    assert _events(HPBD(), 4 * MiB) < NPAGES
