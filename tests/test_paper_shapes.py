"""Integration tests asserting the paper's qualitative results.

These run the full system at 1/32 of the paper's sizes (seconds of wall
time) and assert the *shape* of every figure: orderings, crossovers and
rough magnitudes.  Exact paper-vs-measured numbers live in
EXPERIMENTS.md; these tests guarantee the shapes cannot silently rot.
"""

from __future__ import annotations

import pytest

from repro import (
    HPBD,
    LocalDisk,
    LocalMemory,
    NBD,
    QuicksortWorkload,
    ScenarioConfig,
    TestswapWorkload,
    run_scenario,
)
from repro.analysis import cluster_requests
from repro.units import GiB, KiB, MiB

SCALE = 32


def cfg(workloads, device, mem, swap=GiB // SCALE):
    return ScenarioConfig(
        workloads,
        device,
        mem_bytes=mem,
        swap_bytes=0 if isinstance(device, LocalMemory) else swap,
        mem_reserved_bytes=24 * MiB // SCALE,
    )


@pytest.fixture(scope="module")
def testswap_results():
    out = {}
    for dev in (LocalMemory(), HPBD(), NBD("ipoib"), NBD("gige"), LocalDisk()):
        w = TestswapWorkload(size_bytes=GiB // SCALE)
        mem = 2 * GiB // SCALE if isinstance(dev, LocalMemory) else 512 * MiB // SCALE
        out[dev.label] = run_scenario(cfg([w], dev, mem))
    return out


@pytest.fixture(scope="module")
def quicksort_results():
    out = {}
    for dev in (LocalMemory(), HPBD(), NBD("ipoib"), NBD("gige"), LocalDisk()):
        w = QuicksortWorkload(nelems=256 * 1024 * 1024 // SCALE)
        mem = 2 * GiB // SCALE if isinstance(dev, LocalMemory) else 512 * MiB // SCALE
        out[dev.label] = run_scenario(cfg([w], dev, mem))
    return out


class TestFig5Testswap:
    def test_device_ordering(self, testswap_results):
        r = testswap_results
        assert (
            r["local"].elapsed_usec
            < r["hpbd"].elapsed_usec
            < r["nbd-ipoib"].elapsed_usec
            < r["nbd-gige"].elapsed_usec
            < r["disk"].elapsed_usec
        )

    def test_hpbd_close_to_local(self, testswap_results):
        # Paper: local memory only 1.45x faster than HPBD.
        ratio = testswap_results["hpbd"].slowdown_vs(testswap_results["local"])
        assert 1.1 < ratio < 2.0

    def test_hpbd_beats_disk_clearly(self, testswap_results):
        # Paper: HPBD 2.2x faster than disk on testswap.
        ratio = testswap_results["disk"].slowdown_vs(testswap_results["hpbd"])
        assert ratio > 1.5

    def test_hpbd_beats_ipoib(self, testswap_results):
        # Paper: 1.29x — TCP over the same wire loses to native verbs.
        ratio = testswap_results["nbd-ipoib"].slowdown_vs(
            testswap_results["hpbd"]
        )
        assert ratio > 1.05

    def test_testswap_is_writeonly(self, testswap_results):
        r = testswap_results["hpbd"]
        assert r.swapout_pages > 0
        assert r.swapin_pages == 0


class TestFig6RequestSizes:
    def test_write_requests_near_128k(self, testswap_results):
        """'testswap involves mostly ... messages around 120K'."""
        r = testswap_results["hpbd"]
        assert r.mean_write_request > 100 * KiB

    def test_clusters_have_large_means(self, testswap_results):
        r = testswap_results["hpbd"]
        clusters = cluster_requests(r.request_trace, op="write")
        assert len(clusters) >= 3
        big = [c for c in clusters if c.mean_bytes > 100 * KiB]
        assert len(big) / len(clusters) > 0.8


class TestFig7Quicksort:
    def test_device_ordering(self, quicksort_results):
        r = quicksort_results
        assert (
            r["local"].elapsed_usec
            < r["hpbd"].elapsed_usec
            < r["nbd-ipoib"].elapsed_usec
            < r["nbd-gige"].elapsed_usec
            < r["disk"].elapsed_usec
        )

    def test_disk_catastrophic(self, quicksort_results):
        # Paper: HPBD 4.5x faster than disk for quick sort.
        ratio = quicksort_results["disk"].slowdown_vs(quicksort_results["hpbd"])
        assert ratio > 2.5

    def test_quicksort_swaps_both_ways(self, quicksort_results):
        r = quicksort_results["hpbd"]
        assert r.swapin_pages > 0
        assert r.swapout_pages > 0

    def test_reads_are_readahead_clusters(self, quicksort_results):
        r = quicksort_results["hpbd"]
        # mean read request ≈ read-ahead window (32 KiB), well below the
        # 128 KiB write clusters
        assert 8 * KiB <= r.mean_read_request <= 64 * KiB
        assert r.mean_write_request > r.mean_read_request


class TestFig10MultiServer:
    @pytest.fixture(scope="class")
    def by_servers(self):
        out = {}
        for n in (1, 4, 16):
            w = QuicksortWorkload(nelems=256 * 1024 * 1024 // SCALE)
            out[n] = run_scenario(
                cfg([w], HPBD(nservers=n), 512 * MiB // SCALE)
            )
        return out

    def test_flat_through_moderate_counts(self, by_servers):
        # "HPBD performs similarly up to 8 servers"
        ratio = by_servers[4].slowdown_vs(by_servers[1])
        assert 0.95 < ratio < 1.05

    def test_degradation_at_16(self, by_servers):
        # "For 16 nodes server there is some degradation"
        ratio = by_servers[16].slowdown_vs(by_servers[1])
        assert 1.01 < ratio < 1.3

    def test_data_distributed_across_servers(self):
        w = TestswapWorkload(size_bytes=GiB // SCALE)
        from repro.runner import build_scenario

        scn = build_scenario(cfg([w], HPBD(nservers=4), 512 * MiB // SCALE))
        scn.run()
        stored = [s.ramdisk.pages_stored for s in scn.servers]
        assert sum(1 for s in stored if s > 0) >= 2  # blocking layout fills chunks in order


class TestSec62HostOverheadDominates:
    def test_hpbd_network_share_below_tcp_shares(self, testswap_results):
        """The paper's conclusion: for HPBD the wire is a small share of
        the swap overhead; for TCP transports it is much larger."""
        from repro.analysis.amdahl import direct_network_fraction, tcp_wire_cost
        from repro.net import GIGE_DEFAULT, IB_DEFAULT

        local = testswap_results["local"]
        gige_f = direct_network_fraction(
            testswap_results["nbd-gige"], local, tcp_wire_cost(GIGE_DEFAULT)
        )
        hpbd_f = direct_network_fraction(
            testswap_results["hpbd"],
            local,
            lambda n: IB_DEFAULT.rdma_write_cost(n),
        )
        assert hpbd_f < gige_f


class TestSeedRobustness:
    def test_quicksort_result_stable_across_seeds(self):
        """The headline result must not hinge on pivot luck: different
        quicksort seeds stay within a modest band (at 1/32 scale the
        pivot RNG matters more than at full size, where the spread
        shrinks below a few percent)."""
        times = []
        for seed in (1, 2, 3):
            w = QuicksortWorkload(nelems=256 * 1024 * 1024 // SCALE, seed=seed)
            r = run_scenario(cfg([w], HPBD(), 512 * MiB // SCALE))
            times.append(r.elapsed_usec)
        spread = (max(times) - min(times)) / min(times)
        assert spread < 0.20
