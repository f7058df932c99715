"""Unit + integration tests for scenario configuration and the runner."""

from __future__ import annotations

import pytest

from repro import (
    HPBD,
    LocalDisk,
    LocalMemory,
    NBD,
    ScenarioConfig,
    TestswapWorkload,
    build_scenario,
    run_scenario,
)
from repro.units import GiB, MiB


def small_workload():
    # Larger than the default 14 MiB of usable memory, so it swaps.
    return TestswapWorkload(size_bytes=24 * MiB)


def small_cfg(device, mem=16 * MiB, swap=32 * MiB):
    return ScenarioConfig(
        [small_workload()],
        device,
        mem_bytes=mem,
        swap_bytes=swap,
        mem_reserved_bytes=2 * MiB,
    )


class TestConfigValidation:
    def test_needs_workloads(self):
        with pytest.raises(ValueError):
            ScenarioConfig([], HPBD(), mem_bytes=16 * MiB)

    def test_memory_must_cover_reserve(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                [small_workload()], HPBD(), mem_bytes=MiB,
                mem_reserved_bytes=2 * MiB,
            )

    def test_local_memory_ignores_swap(self):
        cfg = ScenarioConfig(
            [small_workload()], LocalMemory(), mem_bytes=64 * MiB,
            swap_bytes=GiB, mem_reserved_bytes=2 * MiB,
        )
        assert cfg.swap_bytes == 0

    def test_nbd_transport_labels(self):
        assert NBD("gige").label == "nbd-gige"
        assert NBD("ipoib").label == "nbd-ipoib"
        with pytest.raises(ValueError):
            NBD("atm").params()

    def test_with_device(self):
        cfg = small_cfg(HPBD())
        cfg2 = cfg.with_device(LocalDisk())
        assert cfg2.label == "disk"
        assert cfg2.mem_bytes == cfg.mem_bytes

    def test_usable_memory(self):
        cfg = small_cfg(HPBD())
        assert cfg.usable_mem_bytes == 14 * MiB


class TestBuild:
    def test_hpbd_builds_servers(self):
        scn = build_scenario(small_cfg(HPBD(nservers=4)))
        assert len(scn.servers) == 4
        (host,) = scn.hosts
        assert host.client is not None
        assert host.queue is host.client.queue

    def test_hpbd_server_store_covers_share(self):
        scn = build_scenario(small_cfg(HPBD(nservers=4)))
        share = scn.servers[0].ramdisk.size
        assert share * 4 >= 32 * MiB

    def test_nbd_builds_single_server(self):
        scn = build_scenario(small_cfg(NBD("gige")))
        assert scn.hosts[0].nbd_client is not None
        assert scn.nbd_server is not None

    def test_disk_builds(self):
        scn = build_scenario(small_cfg(LocalDisk()))
        assert scn.hosts[0].disk is not None

    def test_local_requires_fit(self):
        with pytest.raises(ValueError):
            build_scenario(
                ScenarioConfig(
                    [small_workload()], LocalMemory(), mem_bytes=8 * MiB,
                    mem_reserved_bytes=2 * MiB,
                )
            )

    def test_swapless_device_config_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(small_cfg(HPBD(), swap=0))


class TestRun:
    @pytest.mark.parametrize(
        "device",
        [LocalMemory(), HPBD(), HPBD(nservers=2), NBD("gige"),
         NBD("ipoib"), LocalDisk()],
        ids=["local", "hpbd1", "hpbd2", "gige", "ipoib", "disk"],
    )
    def test_every_device_completes(self, device):
        mem = 64 * MiB if isinstance(device, LocalMemory) else 16 * MiB
        result = run_scenario(small_cfg(device, mem=mem))
        assert result.elapsed_usec > 0
        assert len(result.instances) == 1
        assert result.instances[0].workload == "testswap"
        if not isinstance(device, LocalMemory):
            assert result.swapout_pages > 0
            assert result.mean_write_request > 0

    def test_local_never_swaps(self):
        result = run_scenario(small_cfg(LocalMemory(), mem=64 * MiB))
        assert result.swapout_pages == 0
        assert result.swapin_pages == 0
        assert len(result.request_trace) == 0

    def test_two_instances(self):
        cfg = ScenarioConfig(
            [small_workload(), small_workload()],
            HPBD(),
            mem_bytes=16 * MiB,
            swap_bytes=64 * MiB,
            mem_reserved_bytes=2 * MiB,
        )
        result = run_scenario(cfg)
        assert len(result.instances) == 2
        # wall time covers both instances
        assert result.elapsed_usec >= max(
            i.elapsed_usec for i in result.instances
        ) - 1e-6

    def test_network_bytes_reported_for_hpbd(self):
        result = run_scenario(small_cfg(HPBD()))
        assert result.network_bytes.get("rdma_read", 0) > 0
        assert result.network_bytes.get("ib_send", 0) > 0
        assert result.client_copy_usec > 0

    def test_network_bytes_reported_for_nbd(self):
        result = run_scenario(small_cfg(NBD("gige")))
        assert result.network_bytes.get("tcp_gige", 0) > 0

    def test_result_summary_string(self):
        result = run_scenario(small_cfg(HPBD()))
        s = result.summary()
        assert "hpbd" in s and "s" in s

    def test_slowdown_vs(self):
        local = run_scenario(small_cfg(LocalMemory(), mem=64 * MiB))
        disk = run_scenario(small_cfg(LocalDisk()))
        assert disk.slowdown_vs(local) > 1.0

    def test_determinism(self):
        a = run_scenario(small_cfg(HPBD()))
        b = run_scenario(small_cfg(HPBD()))
        assert a.elapsed_usec == b.elapsed_usec
        assert a.swapout_pages == b.swapout_pages
