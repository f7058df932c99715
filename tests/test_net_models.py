"""Unit tests for cost models, calibrated fabrics, ports and transfers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import (
    GIGE_DEFAULT,
    IB_DEFAULT,
    IPOIB_DEFAULT,
    LinearCost,
    MEMCPY,
    PiecewiseLinearCost,
    memcpy_cost,
    registration_cost,
)
from repro.units import KiB


class TestLinearCost:
    def test_cost_formula(self):
        m = LinearCost(alpha=5.0, beta=0.01)
        assert m.cost(0) == 5.0
        assert m.cost(1000) == 15.0

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(alpha=-1, beta=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(1, 1).cost(-1)

    def test_from_bandwidth(self):
        m = LinearCost.from_bandwidth(alpha_usec=2.0, mb_per_s=100.0)
        # 100 MB/s = 100 B/µs
        assert m.cost(1000) == pytest.approx(2.0 + 10.0)
        assert m.bandwidth_mb_s == pytest.approx(100.0)

    def test_cost_array_matches_scalar(self):
        m = LinearCost(3.0, 0.5)
        sizes = np.array([0, 10, 100])
        np.testing.assert_allclose(
            m.cost_array(sizes), [m.cost(int(s)) for s in sizes]
        )


class TestPiecewiseLinearCost:
    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost(knots=((0, 1),))

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost(knots=((10, 1), (10, 2)))

    def test_interpolation(self):
        m = PiecewiseLinearCost(knots=((0, 0.0), (100, 10.0)))
        assert m.cost(50) == pytest.approx(5.0)

    def test_extrapolation_beyond_last_knot(self):
        m = PiecewiseLinearCost(knots=((0, 0.0), (100, 10.0)))
        assert m.cost(200) == pytest.approx(20.0)

    def test_cost_array_matches_scalar(self):
        m = MEMCPY
        sizes = np.array([0, 4096, 10_000, 128 * KiB, 256 * KiB])
        np.testing.assert_allclose(
            m.cost_array(sizes), [m.cost(int(s)) for s in sizes], rtol=1e-12
        )


class TestCalibration:
    """The Fig. 1 / Fig. 3 relationships the models must satisfy."""

    def test_fig1_small_message_ordering(self):
        # memcpy < RDMA write < IPoIB < GigE at small sizes
        s = 64
        assert (
            MEMCPY.cost(s)
            < IB_DEFAULT.rdma_write_cost(s)
            < IPOIB_DEFAULT.one_way_cost(s)
            < GIGE_DEFAULT.one_way_cost(s)
        )

    def test_fig1_large_message_ordering(self):
        s = 128 * KiB
        assert (
            MEMCPY.cost(s)
            < IB_DEFAULT.rdma_write_cost(s)
            < IPOIB_DEFAULT.one_way_cost(s)
            < GIGE_DEFAULT.one_way_cost(s)
        )

    def test_rdma_write_comparable_to_memcpy(self):
        # "RDMA_WRITE latency between two nodes is quite comparable to
        # local memcpy latency" — same order of magnitude across the
        # plotted range, converging for large messages.
        assert IB_DEFAULT.rdma_write_cost(4 * KiB) < 5.0 * MEMCPY.cost(4 * KiB)
        assert IB_DEFAULT.rdma_write_cost(32 * KiB) < 3.0 * MEMCPY.cost(32 * KiB)
        assert IB_DEFAULT.rdma_write_cost(128 * KiB) < 2.5 * MEMCPY.cost(128 * KiB)

    def test_fig3_registration_dominates_memcpy_in_swap_range(self):
        # "registration on-the-fly ... is very costly compared with copy
        # cost ... especially within the range of 4K - 127K"
        for s in (4 * KiB, 16 * KiB, 64 * KiB, 127 * KiB):
            assert registration_cost(s) > memcpy_cost(s)

    def test_rdma_read_costs_more_than_write(self):
        assert IB_DEFAULT.rdma_read_cost(4096) > IB_DEFAULT.rdma_write_cost(4096)

    def test_send_costs_more_than_rdma_write(self):
        assert IB_DEFAULT.send_cost(64) > IB_DEFAULT.rdma_write_cost(64)

    def test_qp_penalty_kicks_in_past_cache(self):
        assert IB_DEFAULT.qp_penalty(8) == 0.0
        assert IB_DEFAULT.qp_penalty(9) > 0.0
        assert IB_DEFAULT.qp_penalty(16) > IB_DEFAULT.qp_penalty(9)

    def test_ipoib_stack_bound_not_wire_bound(self):
        # IPoIB's wire is IB-fast; its effective bandwidth must be far
        # below the raw wire rate (the paper's central point).
        wire_mb_s = 1.0 / IPOIB_DEFAULT.wire_byte_time
        assert IPOIB_DEFAULT.effective_bandwidth_mb_s < wire_mb_s / 3

    def test_gige_wire_bound(self):
        # GigE's host work is lighter than its wire serialization.
        host_per_byte = 2 * GIGE_DEFAULT.host_per_byte
        assert host_per_byte < GIGE_DEFAULT.wire_byte_time

    def test_tcp_segments(self):
        assert GIGE_DEFAULT.segments(0) == 1
        assert GIGE_DEFAULT.segments(1500) == 1
        assert GIGE_DEFAULT.segments(1501) == 2


class TestFabricTransfers:
    def test_transfer_timing(self, sim, fabric):
        a, b = fabric.port("a"), fabric.port("b")

        def proc(sim):
            yield fabric.transfer(a, b, 1000, byte_time=0.01, latency=5.0)
            return sim.now

        p = sim.spawn(proc(sim))
        assert sim.run(until=p) == pytest.approx(15.0)

    def test_zero_byte_transfer(self, sim, fabric):
        a, b = fabric.port("a"), fabric.port("b")

        def proc(sim):
            yield fabric.transfer(a, b, 0, byte_time=0.01, latency=3.0)
            return sim.now

        p = sim.spawn(proc(sim))
        assert sim.run(until=p) == pytest.approx(3.0)

    def test_arrival_event_delivers_nbytes_to_yield_and_callback(self, sim, fabric):
        a, b = fabric.port("a"), fabric.port("b")
        heard = []
        arrival = fabric.transfer(a, b, 1000, byte_time=0.01, latency=5.0)
        arrival.callbacks.append(lambda e: heard.append((sim.now, e.value)))

        def proc(sim):
            got = yield fabric.transfer(a, b, 700, byte_time=0.01, latency=5.0)
            return sim.now, got

        p = sim.spawn(proc(sim))
        # The second transfer queues behind the first on a.tx (10 us).
        assert sim.run(until=p) == (pytest.approx(22.0), 700)
        assert heard == [(pytest.approx(15.0), 1000)]

    def test_negative_size_rejected(self, sim, fabric):
        a, b = fabric.port("a"), fabric.port("b")
        with pytest.raises(ValueError):
            fabric.transfer(a, b, -1, 0.01, 1.0)

    def test_self_transfer_rejected(self, sim, fabric):
        a = fabric.port("a")
        with pytest.raises(ValueError):
            fabric.transfer(a, a, 10, 0.01, 1.0)

    def test_port_serialization(self, sim, fabric):
        # Two transfers out of one port serialize on its tx unit.
        a, b, c = fabric.port("a"), fabric.port("b"), fabric.port("c")

        def proc(sim):
            e1 = fabric.transfer(a, b, 1000, byte_time=0.1, latency=0.0)
            e2 = fabric.transfer(a, c, 1000, byte_time=0.1, latency=0.0)
            yield e1
            yield e2
            return sim.now

        p = sim.spawn(proc(sim))
        assert sim.run(until=p) == pytest.approx(200.0)

    def test_full_duplex_no_serialization(self, sim, fabric):
        # Opposite directions do not contend (tx vs rx pools).
        a, b = fabric.port("a"), fabric.port("b")

        def proc(sim):
            e1 = fabric.transfer(a, b, 1000, byte_time=0.1, latency=0.0)
            e2 = fabric.transfer(b, a, 1000, byte_time=0.1, latency=0.0)
            yield e1
            yield e2
            return sim.now

        p = sim.spawn(proc(sim))
        assert sim.run(until=p) == pytest.approx(100.0)

    def test_byte_accounting(self, sim, fabric):
        a, b = fabric.port("a"), fabric.port("b")

        def proc(sim):
            yield fabric.transfer(a, b, 500, 0.01, 1.0)

        p = sim.spawn(proc(sim))
        sim.run(until=p)
        assert a.bytes_out == 500
        assert b.bytes_in == 500

    def test_port_identity(self, sim, fabric):
        assert fabric.port("x") is fabric.port("x")
        assert "x" in fabric.ports()
