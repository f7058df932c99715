"""Fluid-flow bulk channel: collapse/expand correctness and bulk copies.

The fast path's contract is absolute: an analytic (collapsed) transfer
must finish at the *bit-identical* time the page-by-page discrete chain
would have produced, under every disturbance pattern — competing flows
joining mid-segment, tracers forcing discrete stepping, fault windows
via ``force_discrete``.  These tests drive both arms of every branch
and compare exact floats, under both schedulers.
"""

from __future__ import annotations

import pytest

from repro.simulator import FluidChannel, Simulator

MiB = 1024 * 1024

pytestmark = pytest.mark.parametrize("scheduler", ["heap", "wheel"])


class TestSoloCollapse:
    def test_solo_transfer_is_o1_events(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        chan = FluidChannel(sim, rate_bytes_per_usec=800.0)

        def driver(sim):
            yield chan.transfer(10 * MiB)
            return sim.now

        p = sim.spawn(driver(sim))
        end = sim.run(until=p)
        assert end == pytest.approx(10 * MiB / 800.0)
        # whole 2560-page transfer in a handful of events
        assert sim.events_processed < 12
        assert chan._c_collapsed.count == 1
        assert chan._c_pages.count == 0

    def test_discrete_matches_collapsed_exactly(self, scheduler):
        def run(force):
            sim = Simulator(scheduler=scheduler)
            chan = FluidChannel(sim, rate_bytes_per_usec=800.0)
            chan.force_discrete = force

            def driver(sim):
                done = yield chan.transfer(10 * MiB + 12345)  # odd tail page
                return (sim.now, done)

            p = sim.spawn(driver(sim))
            return sim.run(until=p), sim.events_processed

        (t_fluid, done_fluid), ev_fluid = run(False)
        (t_disc, done_disc), ev_disc = run(True)
        assert t_fluid == t_disc  # bit-identical, not approx
        assert done_fluid == done_disc
        assert ev_disc / ev_fluid > 10  # the headline claim

    def test_tracing_forces_discrete_with_identical_clock(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        sim.enable_tracing()
        chan = FluidChannel(sim, rate_bytes_per_usec=800.0)

        def driver(sim):
            yield chan.transfer(MiB)
            return sim.now

        p = sim.spawn(driver(sim))
        end = sim.run(until=p)
        assert end == MiB / 800.0
        assert chan._c_collapsed.count == 0
        assert chan._c_pages.count == MiB // 4096
        spans = [s for s in sim.trace.spans if s.name == "page"]
        assert len(spans) == MiB // 4096


class TestContention:
    @pytest.mark.parametrize("sizes,stagger", [
        ((MiB, MiB), 0.0),
        ((2 * MiB, MiB), 100.0),
        ((MiB, MiB, MiB), 37.5),
        ((5 * MiB, 4096, 3 * MiB), 1000.0),
    ])
    def test_contended_equals_forced_discrete(self, scheduler, sizes, stagger):
        """Any overlap pattern: analytic+expansion == pure discrete."""
        def run(force):
            sim = Simulator(scheduler=scheduler)
            chan = FluidChannel(sim, rate_bytes_per_usec=800.0)
            chan.force_discrete = force
            ends = []

            def one(sim, nbytes, delay):
                if delay:
                    yield sim.timeout(delay)
                yield chan.transfer(nbytes)
                ends.append(sim.now)

            procs = [
                sim.spawn(one(sim, nbytes, i * stagger))
                for i, nbytes in enumerate(sizes)
            ]
            sim.run_all(procs)
            return ends, chan

        fluid_ends, fluid_chan = run(False)
        disc_ends, _ = run(True)
        assert fluid_ends == disc_ends  # exact
        if len(sizes) > 1 and stagger:
            # the second joiner disturbed the first's collapsed segment
            assert fluid_chan._c_expansions.count >= 1

    def test_collapse_back_after_competitor_leaves(self, scheduler):
        """Big flow + small flow: once the small one drains, the big
        one's next segment collapses again."""
        sim = Simulator(scheduler=scheduler)
        chan = FluidChannel(sim, rate_bytes_per_usec=800.0)

        def one(sim, nbytes):
            yield chan.transfer(nbytes)
            return sim.now

        big = sim.spawn(one(sim, 20 * MiB))
        small = sim.spawn(one(sim, 64 * 1024))
        sim.run_all([big, small])
        # expansion happened (the join), and a later segment re-collapsed
        assert chan._c_expansions.count + chan._c_collapsed.count >= 2
        assert chan._c_collapsed.count >= 1
        # events far below the ~5136 pages a full discrete run would cost
        assert sim.events_processed < 600


class TestValidation:
    def test_bad_sizes_and_rates(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        with pytest.raises(ValueError):
            FluidChannel(sim, rate_bytes_per_usec=0.0)
        with pytest.raises(ValueError):
            FluidChannel(sim, 800.0, page_bytes=0)
        chan = FluidChannel(sim, 800.0)
        with pytest.raises(ValueError):
            chan.transfer(0)


class TestMigration:
    def test_concurrent_migrations_share_channel(self, scheduler):
        """Two repair-style bulk copies started together share the
        migrator's channel fairly."""
        from repro.cluster import ChunkMigrator

        sim = Simulator(scheduler=scheduler)
        mig = ChunkMigrator(sim)
        nbytes = 4 * MiB

        def driver(sim):
            pa = sim.spawn(mig.bulk_copy("a", nbytes))
            pb = sim.spawn(mig.bulk_copy("b", nbytes))
            yield pa
            yield pb
            return sim.now

        end = sim.run(until=sim.spawn(driver(sim)))
        # two equal flows sharing the pipe: both finish together at 2x
        assert end == pytest.approx(2 * nbytes / mig.channel.rate)
        assert mig._c_bytes.total == 2 * nbytes
        assert mig.channel._c_expansions.count >= 1
