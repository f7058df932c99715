"""Seeded heap-vs-wheel order fuzz.

Hypothesis builds random event programs aimed at the calendar queue's
edges: zero-delay ``succeed``s, delays on and around the ``_W`` µs
bucket edges and the ``_NBUCKETS * _W`` horizon, long idle gaps while
one near entry is pending, tombstoned cancels, ``run(until=)`` markers,
sleeping processes and callbacks that post more events.  Each program
runs once per backend; the heap is the reference, and the wheel must
fire the same ``(time, label)`` sequence, process the same number of
events and end on the same clock.  No tombstone may fire on either.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    LAZY,
    NORMAL,
    URGENT,
    Resource,
    SimulationError,
    Simulator,
)
from repro.simulator.core import _NBUCKETS, _W

HORIZON = _NBUCKETS * _W
_EDGE_OFFSETS = (-1e-9, -1e-6, 0.0, 1e-9, 1e-6)


def _edge(base_ordinals: int):
    return st.builds(
        lambda k, off: max(0.0, k * _W + off),
        st.integers(0, base_ordinals),
        st.sampled_from(_EDGE_OFFSETS),
    )


DELAYS = st.one_of(
    st.just(0.0),
    _edge(2 * _NBUCKETS + 8),  # bucket edges, below and past the horizon
    st.builds(
        lambda k, off: k * HORIZON + off,
        st.integers(1, 3),
        st.sampled_from(_EDGE_OFFSETS),
    ),
    st.floats(0.0, 3 * HORIZON, allow_nan=False, allow_infinity=False),
    st.floats(1e5, 1e8),  # long idle gaps
)
PRIORITIES = st.sampled_from((URGENT, NORMAL, LAZY))

# An op is a tuple whose first field names it:
#   ("timeout", delay, children)   timeout; its callback runs children
#   ("call", delay, prio, children) schedule_call at a priority
#   ("succeed", children)          a fresh event succeeded now
#   ("cancel", delay)              a timeout tombstoned at once
#   ("gap", near, far)             near entry, then a long idle gap
#   ("sleeper", delays)            a process sleeping each delay in turn
LEAVES = st.one_of(
    st.tuples(st.just("cancel"), DELAYS),
    st.tuples(st.just("gap"), st.floats(0.0, _W), st.floats(HORIZON, 1e7)),
    st.tuples(st.just("sleeper"), st.lists(DELAYS, min_size=1, max_size=6)),
    st.tuples(st.just("timeout"), DELAYS, st.just(())),
    st.tuples(st.just("succeed"), st.just(())),
)


def _extend(children):
    kids = st.lists(children, max_size=3).map(tuple)
    return st.one_of(
        st.tuples(st.just("timeout"), DELAYS, kids),
        st.tuples(st.just("call"), DELAYS, PRIORITIES, kids),
        st.tuples(st.just("succeed"), kids),
    )


OPS = st.recursive(LEAVES, _extend, max_leaves=12)
PROGRAMS = st.tuples(
    st.lists(OPS, min_size=1, max_size=10),
    st.lists(st.floats(0.0, 5 * HORIZON), max_size=3),  # run(until=) marks
)


def _execute(program, scheduler: str):
    ops, marks = program
    sim = Simulator(scheduler=scheduler)
    log = []
    labels = iter(range(1_000_000))

    def fire(label, children):
        log.append((sim.now, label))
        for child in children:
            post(child)

    def post(op):
        label = next(labels)
        kind = op[0]
        if kind == "timeout":
            evt = sim.timeout(op[1])
            evt.callbacks.append(lambda _e, c=op[2]: fire(label, c))
        elif kind == "call":
            sim.schedule_call(op[1], lambda c=op[3]: fire(label, c), op[2])
        elif kind == "succeed":
            evt = sim.event("fuzz")
            evt.callbacks.append(lambda _e, c=op[1]: fire(label, c))
            evt.succeed()
        elif kind == "cancel":
            evt = sim.timeout(op[1])
            evt.callbacks.append(lambda _e: log.append((sim.now, "cancelled")))
            evt.cancel()
        elif kind == "gap":
            near = sim.timeout(op[1])
            near.callbacks.append(lambda _e: fire(label, ()))
            sim.schedule_call(op[2], lambda: fire(-label, ()))
        else:  # sleeper

            def sleeper(sim, delays):
                for i, delay in enumerate(delays):
                    yield sim.timeout(delay)
                    log.append((sim.now, (label, i)))

            sim.spawn(sleeper(sim, op[1]))

    for op in ops:
        post(op)
    for mark in sorted(marks):
        sim.run(until=mark)
        log.append((sim.now, "until"))
    sim.run()
    return log, sim.events_processed, sim.now


@given(PROGRAMS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_wheel_fires_in_heap_order(program):
    wheel = _execute(program, "wheel")
    assert wheel == _execute(program, "heap")
    assert all(label != "cancelled" for _t, label in wheel[0])


# -- next-to-fire elision --------------------------------------------------
#
# ``Resource.grant_inline`` skips a grant event that would fire next,
# ``Simulator.sleep_inline`` a timeout, ``Resource.hold_inline`` both.
# The property: random process mixes fire the same (time, who, step)
# trace, and end with the same resource utilizations, with the elisions
# as with ``_head`` refusing every time (the plain event path), on both
# backends.
#
# A process step is a tuple whose first field names it:
#   ("sleep", delay)             sleep (inline if the timeout would
#                                fire next)
#   ("grant", res, units, hold)  take units (inline if it would fire
#                                next), hold them (a sleep), release
#   ("hold", res, delay)         hold one unit for delay: all inline
#                                (``hold_inline``) if the sleep would
#                                fire next, else as "grant"
#   ("post", prio, n)            n fresh logged events succeeded now
#   ("wait", k)                  wait on shared event k
#   ("fire", k, prio, ncb)       give shared event k ncb logging
#                                callbacks, then succeed it at prio
# Splits run the program in pieces: ("t", time) is run(until=time),
# ("e", k) run(until=shared event k).

NSHARED = 2
# Few distinct delays, so processes meet at the same instants; a 10 ms
# sleep taken inline moves the clock past the wheel's current bucket.
SHORT = st.sampled_from((0.0, 0.0, 1.0, 2.5, _W, 3 * _W, 10_000.0))
GRANT = st.tuples(
    st.just("grant"), st.integers(0, 1), st.integers(1, 2), SHORT
)
STEPS = st.one_of(  # a repeated entry is drawn twice as often
    st.tuples(st.just("sleep"), SHORT),
    GRANT,
    GRANT,
    st.tuples(st.just("hold"), st.integers(0, 1), SHORT),
    st.tuples(st.just("post"), PRIORITIES, st.integers(1, 2)),
    st.tuples(st.just("wait"), st.integers(0, NSHARED - 1)),
    st.tuples(
        st.just("fire"), st.integers(0, NSHARED - 1), PRIORITIES,
        st.sampled_from((0, 0, 1, 2)),
    ),
)
MIXES = st.tuples(
    st.lists(st.integers(1, 2), min_size=2, max_size=2),  # capacities
    st.lists(st.lists(STEPS, min_size=1, max_size=7), min_size=1, max_size=4),
    st.lists(
        st.one_of(
            st.tuples(st.just("t"), st.sampled_from((0.0, 1.0, _W, 20.0))),
            st.tuples(st.just("e"), st.integers(0, NSHARED - 1)),
            st.tuples(st.just("e"), st.integers(0, NSHARED - 1)),
        ),
        max_size=3,
    ),
)


def _refuse(sim):
    """``_head``'s answer outside a sole resume: an URGENT entry due now."""
    return lambda: (sim.now, 0, None)


def _execute_mix(mix, scheduler: str, elide: bool):
    capacities, procs, splits = mix
    sim = Simulator(scheduler=scheduler)
    if not elide:
        sim._head = _refuse(sim)
    resources = [Resource(sim, cap) for cap in capacities]
    shared = [sim.event(f"shared{k}") for k in range(NSHARED)]
    log = []
    labels = iter(range(1_000_000))
    inline = 0

    def logged(event):
        label = next(labels)
        event.callbacks.append(lambda _e: log.append((sim.now, "cb", label)))

    def body(pid, steps):
        nonlocal inline
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "sleep":
                if sim.sleep_inline(step[1]):
                    inline += 1
                else:
                    yield sim.timeout(step[1])
            elif kind == "grant":
                res = resources[step[1]]
                units = min(step[2], res.capacity)
                if res.grant_inline(units):
                    inline += 1
                else:
                    yield res.acquire(units)
                log.append((sim.now, pid, i, "got"))
                if step[3]:
                    if sim.sleep_inline(step[3]):
                        inline += 1
                    else:
                        yield sim.timeout(step[3])
                res.release(units)
            elif kind == "hold":
                res = resources[step[1]]
                if res.can_hold_inline(sim.now + step[2]):
                    inline += 1
                    log.append((sim.now, pid, i, "got"))
                    res.hold_inline(step[2])
                else:
                    if res.grant_inline():
                        inline += 1
                    else:
                        yield res.acquire()
                    log.append((sim.now, pid, i, "got"))
                    if sim.sleep_inline(step[2]):
                        inline += 1
                    else:
                        yield sim.timeout(step[2])
                    res.release()
            elif kind == "post":
                for _ in range(step[2]):
                    evt = sim.event("post")
                    logged(evt)
                    evt.succeed(priority=step[1])
            elif kind == "wait":
                yield shared[step[1]]
            else:  # fire
                evt = shared[step[1]]
                if evt.callbacks is not None:
                    for _ in range(step[3]):
                        logged(evt)
                if not evt.triggered:
                    evt.succeed(priority=step[2])
            log.append((sim.now, pid, i))

    for pid, steps in enumerate(procs):
        sim.spawn(body(pid, steps))
    for kind, arg in splits:
        if kind == "t":
            if arg >= sim.now:
                sim.run(until=arg)
                log.append((sim.now, "until"))
        else:
            try:
                sim.run(until=shared[arg])
                log.append((sim.now, "until", arg))
            except SimulationError:
                log.append((sim.now, "dry", arg))
    sim.run()
    return (log, sim.now, [res.utilization() for res in resources]), inline


@given(MIXES)
@settings(max_examples=800, deadline=None, derandomize=True, database=None)
def test_inline_grants_fire_in_event_order(mix):
    reference, inline = _execute_mix(mix, "heap", elide=False)
    assert inline == 0  # a refusing query takes nothing inline
    for scheduler in ("heap", "wheel"):
        assert _execute_mix(mix, scheduler, elide=False) == (reference, 0)
        assert _execute_mix(mix, scheduler, elide=True)[0] == reference
