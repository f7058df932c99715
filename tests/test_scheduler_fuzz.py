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

from repro.simulator import LAZY, NORMAL, URGENT, Simulator
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
