"""Generator-based discrete-event simulation kernel.

This module is the heart of the reproduction: every hardware and kernel
component (HCA, disk, kswapd, HPBD client/server threads, ...) is a
*process* — a Python generator that yields :class:`Event` objects and is
resumed when they fire.  The design follows the classic SimPy shape but is
purpose-built and dependency-free:

* time is a ``float`` in **microseconds**;
* simultaneous events fire in a deterministic ``(time, priority, seq)``
  total order, whichever scheduler backs the queue;
* events carry either a *value* (success) or an *exception* (failure) to
  the processes waiting on them;
* processes are themselves events — they trigger when the generator
  returns, which makes ``yield other_process`` a join.

Scheduler tiers (new in PR 7; select with ``Simulator(scheduler=...)`` or
the ``REPRO_SCHEDULER`` env var, default ``"wheel"``):

* ``"wheel"`` — a tiered **calendar queue**: a small sorted *current
  bucket* heap for imminent events, ``_NBUCKETS`` unsorted wheel buckets
  of ``_W`` µs each for the short-horizon timeout churn that dominates
  HPBD/NBD retransmit guards (O(1) insert, lazy per-advance cascade
  instead of a heap sift), and an *overflow heap* for events beyond the
  wheel horizon.  A min-heap of **occupied bucket ordinals** (an ordinal
  is pushed when its bucket goes from empty to non-empty) lets each
  advance jump straight to the next bucket that holds an entry, or to
  the overflow head's bucket when the wheel is empty, so idle simulated
  time costs nothing however many empty buckets it spans.  ``_W`` is a
  power of two so bucket indexing (``int(when * _INV_W)``) is exact in
  binary floating point and the bucket partition is deterministic.
* ``"heap"`` — the PR 2 binary heap, kept as the equivalence baseline.

Each backend posts through one method (``_heap_post`` / ``_wheel_post``,
bound to ``_post``) that places the entry in a single frame.  Both modes
share two fast paths that sit *in front of* the structure, so they
cannot change the firing order:

* the **owner slot**: a process that is the *sole* waiter of an event is
  stored in ``event.owner`` instead of appending a bound-method callback,
  and the drain loop resumes its generator inline (no bound-method
  allocation, no list append/iterate, no ``_resume`` frame);
* **lazy-cancellation tombstones**: :meth:`Event.cancel` just sets a
  flag; the drain loop discards tombstoned entries when they surface, so
  cancelling a retransmit guard is O(1) and never touches the structure.

One query lets components skip events whose place in the firing order
is already fixed.  While a process runs that the drain loop resumed as
the sole waiter of a callback-free event other than ``run()``'s
``until``, the loop's next act is to pop the queue head, so
:meth:`Simulator._head` (the entry it pops next) tells the process
whether an event it posts now would fire before anything else.  An event
that would fire next, with nothing posted in between, is equivalent to
running its waiter inline: ``seq`` gains a gap and every other entry
keeps its relative order.  :meth:`Simulator.fires_next`,
:meth:`Simulator.sleep_inline`, ``Resource.grant_inline``,
``Resource.hold_inline``, ``TokenBucket.grant_inline`` and the HPBD
server's poll skip build on it.

Allocation notes carried over from PR 2: callbacks are plain lists,
events use ``__slots__``, and the loop keeps free lists of ``Timeout``
and plain ``Event`` objects, recycling an event after its callbacks have
run **only when the loop holds the last reference** (checked with
``sys.getrefcount``), so any event a process or test still points at
keeps its triggered state forever.  Queue entries are slim
``(time, key, event)`` 3-tuples where ``key`` folds the priority into
the high bits of the sequence number.
"""

from __future__ import annotations

import heapq
import os
import sys
from collections.abc import Callable, Generator, Iterable
from typing import Any

from ..obs.monitors import MonitorHub
from ..obs.trace import NULL_TRACE, TraceRecorder
from .errors import (
    AlreadyTriggered,
    NonFiniteTime,
    SchedulingInPast,
    SimulationError,
)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "ProcessGen",
    "NORMAL",
    "URGENT",
    "LAZY",
]

#: Event priorities — lower fires first among simultaneous events.
URGENT = 0
NORMAL = 1
LAZY = 2

#: The type a process body must have.
ProcessGen = Generator["Event", Any, Any]

_PENDING = object()

#: Heap keys are ``(priority << _PRIO_SHIFT) + seq`` — priority dominates,
#: then FIFO insertion order.  2**52 events per run is far beyond reach.
_PRIO_SHIFT = 52
_URGENT_BASE = URGENT << _PRIO_SHIFT
_NORMAL_BASE = NORMAL << _PRIO_SHIFT
_LAZY_BASE = LAZY << _PRIO_SHIFT
#: ``run(until=<float>)`` parks a sentinel at the deadline with a key
#: above every real priority so all real events at that instant fire
#: first.
_MARKER_BASE = 3 << _PRIO_SHIFT

#: Free-list cap: recycling is a win only while the pool stays cache-warm.
_POOL_MAX = 4096

#: Calendar-queue geometry.  ``_W`` must be a power of two so
#: ``int(when * _INV_W)`` is an exact binary operation; 8 µs × 512
#: buckets gives a 4096 µs horizon that covers serialization delays,
#: RTTs and retransmit guards, with the overflow heap absorbing the rest.
_W = 8.0
_INV_W = 0.125
_NBUCKETS = 512

_INF = float("inf")
#: ``_head()``'s answer for an empty queue.
_NO_ENTRY = (_INF, 0, None)

_getrefcount = sys.getrefcount
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify


def _bad_delay(now: float, delay: float) -> SimulationError:
    """The error for a ``delay`` that does not put ``now + delay`` at a
    finite time no earlier than ``now``.  Both backends reject such
    times when they are scheduled: a NaN or infinite entry would
    otherwise order differently on the heap and the wheel."""
    if delay < 0:
        return SchedulingInPast(now, now + delay)
    return NonFiniteTime(now, now + delay)


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* exactly once, either with
    :meth:`succeed` (carrying a value) or :meth:`fail` (carrying an
    exception).  Processes wait on an event by ``yield``-ing it; plain
    callables can also be attached via :attr:`callbacks`.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "name",
        "abandoned",
        "owner",
        "cancelled",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: callbacks run (in order) when the event fires; each receives
        #: the event itself.  ``None`` once processed.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        #: set by a waiter that gave up on this event (say, when a timer
        #: won an ``any_of`` race against it) — queues treat such waits
        #: as cancelled and must not grant resources to them (see
        #: resources.py).
        self.abandoned = False
        #: the *sole-waiter* fast path: the first process to wait on a
        #: callback-free event is stored here instead of appending a
        #: bound-method callback; the drain loop resumes it inline.  It
        #: always fires before :attr:`callbacks`, preserving waiter
        #: arrival order.
        self.owner: Process | None = None
        #: lazy-cancellation tombstone — see :meth:`cancel`.
        self.cancelled = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire *now* with ``value``."""
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._post(sim.now, (priority << _PRIO_SHIFT) + sim._seq, self)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire *now*, raising ``exc`` in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        sim._post(sim.now, (priority << _PRIO_SHIFT) + sim._seq, self)
        return self

    def cancel(self) -> None:
        """Tombstone the event: it will be silently discarded, not fired.

        O(1) and structure-free: the entry stays wherever it sits in the
        calendar/heap and is dropped (and recycled) when it surfaces in
        the drain loop, without advancing the clock or running callbacks.
        Cancelling an already-processed event is a no-op, so the
        ``any_of`` loser-timer pattern needs no state check at the call
        site.  An event a process is blocked on cannot be cancelled —
        that would strand the generator forever.
        """
        if self.owner is not None:
            raise SimulationError(
                f"cannot cancel {self!r}: a process is waiting on it"
            )
        if self.callbacks is None:
            return
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        label = self.name or type(self).__name__
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires after a fixed delay.  Created pre-triggered.

    The name is the constant ``"timeout"`` (not an interpolated string):
    formatting the delay per instance dominated the allocation cost of
    the hottest path in the whole kernel.  ``delay`` carries the number.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        priority: int = NORMAL,
    ) -> None:
        when = sim.now + delay
        if not (delay >= 0.0 and when < _INF):
            raise _bad_delay(sim.now, delay)
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._ok = True
        self._value = value
        sim._seq += 1
        sim._post(when, (priority << _PRIO_SHIFT) + sim._seq, self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with ``event.value``; when it
    fails, the exception is thrown into the generator.  ``return value``
    inside the generator becomes the process's own event value, so other
    processes can ``result = yield proc``.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        if not hasattr(gen, "throw"):
            raise TypeError(
                f"Process body must be a generator, got {type(gen).__name__}"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # Kick-off: an urgent pre-triggered event owned by this process
        # (drawn from the free list when one is available); the drain
        # loop's owner path performs the first resume.
        init = sim._internal_event("init", True, None)
        init.owner = self
        sim._seq += 1
        sim._post(sim.now, _URGENT_BASE + sim._seq, init)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    # -- internals -------------------------------------------------------

    def _resume(self, evt: Event) -> None:
        """Resume the generator with ``evt``'s outcome: the callback path,
        for a process that waits on ``evt`` behind its owner."""
        sim = self.sim
        prev, sim.active_process = sim.active_process, self
        try:
            if evt._ok:
                target = self._gen.send(evt._value)
            else:
                target = self._gen.throw(evt._value)
        except BaseException as exc:
            sim.active_process = prev
            self._terminate(exc)
            return
        sim.active_process = prev
        self._arm(target)

    def _terminate(self, exc: BaseException) -> None:
        """Finish the process after its generator raised ``exc``.

        Called from the ``except`` arm of a resume (here and in the
        drain loop's inline-resume path); re-raises in strict mode with
        the original traceback.
        """
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        else:
            self.fail(exc)
            if self.sim.strict:
                raise

    def _arm(self, target: Any) -> None:
        """Block this process on ``target`` (the event it just yielded)."""
        sim = self.sim
        if not isinstance(target, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            self._gen.close()
            self.fail(err)
            if sim.strict:
                raise err
            return
        if target.callbacks is None:
            # Already processed: resume immediately-but-not-recursively via
            # an urgent zero-delay relay event to keep the stack flat.  The
            # relay never escapes this module, so it is drawn from (and
            # returns to) the free list; the owner slot carries the waiter.
            relay = sim._internal_event("relay", target._ok, target._value)
            relay.owner = self
            sim._seq += 1
            sim._post(sim.now, _URGENT_BASE + sim._seq, relay)
        elif target.owner is None and not target.callbacks:
            if target.cancelled:
                raise SimulationError(
                    f"process {self.name!r} yielded cancelled event {target!r}"
                )
            target.owner = self
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop: a clock plus a tiered calendar queue of events.

    ``strict`` (default True) re-raises exceptions escaping process
    bodies, which turns silent process deaths into test failures — per
    the guides' "make it work reliably" rule.

    ``scheduler`` selects the queue backend: ``"wheel"`` (tiered
    calendar queue, the default) or ``"heap"`` (the PR 2 binary heap,
    kept as the equivalence baseline).  ``None`` defers to the
    ``REPRO_SCHEDULER`` environment variable, so sweep workers and the
    equivalence harness can switch modes without plumbing.  Both modes
    fire events in the identical ``(time, priority, seq)`` total order.
    """

    def __init__(self, strict: bool = True, scheduler: str | None = None) -> None:
        self.now: float = 0.0
        self.strict = strict
        self.active_process: Process | None = None
        self._seq = 0
        self._event_count = 0
        # -- heap backend ------------------------------------------------
        self._heap: list[tuple[float, int, Event]] = []
        # -- wheel backend -----------------------------------------------
        #: sorted current bucket: every queued entry with when < _cur_end.
        self._cur: list[tuple[float, int, Event]] = []
        #: unsorted wheel buckets for [_cur_end, _horizon), indexed by
        #: bucket ordinal modulo _NBUCKETS; bucket ordinal ``g`` covers
        #: [g*_W, (g+1)*_W).
        self._buckets: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(_NBUCKETS)
        ]
        #: min-heap of the ordinals of the non-empty wheel buckets, each
        #: exactly once (pushed when a bucket goes from empty to
        #: non-empty, popped when the advance empties it into _cur).
        self._occupied: list[int] = []
        #: overflow heap for entries at or beyond the wheel horizon.
        self._far: list[tuple[float, int, Event]] = []
        self._cur_end = _W
        self._horizon = _NBUCKETS * _W
        #: True exactly while a process runs that the drain loop resumed
        #: as the sole waiter of a callback-free event other than
        #: ``run()``'s ``until`` — when ``_head`` is the next pop.
        self._sole = False
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SCHEDULER", "wheel")
        if scheduler == "wheel":
            self._post = self._wheel_post
            self._pop = self._wheel_pop
            self._head = self._wheel_head
        elif scheduler == "heap":
            self._post = self._heap_post
            self._pop = self._heap_pop
            self._head = self._heap_head
        else:
            raise ValueError(
                f"unknown scheduler {scheduler!r} (expected 'wheel' or 'heap')"
            )
        self.scheduler = scheduler
        #: free lists of recycled one-shot events (exact types only);
        #: repopulated by the run loop when it held the last reference.
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        #: cross-layer span recorder (repro.obs); the shared null
        #: recorder by default, so instrument sites cost one attribute
        #: load and an ``enabled`` check unless tracing is switched on.
        self.trace = NULL_TRACE
        #: runtime invariant monitors (repro.obs.monitors); components
        #: report conservation checks here as the simulation runs.
        self.monitors = MonitorHub(self)

    def enable_tracing(self) -> TraceRecorder:
        """Attach (or return) a live TraceRecorder bound to this clock."""
        if not self.trace.enabled:
            self.trace = TraceRecorder(clock=lambda: self.now)
        return self.trace

    # -- queue backends ---------------------------------------------------

    def _heap_post(self, when: float, key: int, event: Event) -> None:
        """Queue an entry on the heap backend."""
        _heappush(self._heap, (when, key, event))

    def _heap_pop(self) -> "tuple[float, int, Event] | None":
        heap = self._heap
        return _heappop(heap) if heap else None

    def _wheel_post(self, when: float, key: int, event: Event) -> None:
        """Queue an entry on the calendar: current bucket, wheel bucket
        or overflow heap."""
        if when < self._cur_end:
            _heappush(self._cur, (when, key, event))
        elif when < self._horizon:
            g = int(when * _INV_W)
            bucket = self._buckets[g % _NBUCKETS]
            if not bucket:
                _heappush(self._occupied, g)
            bucket.append((when, key, event))
        else:
            _heappush(self._far, (when, key, event))

    def _wheel_pop(self) -> "tuple[float, int, Event] | None":
        cur = self._cur
        if not cur:
            # Advance in one jump to the earliest occupied bucket.  Every
            # wheel bucket lies below the horizon and every overflow
            # entry at or beyond it, so the overflow head's bucket is
            # the target only when the wheel is empty.
            occupied = self._occupied
            far = self._far
            if occupied:
                gb = _heappop(occupied)
            elif far:
                gb = int(far[0][0] * _INV_W)
            else:
                return None
            cur_end = (gb + 1) * _W
            self._cur_end = cur_end
            horizon = (gb + _NBUCKETS) * _W
            self._horizon = horizon
            buckets = self._buckets
            slot = gb % _NBUCKETS
            filled = buckets[slot]
            if filled:
                # Swap lists: the (empty) current bucket becomes the
                # wheel slot, the filled slot becomes the current bucket.
                buckets[slot] = cur
                self._cur = cur = filled
            while far and far[0][0] < horizon:
                entry = _heappop(far)
                when = entry[0]
                if when < cur_end:
                    cur.append(entry)
                else:
                    g = int(when * _INV_W)
                    bucket = buckets[g % _NBUCKETS]
                    if not bucket:
                        _heappush(occupied, g)
                    bucket.append(entry)
            _heapify(cur)
        return _heappop(cur)

    # -- the next-pop query -------------------------------------------------

    # ``_head()`` (bound to the backend's variant) returns the
    # ``(time, key, event)`` entry the drain loop pops next — tombstones
    # included, so a caller may under-skip but never over-skip — or
    # ``_NO_ENTRY`` when the queue is empty.  Outside a ``_sole`` resume
    # the loop may run other code first (the resumed event's remaining
    # callbacks, or the caller of ``run()``), so the answer is then
    # "an URGENT entry is due now", which sends every caller down its
    # posting path.

    def _heap_head(self) -> "tuple[float, int, Event | None]":
        if not self._sole:
            return (self.now, _URGENT_BASE, None)
        heap = self._heap
        return heap[0] if heap else _NO_ENTRY

    def _wheel_head(self) -> "tuple[float, int, Event | None]":
        if not self._sole:
            return (self.now, _URGENT_BASE, None)
        if self._cur:
            return self._cur[0]
        # _cur can be empty while entries due now sit in a wheel bucket:
        # an inline sleep may have moved the clock past _cur_end.  Every
        # bucket entry lies below every overflow entry.
        if self._occupied:
            return min(self._buckets[self._occupied[0] % _NBUCKETS])
        far = self._far
        return far[0] if far else _NO_ENTRY

    # -- factory helpers -------------------------------------------------

    # Pool invariants (kept by every recycle site so the reinit paths
    # below can skip stores): a pooled event has ``callbacks == []``
    # (the original list, cleared and restored — no per-reuse alloc),
    # ``owner is None``, ``cancelled is False``; a pooled Timeout
    # additionally has ``_ok is True`` (timeouts never fail) and its
    # stale ``abandoned`` flag is never read (only resource queues read
    # ``abandoned``, and only on their own plain waiter events).

    def event(self, name: str = "") -> Event:
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt._value = _PENDING
            evt._ok = None
            evt.abandoned = False
            evt.name = name
            return evt
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        when = self.now + delay
        if pool and delay >= 0.0 and when < _INF:
            to = pool.pop()
            to._value = value
            to.delay = delay
            self._seq += 1
            self._post(when, _NORMAL_BASE + self._seq, to)
            return to
        return Timeout(self, delay, value)

    def fires_next(self, when: float) -> bool:
        """True when a timeout posted now for ``when``, at NORMAL
        priority, would be the next event to fire: the queue head (see
        ``_head``) is later than ``when``, or due at ``when`` at LAZY
        priority or as ``run()``'s deadline marker.

        The answer also covers every grant and sleep that ends by
        ``when`` in the same resume, as long as nothing is posted
        before them: each would sort before that timeout.
        """
        head, key, _event = self._head()
        return head > when or (head == when and key >= _LAZY_BASE)

    def sleep_inline(self, delay: float) -> bool:
        """Advance the clock by ``delay`` without an event, or return False.

        Succeeds only when the timeout :meth:`timeout` would post would
        be the next event to fire (:meth:`fires_next`).  The clock then
        moves to exactly the time the timeout would have fired at, and
        the caller continues where it would have resumed.  On False,
        yield ``timeout(delay)`` as usual.  A bad ``delay`` raises as
        :meth:`timeout` does.
        """
        when = self.now + delay
        if not (delay >= 0.0 and when < _INF):
            raise _bad_delay(self.now, delay)
        if not self.fires_next(when):
            return False
        self.now = when
        return True

    def timeout_at(self, when: float) -> Timeout:
        """A timeout that fires at the absolute time ``when`` (>= now).

        Exact where ``timeout(when - now)`` is not: in binary floating
        point ``now + (when - now)`` need not equal ``when``.
        """
        delay = when - self.now
        if not (delay >= 0.0 and when < _INF):
            raise _bad_delay(self.now, delay)
        pool = self._timeout_pool
        if pool:
            to = pool.pop()
            to._value = None
        else:
            to = Timeout.__new__(Timeout)
            Event.__init__(to, self, "timeout")
            to._ok = True
            to._value = None
        to.delay = delay
        self._seq += 1
        self._post(when, _NORMAL_BASE + self._seq, to)
        return to

    def _internal_event(self, name: str, ok: bool, value: Any) -> Event:
        """A pre-triggered internal event (init/relay), pooled.

        The caller is responsible for queueing it and for setting
        ``owner`` to the process it resumes.
        """
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt.abandoned = False
            evt.name = name
        else:
            evt = Event(self, name)
        evt._ok = ok
        evt._value = value
        return evt

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        return Process(self, gen, name)

    # -- scheduling -------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        when = self.now + delay
        if not (delay >= 0.0 and when < _INF):
            raise _bad_delay(self.now, delay)
        self._seq += 1
        self._post(when, (priority << _PRIO_SHIFT) + self._seq, event)

    def schedule_call(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> Event:
        """Run a plain callable after ``delay`` (no process needed)."""
        evt = self.event("call")
        evt.callbacks.append(lambda _e: fn())
        evt._ok = True
        evt._value = None
        self._enqueue(evt, delay, priority)
        return evt

    # -- running ----------------------------------------------------------

    @property
    def events_processed(self) -> int:
        return self._event_count

    def peek(self) -> float:
        """Time of the next *live* event, or ``inf`` if the queue is empty.

        Rarely called (tests and diagnostics), so the wheel variant may
        scan its buckets rather than keep them sorted.
        """
        best = float("inf")
        for entry in self._heap:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        for entry in self._cur:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        for bucket in self._buckets:
            for entry in bucket:
                if entry[0] < best and not entry[2].cancelled:
                    best = entry[0]
        for entry in self._far:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        return best

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — advance the clock exactly to that time.
        * ``until=<Event>`` — run until that event is processed and return
          its value (raising it if the event failed).
        """
        if until is None:
            self._drain(None)
            return None

        if isinstance(until, Event):
            if until.processed:
                if not until._ok:
                    raise until._value
                return until._value
            self._drain(until)
            if until.callbacks is not None:
                raise SimulationError(
                    f"simulation ran dry before {until!r} triggered"
                )
            if not until._ok:
                raise until._value
            return until._value

        deadline = float(until)
        if not deadline < _INF:
            raise NonFiniteTime(self.now, deadline)
        if deadline < self.now:
            raise SchedulingInPast(self.now, deadline)
        # A sentinel with a key above every real priority: all real
        # events at the deadline instant fire first, then the sentinel
        # stops the drain.  It is built directly (not pooled) so the
        # free lists never see it, and un-counted below.
        marker = Event(self, "deadline")
        marker._ok = True
        marker._value = None
        self._seq += 1
        self._post(deadline, _MARKER_BASE + self._seq, marker)
        self._drain(marker)
        self._event_count -= 1
        self.now = deadline
        return None

    def _drain(self, until: "Event | None") -> None:
        """The inner event loop: pop → resume owner / fire callbacks → recycle.

        Stops when the queue empties or ``until`` has been processed.
        The owner-slot generator resume and pooling are inlined: one
        method call per event is measurable at tens of millions of
        events per run.
        """
        getrc = _getrefcount
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pop = self._pop
        count = 0
        try:
            while True:
                entry = pop()
                if entry is None:
                    return
                when, _key, event = entry
                entry = None
                if event.cancelled:
                    # Tombstone: drop without firing, counting, or
                    # advancing the clock; recycle when unreferenced.
                    cbs = event.callbacks
                    event.callbacks = None
                    event.owner = None
                    event.cancelled = False
                    cls = event.__class__
                    if cls is Timeout:
                        if getrc(event) == 2 and len(timeout_pool) < _POOL_MAX:
                            if cbs:
                                cbs.clear()
                            event.callbacks = cbs
                            timeout_pool.append(event)
                    elif cls is Event:
                        if getrc(event) == 2 and len(event_pool) < _POOL_MAX:
                            if cbs:
                                cbs.clear()
                            event.callbacks = cbs
                            event_pool.append(event)
                    continue
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                count += 1
                owner = event.owner
                if owner is not None:
                    # Inline sole-waiter resume: the body of
                    # Process._resume minus the frames and the
                    # bound-method allocation.
                    event.owner = None
                    gen = owner._gen
                    prev = self.active_process
                    self.active_process = owner
                    self._sole = not callbacks and event is not until
                    try:
                        if event._ok:
                            target = gen.send(event._value)
                        else:
                            target = gen.throw(event._value)
                    except BaseException as exc:
                        self.active_process = prev
                        self._sole = False
                        owner._terminate(exc)
                    else:
                        self.active_process = prev
                        self._sole = False
                        if target.__class__ is Timeout:
                            tcb = target.callbacks
                            if (
                                tcb is not None
                                and not tcb
                                and target.owner is None
                                and not target.cancelled
                            ):
                                # Fresh timeout, no other waiters: take
                                # the owner slot without touching _arm.
                                target.owner = owner
                            else:
                                owner._arm(target)
                        else:
                            owner._arm(target)
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if event is until:
                    return
                # Inline recycle: two references mean only the loop
                # local (+ getrefcount's argument slot) is left.  The
                # (cleared) callback list is handed back so the next
                # reuse skips the alloc.
                cls = event.__class__
                if cls is Timeout:
                    if getrc(event) == 2 and len(timeout_pool) < _POOL_MAX:
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                elif cls is Event:
                    if getrc(event) == 2 and len(event_pool) < _POOL_MAX:
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        event_pool.append(event)
        finally:
            self._event_count += count

    def run_all(self, procs: Iterable[Process]) -> list[Any]:
        """Run until every process in ``procs`` has finished."""
        out = []
        for proc in procs:
            out.append(self.run(until=proc))
        return out
