"""Blocking synchronization primitives for simulated processes.

Everything here is FIFO and deterministic.  The primitives map directly
onto kernel objects in the modelled system:

* :class:`Resource` — counted resource (CPU, DMA engines, outstanding-RDMA
  slots).  ``yield res.acquire()`` / ``res.release()``; hot callers try
  ``res.grant_inline()`` first and yield ``acquire()`` only when it
  refuses, and a hold whose grant and sleep would both fire next goes
  through ``hold_inline()`` with no event at all.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``;
  models request queues between threads.
* :class:`WaitQueue` — condition-variable-style sleep/wakeup; models the
  buffer-pool allocation wait queue and kswapd wakeups.
* :class:`TokenBucket` — counted credits with blocking acquire of N;
  models the HPBD water-mark flow control.  Its hot caller tries
  ``grant_inline(n)`` first, as for a Resource.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import _LAZY_BASE, Event, Simulator
from .errors import SimulationError

__all__ = ["Resource", "Store", "WaitQueue", "TokenBucket"]


def _grant_fires_next(sim: Simulator) -> bool:
    """True when a grant event succeeded now at NORMAL priority would be
    the next event to fire: the queue head is not due now at URGENT or
    NORMAL priority (see ``Simulator._head``)."""
    when, key, _event = sim._head()
    return when > sim.now or key >= _LAZY_BASE


class Resource:
    """A counted, FIFO-fair resource.

    ``capacity`` units exist; ``acquire(n)`` returns an event that succeeds
    once ``n`` units could be handed over.  Units are fungible — there is
    no per-unit identity.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or f"resource({capacity})"
        self._acquire_name = f"{self.name}.acquire"
        self._available = capacity
        self._waiters: deque[tuple[Event, int]] = deque()
        # occupancy statistics (time-weighted)
        self._busy_area = 0.0
        self._last_change = sim.now

    # -- stats -----------------------------------------------------------

    @property
    def available(self) -> int:
        return self._available

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since t=0."""
        self._account()
        if self.sim.now <= 0:
            return 0.0
        return self._busy_area / (self.sim.now * self.capacity)

    def _account(self) -> None:
        dt = self.sim.now - self._last_change
        if dt > 0:
            self._busy_area += dt * self.in_use
            self._last_change = self.sim.now

    # -- operations --------------------------------------------------------

    def acquire(self, units: int = 1) -> Event:
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"{self.name}: cannot acquire {units} of {self.capacity}"
            )
        self._account()
        evt = self.sim.event(self._acquire_name)
        if not self._waiters and self._available >= units:
            self._available -= units
            evt.succeed(units)
        else:
            self._waiters.append((evt, units))
        return evt

    def grant_inline(self, units: int = 1) -> bool:
        """Take ``units`` without an event, or return False.

        Succeeds only when :meth:`acquire` would grant at once *and* its
        grant event, succeeded now at NORMAL priority, would be the next
        event to fire (the queue head is not due now at URGENT or NORMAL
        priority; see ``Simulator._head``).  The caller then continues
        exactly where the grant would have resumed it.  On False, yield
        ``acquire(units)`` as usual.
        """
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"{self.name}: cannot acquire {units} of {self.capacity}"
            )
        if (
            self._waiters
            or self._available < units
            or not _grant_fires_next(self.sim)
        ):
            return False
        self._account()
        self._available -= units
        return True

    def can_hold_inline(self, end: float) -> bool:
        """True when holding one unit from now until ``end`` would take
        its grant and its sleep inline: :meth:`acquire` would grant at
        once and a timeout at ``end`` would fire next
        (``Simulator.fires_next``), so the grant event, due now, would
        fire before it.  Then :meth:`hold_inline` does the hold."""
        return (
            not self._waiters
            and self._available >= 1
            and self.sim.fires_next(end)
        )

    def hold_inline(self, delay: float) -> None:
        """Take one unit, move the clock ``delay`` on and give it back,
        with no event: what :meth:`grant_inline`,
        ``Simulator.sleep_inline(delay)`` and :meth:`release` do when
        the grant and the sleep both go inline.  Only valid where
        :meth:`can_hold_inline` holds for ``now + delay``: then nobody
        waits for the unit at the release either.

        The two ``_account()`` calls are unrolled, with the same
        floats: the grant's, then the release's over the hold."""
        sim = self.sim
        start = sim.now
        in_use = self.capacity - self._available
        dt = start - self._last_change
        if dt > 0:
            self._busy_area += dt * in_use
            self._last_change = start
        end = sim.now = start + delay
        dt = end - start
        if dt > 0:
            self._busy_area += dt * (in_use + 1)
            self._last_change = end

    def release(self, units: int = 1) -> None:
        self._account()
        self._available += units
        if self._available > self.capacity:
            self.sim.monitors.violation(
                "resource.over_release", self.name,
                "released more units than acquired",
                available=self._available, capacity=self.capacity,
            )
            raise SimulationError(
                f"{self.name}: released more than acquired "
                f"({self._available}/{self.capacity})"
            )
        # FIFO hand-off: only the head may proceed (no barging).
        # Skip waits their waiter abandoned — granting to them would
        # leak capacity forever.
        while self._waiters:
            if self._waiters[0][0].abandoned:
                self._waiters.popleft()
                continue
            if self._available < self._waiters[0][1]:
                break
            evt, n = self._waiters.popleft()
            self._available -= n
            evt.succeed(n)


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (the modelled kernel queues are memory-bounded
    elsewhere, e.g. by flow-control credits).  ``get`` returns an event
    that succeeds with the oldest item.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self._get_name = f"{self.name}.get"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_put += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.abandoned:
                getter.succeed(item)
                return
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def get(self) -> Event:
        evt = self.sim.event(self._get_name)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> Any | None:
        return self._items.popleft() if self._items else None

    def drain(self) -> list[Any]:
        """Remove and return all queued items (receiver burst processing)."""
        out = list(self._items)
        self._items.clear()
        return out


class WaitQueue:
    """Condition-variable-style sleep/wakeup (kernel ``wait_queue_head_t``).

    ``wait()`` returns an event the caller yields on; ``wake_one`` /
    ``wake_all`` succeed the oldest / all pending waits.  Wakeups with no
    waiters are remembered as a single pending token if ``latch=True``
    (edge-triggered completion-event semantics, used for CQ event
    notification where an event arriving while the receiver is processing
    must not be lost).
    """

    def __init__(self, sim: Simulator, name: str = "", latch: bool = False) -> None:
        self.sim = sim
        self.name = name or "waitqueue"
        self._wait_name = f"{self.name}.wait"
        self.latch = latch
        self._waiters: deque[Event] = deque()
        self._pending_token = False
        self.wakeups = 0

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        evt = self.sim.event(self._wait_name)
        if self.latch and self._pending_token:
            self._pending_token = False
            evt.succeed(None)
            return evt
        self._waiters.append(evt)
        return evt

    def wake_one(self, value: Any = None) -> bool:
        """Wake the oldest waiter.  Returns True if someone was woken."""
        self.wakeups += 1
        while self._waiters:
            evt = self._waiters.popleft()
            if evt.abandoned:
                continue
            evt.succeed(value)
            return True
        if self.latch:
            self._pending_token = True
        return False

    def wake_all(self, value: Any = None) -> int:
        """Wake every waiter; returns the number woken."""
        self.wakeups += 1
        n = 0
        while self._waiters:
            evt = self._waiters.popleft()
            if evt.abandoned:
                continue
            evt.succeed(value)
            n += 1
        if n == 0 and self.latch:
            self._pending_token = True
        return n


class TokenBucket:
    """Counted credits with blocking acquisition (HPBD flow control).

    The client may send a request only while outstanding requests are
    below the water-mark; otherwise the request queues until replies
    return credits.  ``acquire(n)`` blocks FIFO until ``n`` credits are
    simultaneously available.
    """

    def __init__(self, sim: Simulator, tokens: int, name: str = "") -> None:
        if tokens < 1:
            raise ValueError("token bucket needs at least one token")
        self.sim = sim
        self.name = name or f"credits({tokens})"
        self._acquire_name = f"{self.name}.acquire"
        self.capacity = tokens
        self._tokens = tokens
        self._waiters: deque[tuple[Event, int]] = deque()
        self.stall_count = 0  # acquisitions that had to wait

    @property
    def tokens(self) -> int:
        return self._tokens

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self, n: int = 1) -> Event:
        if n < 1 or n > self.capacity:
            raise ValueError(f"{self.name}: bad credit count {n}")
        evt = self.sim.event(self._acquire_name)
        if not self._waiters and self._tokens >= n:
            self._tokens -= n
            if self._tokens < 0:
                # Unreachable through acquire() itself; guards against
                # future code poking _tokens directly.
                self.sim.monitors.violation(
                    "credits.negative", self.name,
                    "credit count went negative",
                    tokens=self._tokens,
                )
            evt.succeed(n)
        else:
            self.stall_count += 1
            self._waiters.append((evt, n))
        return evt

    def grant_inline(self, n: int = 1) -> bool:
        """Take ``n`` credits without an event, or return False.

        The rule of :meth:`Resource.grant_inline`: only when
        :meth:`acquire` would grant at once and its grant event would
        fire next.  On False, yield ``acquire(n)`` as usual.
        """
        if n < 1 or n > self.capacity:
            raise ValueError(f"{self.name}: bad credit count {n}")
        if self._waiters or self._tokens < n or not _grant_fires_next(self.sim):
            return False
        self._tokens -= n
        return True

    def release(self, n: int = 1) -> None:
        self._tokens += n
        if self._tokens > self.capacity:
            self.sim.monitors.violation(
                "credits.overflow", self.name,
                "more credits released than the water-mark",
                tokens=self._tokens, capacity=self.capacity,
            )
            raise SimulationError(
                f"{self.name}: credit overflow ({self._tokens}/{self.capacity})"
            )
        while self._waiters:
            if self._waiters[0][0].abandoned:
                self._waiters.popleft()
                continue
            if self._tokens < self._waiters[0][1]:
                break
            evt, want = self._waiters.popleft()
            self._tokens -= want
            evt.succeed(want)
