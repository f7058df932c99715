"""Blocking synchronization primitives for simulated processes.

Everything here is FIFO and deterministic.  The primitives map directly
onto kernel objects in the modelled system:

* :class:`Resource` — counted resource (CPU, DMA engines, outstanding-RDMA
  slots).  ``yield res.acquire()`` / ``res.release()``.
* :class:`Mutex` — a Resource of capacity 1; models spinlocks guarding the
  HPBD request queue and buffer pool.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``;
  models request queues between threads.
* :class:`WaitQueue` — condition-variable-style sleep/wakeup; models the
  buffer-pool allocation wait queue and kswapd wakeups.
* :class:`TokenBucket` — counted credits with blocking acquire of N;
  models the HPBD water-mark flow control.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import Event, Simulator
from .errors import SimulationError

__all__ = ["Resource", "Mutex", "Store", "WaitQueue", "TokenBucket"]


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

    def try_acquire(self, units: int = 1) -> bool:
        """Non-blocking acquire; True on success."""
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"{self.name}: cannot acquire {units} of {self.capacity}"
            )
        if not self._waiters and self._available >= units:
            self._account()
            self._available -= units
            return True
        return False

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
        # Skip waits abandoned by an interrupt — granting to them would
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


class Mutex(Resource):
    """A capacity-1 resource with lock/unlock naming."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, 1, name or "mutex")

    def lock(self) -> Event:
        return self.acquire(1)

    def unlock(self) -> None:
        self.release(1)

    @property
    def locked(self) -> bool:
        return self.in_use > 0


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (the modelled kernel queues are memory-bounded
    elsewhere, e.g. by flow-control credits).  ``get`` returns an event
    that succeeds with the oldest item.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def _pop_live_getter(self) -> "Event | None":
        while self._getters:
            evt = self._getters.popleft()
            if not evt.abandoned:
                return evt
        return None

    def put(self, item: Any) -> None:
        self.total_put += 1
        getter = self._pop_live_getter()
        if getter is not None:
            getter.succeed(item)
            return
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def put_front(self, item: Any) -> None:
        """Requeue an item at the head (used for retried requests)."""
        self.total_put += 1
        getter = self._pop_live_getter()
        if getter is not None:
            getter.succeed(item)
            return
        self._items.appendleft(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def get(self) -> Event:
        evt = Event(self.sim, name=f"{self.name}.get")
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
        self.latch = latch
        self._waiters: deque[Event] = deque()
        self._pending_token = False
        self.wakeups = 0

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        evt = Event(self.sim, name=f"{self.name}.wait")
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
        evt = Event(self.sim, name=f"{self.name}.acquire")
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
