"""Exception types raised by the discrete-event simulation kernel.

Each marks a misuse of the kernel or a run that cannot go on
(scheduling in the past or at a non-finite time, triggering an event
twice, running dry before an awaited event).  Simulated failures are
not among them: they travel as ordinary exceptions carried by failed
events.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level simulation errors."""


class SchedulingInPast(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule at t={when} (now t={now})")
        self.now = now
        self.when = when


class NonFiniteTime(SimulationError):
    """An event was scheduled at an infinite or NaN time."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule at non-finite t={when} (now t={now})")
        self.now = now
        self.when = when


class AlreadyTriggered(SimulationError):
    """An event was triggered (succeeded or failed) more than once."""

