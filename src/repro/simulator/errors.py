"""Exception types raised by the discrete-event simulation kernel.

The kernel distinguishes between *programming* errors (scheduling in the
past, resuming a dead process) and *simulation* control flow (a process
being interrupted).  Interrupts are delivered by throwing
:class:`Interrupted` into the target process generator, mirroring how a
kernel thread sees ``-EINTR``.
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


class DeadProcess(SimulationError):
    """An operation targeted a process that has already terminated."""


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    Not a :class:`SimulationError`: it is expected control flow and user
    processes are allowed (encouraged) to catch it.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class StopProcess(Exception):
    """Internal marker used to terminate a process from within a callback."""
