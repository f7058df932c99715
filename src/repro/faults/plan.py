"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is pure data: a tuple of scheduled fault events
plus optional probabilistic control-message faults, all reproducible
from a single seed.  The plan says *what goes wrong and when*; the
:class:`~repro.faults.injector.FaultInjector` drives it against a live
scenario through first-class hooks in the hpbd/nbd/net/ib layers.

Everything here is a frozen dataclass so plans embed cleanly in
:class:`~repro.config.ScenarioConfig` and hash stably under the sweep
result cache's config fingerprint.

Times are simulation microseconds, matching the simulator clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "ServerCrash",
    "ServerSlow",
    "LinkFlap",
    "LinkDegrade",
    "CreditStarve",
    "FaultEvent",
    "FaultPlan",
]


@dataclass(frozen=True)
class ServerCrash:
    """Crash a memory server (or the NBD server) at ``at`` usec.

    A crashed server silently drops every control message it receives
    and suppresses in-flight replies — exactly what a dead peer looks
    like to the client.  ``wipe=True`` (the default) clears its RamDisk,
    so even after a restart the stored pages are gone; only a
    redundancy group's surviving copies (mirror included) bring them
    back (never-written pages legitimately read back as zero pages).
    """

    at: float
    #: HPBD server index, or the string ``"nbd"`` for the NBD server.
    server: Union[int, str] = 0
    #: restart after this many usec; ``None`` means it stays down.
    down_for: float | None = None
    wipe: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time {self.at} < 0")
        if self.down_for is not None and self.down_for <= 0:
            raise ValueError(f"bad down_for {self.down_for}")


@dataclass(frozen=True)
class ServerSlow:
    """Fail-slow (*limping*) HPBD server for ``duration`` usec.

    Distinct from :class:`LinkDegrade`: the fabric stays healthy, the
    daemon itself limps.  Its RamDisk memcpy cost is scaled by
    ``service_mult`` and every request pays ``extra_rtt_usec`` of extra
    in-handler latency while holding an RDMA slot, so queue depth creeps
    up exactly like a production fail-slow node — the server never goes
    down, it just drags every tenant's tail with it.
    """

    at: float
    #: HPBD server index (fail-slow targets memory servers only).
    server: int = 0
    duration: float = 1.0
    #: memcpy/CPU service-cost multiplier (>= 1).
    service_mult: float = 4.0
    #: flat extra per-request latency inside the handler, usec.
    extra_rtt_usec: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise ValueError(f"bad slow window ({self.at}, {self.duration})")
        if self.service_mult < 1.0:
            raise ValueError(f"service_mult {self.service_mult} < 1")
        if self.extra_rtt_usec < 0:
            raise ValueError(f"extra_rtt_usec {self.extra_rtt_usec} < 0")


@dataclass(frozen=True)
class LinkFlap:
    """Take node ``node``'s port fully down for ``down_for`` usec.

    Transfers that would start while the port is down park on the
    port's up-latch and all complete (in order) once it comes back —
    the client sees a burst of timeouts followed by stale replies.
    """

    at: float
    node: str
    down_for: float

    def __post_init__(self) -> None:
        if self.at < 0 or self.down_for <= 0:
            raise ValueError(f"bad flap window ({self.at}, {self.down_for})")


@dataclass(frozen=True)
class LinkDegrade:
    """Degrade node ``node``'s port for ``duration`` usec.

    ``latency_mult`` scales per-hop latency; ``bandwidth_mult`` scales
    effective bandwidth (0.1 means one tenth the throughput).  The link
    keeps flowing — slowly — so this exercises the timeout/retry path
    without parking transfers.
    """

    at: float
    node: str
    duration: float
    latency_mult: float = 1.0
    bandwidth_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise ValueError(f"bad degrade window ({self.at}, {self.duration})")
        if self.latency_mult < 1.0:
            raise ValueError(f"latency_mult {self.latency_mult} < 1")
        if not (0.0 < self.bandwidth_mult <= 1.0):
            raise ValueError(f"bandwidth_mult {self.bandwidth_mult} not in (0, 1]")


@dataclass(frozen=True)
class CreditStarve:
    """Steal ``ntokens`` flow-control credits to HPBD server ``server``
    for ``duration`` usec, throttling the client's request pipeline."""

    at: float
    server: int = 0
    ntokens: int = 1
    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise ValueError(f"bad starve window ({self.at}, {self.duration})")
        if self.ntokens < 1:
            raise ValueError(f"bad ntokens {self.ntokens}")


FaultEvent = Union[ServerCrash, ServerSlow, LinkFlap, LinkDegrade, CreditStarve]


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of faults.

    ``events`` fire at their ``at`` times (the injector sorts them).
    ``ctrl_drop_prob`` / ``ctrl_corrupt_prob`` apply per control
    message on the IB channel (SEND/RECV) path, drawn from a
    ``random.Random(seed)`` stream — the same seed replays the exact
    same fault sequence against the same workload.
    """

    events: tuple[FaultEvent, ...] = ()
    ctrl_drop_prob: float = 0.0
    ctrl_corrupt_prob: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        for p, what in (
            (self.ctrl_drop_prob, "ctrl_drop_prob"),
            (self.ctrl_corrupt_prob, "ctrl_corrupt_prob"),
        ):
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{what} {p} not in [0, 1)")

    @property
    def probabilistic(self) -> bool:
        return self.ctrl_drop_prob > 0.0 or self.ctrl_corrupt_prob > 0.0
