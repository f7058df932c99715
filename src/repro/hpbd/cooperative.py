"""Cooperative cluster-wide idle memory (the paper's §7 future work).

"In our future work, we plan to ... enable HPBD to utilize cluster wise
idle memory in a dynamic and cooperative manner."

This module implements the natural design on top of the existing pieces:

* every node in the cluster runs a tiny **advertisement agent** that
  publishes how much memory it could lend (its free memory minus a
  self-reserve);
* a :class:`MemoryBroker` collects advertisements and, when a client
  wants ``total_bytes`` of remote swap, **selects the servers with the
  most idle memory** (the memory-ushering idea the paper cites from
  MOSIX [2]) and sizes each server's share to what it advertised —
  chunks are therefore *unequal*, unlike the static blocking layout;
* :func:`lender_chunk_map` lays the device out over the grants as a
  :class:`~repro.hpbd.striping.ChunkMapDistribution` with one contiguous
  extent per lender, preserving the paper's non-striped blocking
  property.

Lending is capacity-reserving: a server that lends memory shrinks its
advertisement so later clients see the truth.  Fully dynamic *revocation*
(a lender wanting its memory back mid-run) would need page migration
between servers — out of scope here as it was for the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulator import SimulationError, Simulator
from ..units import MiB, PAGE_SIZE
from .striping import Chunk, ChunkMapDistribution

__all__ = ["Advertisement", "MemoryBroker", "lender_chunk_map"]


@dataclass
class Advertisement:
    """One node's published lendable memory."""

    node: str
    idle_bytes: int
    updated_at: float

    def __post_init__(self) -> None:
        if self.idle_bytes < 0:
            raise ValueError(f"negative idle memory for {self.node}")


def lender_chunk_map(shares: list[int]) -> ChunkMapDistribution:
    """Blocking layout with per-server chunk sizes: server *i* (in grant
    order) holds one extent of ``shares[i]`` bytes, starting at the
    running sum of the earlier shares."""
    chunks: list[Chunk] = []
    start = 0
    for server, nbytes in enumerate(shares):
        chunks.append(Chunk(start, nbytes, server, 0))
        start += nbytes
    return ChunkMapDistribution(start, len(shares), chunks)


class MemoryBroker:
    """Cluster-wide registry of lendable memory."""

    def __init__(self, sim: Simulator, self_reserve_bytes: int = 64 * MiB) -> None:
        self.sim = sim
        self.self_reserve_bytes = self_reserve_bytes
        self._ads: dict[str, Advertisement] = {}
        self.grants: list[tuple[str, int]] = []  # audit trail

    # -- advertisement side -------------------------------------------------

    def advertise(self, node: str, free_bytes: int) -> Advertisement:
        """Publish a node's current lendable memory."""
        idle = max(0, free_bytes - self.self_reserve_bytes)
        idle = (idle // PAGE_SIZE) * PAGE_SIZE
        ad = Advertisement(node=node, idle_bytes=idle, updated_at=self.sim.now)
        self._ads[node] = ad
        return ad

    def withdraw(self, node: str) -> None:
        self._ads.pop(node, None)

    def idle_of(self, node: str) -> int:
        ad = self._ads.get(node)
        return ad.idle_bytes if ad is not None else 0

    @property
    def total_idle(self) -> int:
        return sum(ad.idle_bytes for ad in self._ads.values())

    def snapshot(self) -> list[Advertisement]:
        return sorted(
            self._ads.values(), key=lambda a: (-a.idle_bytes, a.node)
        )

    # -- allocation -----------------------------------------------------------

    def select_servers(
        self, total_bytes: int, max_servers: int = 8
    ) -> list[tuple[str, int]]:
        """Pick lenders for ``total_bytes``, richest-first (memory
        ushering).  Returns ``(node, share_bytes)`` pairs and *reserves*
        the granted memory (later callers see reduced advertisements).

        Raises :class:`SimulationError` if the cluster cannot cover the
        request within ``max_servers`` lenders.
        """
        if total_bytes <= 0 or total_bytes % PAGE_SIZE:
            raise ValueError(f"bad request size {total_bytes}")
        remaining = total_bytes
        chosen: list[tuple[str, int]] = []
        for ad in self.snapshot():
            if remaining <= 0 or len(chosen) >= max_servers:
                break
            if ad.idle_bytes <= 0:
                continue
            take = min(ad.idle_bytes, remaining)
            chosen.append((ad.node, take))
            remaining -= take
        if remaining > 0:
            raise SimulationError(
                f"cluster cannot lend {total_bytes} bytes "
                f"({remaining} short within {max_servers} lenders)"
            )
        # Commit the reservations.
        for node, take in chosen:
            ad = self._ads[node]
            ad.idle_bytes -= take
            ad.updated_at = self.sim.now
            self.grants.append((node, take))
        return chosen

    def release(self, node: str, nbytes: int) -> None:
        """Return previously granted memory to a lender's pool."""
        ad = self._ads.get(node)
        if ad is None:
            return
        ad.idle_bytes += nbytes
        ad.updated_at = self.sim.now
