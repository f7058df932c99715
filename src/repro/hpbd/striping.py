"""Multi-server layout: every HPBD layout is a chunk map (§4.2.5).

The paper rejects striping (the 128 KiB request bound and the high IB
bandwidth make it not worth the extra memcpy/multiplexing) and instead
"distribute[s] the swap area across the servers in a blocking pattern":
server *i* owns the contiguous byte range ``[i*chunk, (i+1)*chunk)``.

A block request can still straddle a chunk boundary, in which case it is
split into *physical requests*, one per server — §5: "A single request
in the queue may represent multiple physical requests to different
servers depending on the address range and size of the request."

:func:`blocking_chunks` lays that pattern out, :func:`striped_chunks`
the rejected alternative, and cluster placement or the cooperative
broker hand out their own chunk lists; :class:`ChunkMapDistribution`
routes all of them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

__all__ = [
    "Segment",
    "Chunk",
    "ChunkMapDistribution",
    "blocking_chunks",
    "striped_chunks",
    "group_chunk_maps",
]


@dataclass(frozen=True)
class Segment:
    """One server's share of a byte extent."""

    server: int
    server_offset: int  # bytes into the server's own store
    nbytes: int


@dataclass(frozen=True)
class Chunk:
    """One contiguous device extent placed on one server.

    ``server_offset`` is relative to the *client's area* on that server
    (the server relocates it by the registered area base), exactly like
    :class:`Segment`.  A chunk map is what a cluster placement policy
    hands the driver.
    """

    start: int  # device byte offset
    nbytes: int
    server: int
    server_offset: int

    @property
    def end(self) -> int:
        return self.start + self.nbytes


def blocking_chunks(total_bytes: int, nservers: int) -> list[Chunk]:
    """The paper's layout: server *i* owns device bytes
    ``[i*share, (i+1)*share)`` at the start of its store."""
    if nservers < 1:
        raise ValueError(f"need at least one server, got {nservers}")
    if total_bytes % nservers:
        raise ValueError(
            f"total size {total_bytes} not divisible by {nservers} servers"
        )
    share = total_bytes // nservers
    return [Chunk(i * share, share, i, 0) for i in range(nservers)]


def striped_chunks(
    total_bytes: int, nservers: int, stripe_bytes: int
) -> list[Chunk]:
    """Round-robin striping — the alternative §4.2.5 *rejects*.

    Kept for the ablation benchmark: with stripes smaller than a block
    request, every request splits into one physical request per stripe
    touched, multiplying control messages and per-request overhead —
    which is exactly why the paper chose the blocking pattern under the
    128 KiB request bound.
    """
    if nservers < 1:
        raise ValueError(f"need at least one server, got {nservers}")
    if stripe_bytes < 1:
        raise ValueError(f"bad stripe size {stripe_bytes}")
    if total_bytes % (nservers * stripe_bytes):
        raise ValueError(
            f"total {total_bytes} not divisible by {nservers} servers "
            f"x {stripe_bytes} stripe"
        )
    return [
        Chunk(i * stripe_bytes, stripe_bytes, i % nservers,
              i // nservers * stripe_bytes)
        for i in range(total_bytes // stripe_bytes)
    ]


class ChunkMapDistribution:
    """An explicit chunk map: arbitrary device extents on arbitrary servers.

    The cluster placement layer (:mod:`repro.cluster.placement`) produces
    these — the paper's blocking layout generalized so a shared server
    fleet can host differently-sized, differently-placed tenant areas
    (least-loaded bin-packing, consistent-hash sharding).  The chunks
    must cover ``[0, total_bytes)`` exactly, in device order, and each
    server's chunks must be disjoint in its store space.

    ``parity_chunks`` are the redundancy layer's extra copies: they do
    not map device offsets (``locate``/``split`` never return them) but
    they occupy server store space, so they participate in the per-server
    overlap validation and in store sizing (:meth:`parity_share_of`).
    For an ``rs(k,m)`` stripe group a parity chunk's ``start`` is the
    stripe *row* range it covers (the same store-offset space as the
    data shards); for ``nway(r)`` replica chunks ``start`` is the device
    extent the copy protects.
    """

    def __init__(
        self,
        total_bytes: int,
        nservers: int,
        chunks: list[Chunk],
        parity_chunks: list[Chunk] | None = None,
    ) -> None:
        if nservers < 1:
            raise ValueError(f"need at least one server, got {nservers}")
        if not chunks:
            raise ValueError("chunk map is empty")
        pos = 0
        per_server: dict[int, list[tuple[int, int]]] = {}
        for c in chunks:
            if c.start != pos:
                raise ValueError(
                    f"chunk map gap/overlap at device offset {pos} "
                    f"(next chunk starts at {c.start})"
                )
            if c.nbytes <= 0:
                raise ValueError(f"empty chunk at {c.start}")
            if not (0 <= c.server < nservers):
                raise ValueError(f"chunk at {c.start} names server {c.server}")
            per_server.setdefault(c.server, []).append(
                (c.server_offset, c.nbytes)
            )
            pos = c.end
        if pos != total_bytes:
            raise ValueError(
                f"chunk map covers {pos} bytes, device is {total_bytes}"
            )
        parity_share: dict[int, int] = {}
        for c in parity_chunks or []:
            if c.nbytes <= 0:
                raise ValueError(f"empty parity chunk at {c.start}")
            if not (0 <= c.server < nservers):
                raise ValueError(
                    f"parity chunk at {c.start} names server {c.server}"
                )
            per_server.setdefault(c.server, []).append(
                (c.server_offset, c.nbytes)
            )
            parity_share[c.server] = parity_share.get(c.server, 0) + c.nbytes
        for server, extents in per_server.items():
            extents.sort()
            for (o1, n1), (o2, _n2) in zip(extents, extents[1:]):
                if o1 + n1 > o2:
                    raise ValueError(
                        f"server {server} store extents overlap at {o2}"
                    )
        self.total_bytes = total_bytes
        self.nservers = nservers
        self.chunks = list(chunks)
        self.parity_chunks = list(parity_chunks or [])
        self._starts = [c.start for c in self.chunks]
        self._share = {
            server: sum(n for _o, n in extents)
            for server, extents in per_server.items()
        }
        self._parity_share = parity_share
        for server, extra in parity_share.items():
            # _share above counted parity extents too (they share the
            # overlap validation); split the two views back apart.
            self._share[server] -= extra
            if not self._share[server]:
                del self._share[server]

    def share_of(self, server: int) -> int:
        """Data bytes of the device stored by ``server`` (0 if unused)."""
        if not (0 <= server < self.nservers):
            raise ValueError(f"no server {server}")
        return self._share.get(server, 0)

    def parity_share_of(self, server: int) -> int:
        """Redundancy bytes (parity / replica copies) on ``server``."""
        if not (0 <= server < self.nservers):
            raise ValueError(f"no server {server}")
        return self._parity_share.get(server, 0)

    @property
    def servers_used(self) -> list[int]:
        return sorted(set(self._share) | set(self._parity_share))

    def remap_server(self, old: int, new: int) -> None:
        """Background repair rebuilt ``old``'s extents onto ``new``:
        rewrite every chunk (data and parity) that named the lost
        server.  Store offsets are preserved — the rebuilt area uses
        the same compact layout behind the spare's own area base."""
        if not (0 <= new < self.nservers):
            raise ValueError(f"no server {new}")
        if new in self._share or new in self._parity_share:
            raise ValueError(
                f"server {new} already holds extents of this map"
            )
        self.chunks = [
            Chunk(c.start, c.nbytes, new, c.server_offset)
            if c.server == old
            else c
            for c in self.chunks
        ]
        self.parity_chunks = [
            Chunk(c.start, c.nbytes, new, c.server_offset)
            if c.server == old
            else c
            for c in self.parity_chunks
        ]
        if old in self._share:
            self._share[new] = self._share.pop(old)
        if old in self._parity_share:
            self._parity_share[new] = self._parity_share.pop(old)

    def _chunk_at(self, offset: int) -> Chunk:
        return self.chunks[bisect.bisect_right(self._starts, offset) - 1]

    def locate(self, offset: int) -> tuple[int, int]:
        """Map a device byte offset to ``(server, server_offset)``."""
        if not (0 <= offset < self.total_bytes):
            raise ValueError(f"offset {offset} outside device of {self.total_bytes}")
        c = self._chunk_at(offset)
        return c.server, c.server_offset + (offset - c.start)

    def split(self, offset: int, nbytes: int) -> list[Segment]:
        """Split ``[offset, offset+nbytes)`` into per-chunk segments,
        coalescing neighbours that are contiguous on the same server."""
        if nbytes <= 0:
            raise ValueError(f"bad extent size {nbytes}")
        if offset < 0 or offset + nbytes > self.total_bytes:
            raise ValueError(
                f"extent [{offset}, {offset + nbytes}) outside device of "
                f"{self.total_bytes} bytes"
            )
        out: list[Segment] = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            c = self._chunk_at(pos)
            soff = c.server_offset + (pos - c.start)
            take = min(remaining, c.end - pos)
            if (
                out
                and out[-1].server == c.server
                and out[-1].server_offset + out[-1].nbytes == soff
            ):
                out[-1] = Segment(
                    c.server, out[-1].server_offset, out[-1].nbytes + take
                )
            else:
                out.append(Segment(c.server, soff, take))
            pos += take
            remaining -= take
        return out


def group_chunk_maps(group, total_bytes: int) -> tuple[list[Chunk], list[Chunk]]:
    """Data/parity chunk maps for a redundancy ``ShardGroup``.

    The single source of layout truth shared by the cluster placement
    planner and a standalone driver: rs(k,m) stripes the device over the
    first k members (one shard each, parity members mirror the same row
    space), nway(r) lays a blocking ring with copy j of member i's chunk
    on member (i+j) at store offset ``j * share``.
    """
    pol = group.policy
    share = group.share_bytes
    if pol.kind == "rs":
        if share * pol.k != total_bytes:
            raise ValueError(
                f"rs({pol.k},{pol.m}) shards of {share} B do not cover "
                f"a {total_bytes} B device"
            )
        data = [
            Chunk(i * share, share, group.servers[i], 0)
            for i in range(pol.k)
        ]
        parity = [Chunk(0, share, s, 0) for s in group.parity_servers]
        return data, parity
    if pol.kind == "nway":
        g = len(group.servers)
        if share * g != total_bytes:
            raise ValueError(
                f"nway ring chunks of {share} B do not cover "
                f"a {total_bytes} B device"
            )
        data = [
            Chunk(i * share, share, group.servers[i], 0) for i in range(g)
        ]
        parity = [
            Chunk(i * share, share, group.servers[(i + j) % g], j * share)
            for j in range(1, pol.m + 1)
            for i in range(g)
        ]
        return data, parity
    raise ValueError(f"no chunk maps for policy kind {pol.kind!r}")
