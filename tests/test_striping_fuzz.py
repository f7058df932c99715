"""Seeded property-fuzz for the layout engines in ``hpbd/striping.py``.

Each case builds a random-but-valid layout from a seeded RNG and checks
the invariants every driver and the repair path rely on: ``split``
covers the requested extent exactly and in order, ``locate`` agrees
with single-byte splits, each segment stays contiguous on one server's
store, coalescing is maximal, shares account for every byte, overlap validation rejects corrupt maps, and
``remap_server`` preserves the layout modulo renaming.  Seeds are
fixed — a failure reproduces exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.hpbd.striping import (
    Chunk,
    ChunkMapDistribution,
    blocking_chunks,
    group_chunk_maps,
    striped_chunks,
)
from repro.redundancy.policy import RedundancyPolicy, ShardGroup

PAGE = 4096
SEEDS = range(12)


def random_chunk_map(rng: random.Random):
    """A valid random chunk map: the device is cut at random page
    boundaries and each piece lands on a random server, packed
    bottom-up in that server's store."""
    nservers = rng.randint(1, 8)
    npieces = rng.randint(1, 12)
    pieces = [rng.randint(1, 16) * PAGE for _ in range(npieces)]
    total = sum(pieces)
    cursor = dict.fromkeys(range(nservers), 0)
    chunks = []
    pos = 0
    for nbytes in pieces:
        server = rng.randrange(nservers)
        chunks.append(Chunk(pos, nbytes, server, cursor[server]))
        cursor[server] += nbytes
        pos += nbytes
    return ChunkMapDistribution(total, nservers, chunks), chunks


def check_split_properties(dist, rng: random.Random, cases: int = 50):
    total = dist.total_bytes
    for _ in range(cases):
        nbytes = rng.randint(1, total)
        offset = rng.randint(0, total - nbytes)
        segs = dist.split(offset, nbytes)
        # exact coverage, in device order
        assert sum(s.nbytes for s in segs) == nbytes
        pos = offset
        for s in segs:
            server, soff = dist.locate(pos)
            assert (server, soff) == (s.server, s.server_offset)
            # the whole segment stays contiguous on that server's store
            server2, soff2 = dist.locate(pos + s.nbytes - 1)
            assert (server2, soff2) == (s.server, s.server_offset + s.nbytes - 1)
            pos += s.nbytes
        assert pos == offset + nbytes
        # store extents of one request never overlap
        spans = sorted(
            (s.server, s.server_offset, s.nbytes) for s in segs
        )
        for (sv1, o1, n1), (sv2, o2, _n2) in zip(spans, spans[1:]):
            if sv1 == sv2:
                assert o1 + n1 <= o2


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_map_fuzz(seed):
    rng = random.Random(seed)
    dist, chunks = random_chunk_map(rng)
    check_split_properties(dist, rng)
    # every byte is accounted to exactly one server share
    assert sum(dist.share_of(s) for s in range(dist.nservers)) == dist.total_bytes
    # coalescing is maximal: adjacent segments are never contiguous
    for _ in range(20):
        nbytes = rng.randint(1, dist.total_bytes)
        offset = rng.randint(0, dist.total_bytes - nbytes)
        segs = dist.split(offset, nbytes)
        for a, b in zip(segs, segs[1:]):
            assert not (
                a.server == b.server
                and a.server_offset + a.nbytes == b.server_offset
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_map_remap_preserves_layout(seed):
    rng = random.Random(seed)
    dist, _chunks = random_chunk_map(rng)
    used = dist.servers_used
    if len(used) == dist.nservers:
        return  # no spare to remap onto
    old = rng.choice(used)
    spare = next(s for s in range(dist.nservers) if s not in used)
    before = [dist.locate(o) for o in range(0, dist.total_bytes, PAGE)]
    dist.remap_server(old, spare)
    after = [dist.locate(o) for o in range(0, dist.total_bytes, PAGE)]
    for (s1, o1), (s2, o2) in zip(before, after):
        assert o2 == o1
        assert s2 == (spare if s1 == old else s1)
    assert dist.share_of(old) == 0 and dist.parity_share_of(old) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_map_rejects_corruption(seed):
    rng = random.Random(seed)
    _dist, chunks = random_chunk_map(rng)
    total = chunks[-1].end
    nservers = max(c.server for c in chunks) + 1
    # a gap (or, for single-chunk maps, wrong total) must be rejected
    bad = list(chunks)
    bad[-1] = Chunk(
        bad[-1].start + PAGE, bad[-1].nbytes, bad[-1].server,
        bad[-1].server_offset,
    )
    with pytest.raises(ValueError):
        ChunkMapDistribution(total + PAGE, nservers, bad)
    # an overlapping store extent must be rejected: double-book the
    # first chunk's store bytes as a parity chunk on the same server
    first = chunks[0]
    with pytest.raises(ValueError):
        ChunkMapDistribution(
            total, nservers, chunks,
            parity_chunks=[
                Chunk(0, first.nbytes, first.server, first.server_offset)
            ],
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_blocking_and_striped_fuzz(seed):
    rng = random.Random(seed)
    nservers = rng.randint(1, 8)
    chunk = rng.randint(1, 32) * PAGE
    total = nservers * chunk
    blocking = ChunkMapDistribution(
        total, nservers, blocking_chunks(total, nservers)
    )
    check_split_properties(blocking, rng)
    stripe = rng.choice([PAGE, 2 * PAGE, 4 * PAGE])
    rows = rng.randint(1, 8)
    total = nservers * stripe * rows
    striped = ChunkMapDistribution(
        total, nservers, striped_chunks(total, nservers, stripe)
    )
    check_split_properties(striped, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_group_chunk_maps_fuzz(seed):
    """rs/nway layouts from ``group_chunk_maps`` always validate and
    account shares exactly."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        k = rng.randint(2, 6)
        m = rng.randint(1, 3)
        pol = RedundancyPolicy("rs", k=k, m=m)
        width = k + m
    else:
        r = rng.randint(2, 4)
        pol = RedundancyPolicy("nway", k=1, m=r - 1)
        width = rng.randint(r, r + 4)
    share = rng.randint(1, 8) * PAGE
    members = rng.sample(range(width + 4), width)
    group = ShardGroup(policy=pol, servers=members, share_bytes=share)
    total = share * (pol.k if pol.kind == "rs" else width)
    data, parity = group_chunk_maps(group, total)
    dist = ChunkMapDistribution(total, width + 4, data, parity)
    assert sum(dist.share_of(s) for s in range(dist.nservers)) == total
    parity_total = sum(
        dist.parity_share_of(s) for s in range(dist.nservers)
    )
    if pol.kind == "rs":
        assert parity_total == pol.m * share
    else:
        assert parity_total == pol.m * total
    # every member stores exactly member_need_bytes
    for s in members:
        assert (
            dist.share_of(s) + dist.parity_share_of(s)
            == group.member_need_bytes()
        )
    check_split_properties(dist, rng, cases=20)
