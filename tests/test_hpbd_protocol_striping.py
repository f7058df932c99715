"""Unit tests for HPBD protocol messages, striping and the RamDisk."""

from __future__ import annotations

import pytest

from repro.hpbd import (
    Chunk,
    ChunkMapDistribution,
    CTRL_MSG_BYTES,
    OP_READ,
    OP_WRITE,
    PageReply,
    PageRequest,
    ProtocolError,
    RamDisk,
    RamDiskError,
    STATUS_ERROR,
    STATUS_NACK,
)
from repro.hpbd.ramdisk import SPILL_BYTES_PER_USEC
from repro.hpbd.striping import Segment, blocking_chunks
from repro.units import KiB, MiB, PAGE_SIZE


class TestProtocol:
    def test_request_signed_and_validates(self):
        req = PageRequest(op=OP_WRITE, offset=0, nbytes=4096, buf_addr=100, buf_rkey=1)
        req.validate()

    def test_tampered_request_detected(self):
        req = PageRequest(op=OP_WRITE, offset=0, nbytes=4096, buf_addr=100, buf_rkey=1)
        req.offset = 4096
        with pytest.raises(ProtocolError):
            req.validate()

    def test_reply_signed_and_validates(self):
        rep = PageReply(req_id=42)
        rep.validate()
        assert rep.ok

    def test_tampered_reply_detected(self):
        rep = PageReply(req_id=42)
        rep.status = STATUS_ERROR
        with pytest.raises(ProtocolError):
            rep.validate()

    def test_bad_opcode_rejected(self):
        with pytest.raises(ProtocolError):
            PageRequest(op="erase", offset=0, nbytes=1, buf_addr=0, buf_rkey=0)

    def test_bad_extent_rejected(self):
        with pytest.raises(ProtocolError):
            PageRequest(op=OP_READ, offset=-1, nbytes=1, buf_addr=0, buf_rkey=0)
        with pytest.raises(ProtocolError):
            PageRequest(op=OP_READ, offset=0, nbytes=0, buf_addr=0, buf_rkey=0)

    def test_req_ids_unique(self):
        a = PageRequest(op=OP_READ, offset=0, nbytes=1, buf_addr=0, buf_rkey=0)
        b = PageRequest(op=OP_READ, offset=0, nbytes=1, buf_addr=0, buf_rkey=0)
        assert a.req_id != b.req_id

    def test_control_message_small(self):
        # Control messages must stay tiny relative to a page.
        assert CTRL_MSG_BYTES < PAGE_SIZE // 8

    def test_nack_is_typed_and_distinct(self):
        rep = PageReply(req_id=7, status=STATUS_NACK)
        rep.validate()
        assert rep.nack and not rep.ok
        err = PageReply(req_id=8, status=STATUS_ERROR)
        assert not err.nack and not err.ok
        assert PageReply(req_id=9).ok


def _blocking(total_bytes, nservers):
    """The paper's blocking layout, as every client builds it."""
    return ChunkMapDistribution(
        total_bytes, nservers, blocking_chunks(total_bytes, nservers)
    )


class TestBlockingDistribution:
    def test_single_server_identity(self):
        d = _blocking(MiB, 1)
        segs = d.split(1000, 5000)
        assert len(segs) == 1
        assert segs[0].server == 0
        assert segs[0].server_offset == 1000
        assert segs[0].nbytes == 5000

    def test_chunks_are_contiguous_blocks(self):
        # §4.2.5: blocking pattern, NOT striping — consecutive offsets
        # inside one chunk map to the same server.
        d = _blocking(4 * MiB, 4)
        assert d.locate(0) == (0, 0)
        assert d.locate(MiB - 1) == (0, MiB - 1)
        assert d.locate(MiB) == (1, 0)
        assert d.locate(4 * MiB - 1) == (3, MiB - 1)

    def test_straddling_request_splits(self):
        d = _blocking(4 * MiB, 4)
        segs = d.split(MiB - 64 * KiB, 128 * KiB)
        assert len(segs) == 2
        assert segs[0].server == 0 and segs[0].nbytes == 64 * KiB
        assert segs[1].server == 1 and segs[1].server_offset == 0

    def test_split_covers_extent_exactly(self):
        d = _blocking(16 * MiB, 16)
        segs = d.split(3 * MiB - 1, 2 * MiB + 2)
        assert sum(s.nbytes for s in segs) == 2 * MiB + 2
        # server order must be ascending and contiguous
        servers = [s.server for s in segs]
        assert servers == sorted(servers)

    def test_interior_request_never_splits(self):
        # A 128 KiB request entirely inside a chunk stays whole — the
        # common case that motivates the non-striped layout.
        d = _blocking(1 << 30, 8)
        segs = d.split(10 * MiB, 128 * KiB)
        assert len(segs) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _blocking(MiB, 0)
        with pytest.raises(ValueError):
            _blocking(MiB + 1, 2)  # not divisible
        d = _blocking(MiB, 2)
        with pytest.raises(ValueError):
            d.split(MiB, 1)
        with pytest.raises(ValueError):
            d.split(0, 0)
        with pytest.raises(ValueError):
            d.locate(MiB)


def _alternating_map(total=8 * MiB, chunk=2 * MiB):
    """total/chunk chunks alternating between servers 0 and 1."""
    chunks = []
    offsets = {0: 0, 1: 0}
    pos, server = 0, 0
    while pos < total:
        chunks.append(Chunk(pos, chunk, server, offsets[server]))
        offsets[server] += chunk
        pos += chunk
        server ^= 1
    return ChunkMapDistribution(total, 2, chunks)


class TestChunkMapDistribution:
    def test_locate_follows_the_map(self):
        d = _alternating_map()
        assert d.locate(0) == (0, 0)
        assert d.locate(2 * MiB) == (1, 0)
        # server 0's second device chunk starts at store offset 2 MiB
        assert d.locate(4 * MiB) == (0, 2 * MiB)
        assert d.locate(8 * MiB - 1) == (1, 4 * MiB - 1)

    def test_share_and_servers_used(self):
        d = _alternating_map()
        assert d.share_of(0) == 4 * MiB
        assert d.share_of(1) == 4 * MiB
        assert d.servers_used == [0, 1]
        one_sided = ChunkMapDistribution(MiB, 2, [Chunk(0, MiB, 1, 0)])
        assert one_sided.share_of(0) == 0
        assert one_sided.servers_used == [1]

    def test_split_across_chunk_boundary(self):
        d = _alternating_map()
        segs = d.split(2 * MiB - 64 * KiB, 128 * KiB)
        assert len(segs) == 2
        assert segs[0] == Segment(0, 2 * MiB - 64 * KiB, 64 * KiB)
        assert segs[1] == Segment(1, 0, 64 * KiB)

    def test_split_coalesces_contiguous_same_server_chunks(self):
        # two device chunks that happen to be adjacent in one server's
        # store collapse into a single physical request
        chunks = [
            Chunk(0, MiB, 0, 0),
            Chunk(MiB, MiB, 0, MiB),
            Chunk(2 * MiB, MiB, 1, 0),
        ]
        d = ChunkMapDistribution(3 * MiB, 2, chunks)
        segs = d.split(0, 2 * MiB)
        assert segs == [Segment(0, 0, 2 * MiB)]

    def test_rejects_gaps_overlaps_and_short_maps(self):
        with pytest.raises(ValueError):  # gap at MiB
            ChunkMapDistribution(
                2 * MiB, 2,
                [Chunk(0, MiB, 0, 0), Chunk(MiB + 4096, MiB - 4096, 1, 0)],
            )
        with pytest.raises(ValueError):  # doesn't cover the device
            ChunkMapDistribution(2 * MiB, 2, [Chunk(0, MiB, 0, 0)])
        with pytest.raises(ValueError):  # store extents overlap
            ChunkMapDistribution(
                2 * MiB, 1,
                [Chunk(0, MiB, 0, 0), Chunk(MiB, MiB, 0, 512 * KiB)],
            )
        with pytest.raises(ValueError):  # names a server out of range
            ChunkMapDistribution(MiB, 1, [Chunk(0, MiB, 3, 0)])
        with pytest.raises(ValueError):
            ChunkMapDistribution(MiB, 1, [])


class TestRamDiskSpill:
    def test_residency_cap_evicts_fifo(self):
        rd = RamDisk(MiB, resident_bytes=2 * PAGE_SIZE)
        rd.write(0, PAGE_SIZE, token="a")
        rd.write(PAGE_SIZE, PAGE_SIZE, token="b")
        rd.write(2 * PAGE_SIZE, PAGE_SIZE, token="c")
        assert rd.pages_resident == 2
        assert rd.pages_spilled == 1
        assert rd.evictions == 1
        assert rd.spill_bytes_written == PAGE_SIZE
        assert rd.pages_stored == 3

    def test_spill_cost_accrues_and_drains(self):
        rd = RamDisk(MiB, resident_bytes=PAGE_SIZE)
        rd.write(0, PAGE_SIZE)
        rd.write(PAGE_SIZE, PAGE_SIZE)  # evicts page 0
        expect = PAGE_SIZE / SPILL_BYTES_PER_USEC
        assert rd.pending_spill_usec == pytest.approx(expect)
        assert rd.drain_spill_usec() == pytest.approx(expect)
        assert rd.pending_spill_usec == 0.0

    def test_read_faults_spilled_page_back_in(self):
        rd = RamDisk(MiB, resident_bytes=2 * PAGE_SIZE)
        rd.write(0, PAGE_SIZE, token="a")
        rd.write(PAGE_SIZE, PAGE_SIZE, token="b")
        rd.write(2 * PAGE_SIZE, PAGE_SIZE, token="c")  # spills "a"
        rd.drain_spill_usec()
        tokens, _ = rd.read(0, PAGE_SIZE)
        assert tokens == (("a", 0),)
        assert rd.spill_bytes_read == PAGE_SIZE
        # faulting "a" back in pushed another page over the cap
        assert rd.pages_resident == 2
        assert rd.pending_spill_usec > 0

    def test_overwrite_supersedes_spilled_copy(self):
        rd = RamDisk(MiB, resident_bytes=2 * PAGE_SIZE)
        rd.write(0, PAGE_SIZE, token="old")
        rd.write(PAGE_SIZE, PAGE_SIZE)
        rd.write(2 * PAGE_SIZE, PAGE_SIZE)  # spills page 0
        rd.write(0, PAGE_SIZE, token="new")
        tokens, _ = rd.read(0, PAGE_SIZE)
        assert tokens == (("new", 0),)

    def test_uncapped_ramdisk_never_spills(self):
        rd = RamDisk(MiB)
        for i in range(16):
            rd.write(i * PAGE_SIZE, PAGE_SIZE)
        assert rd.evictions == 0
        assert rd.pages_spilled == 0
        assert rd.pending_spill_usec == 0.0

    def test_wipe_clears_spill_state(self):
        rd = RamDisk(MiB, resident_bytes=PAGE_SIZE)
        rd.write(0, PAGE_SIZE)
        rd.write(PAGE_SIZE, PAGE_SIZE)
        rd.wipe()
        assert rd.pages_stored == 0
        assert rd.pending_spill_usec == 0.0

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            RamDisk(MiB, resident_bytes=0)
        with pytest.raises(ValueError):
            RamDisk(MiB, resident_bytes=PAGE_SIZE + 1)


class TestRamDisk:
    def test_roundtrip_tokens(self):
        rd = RamDisk(MiB)
        rd.write(0, 8 * KiB, token="X")
        tokens, cost = rd.read(0, 8 * KiB)
        assert tokens == (("X", 0), ("X", 1))
        assert cost > 0

    def test_partial_overwrite_of_stale_extent(self):
        # Freed-and-reused swap slots produce partially overlapping
        # writes; later reads see the newest data per page.
        rd = RamDisk(MiB)
        rd.write(0, 16 * KiB, token="old")
        rd.write(0, 8 * KiB, token="new")
        tokens, _ = rd.read(0, 16 * KiB)
        assert tokens[0][0] == "new" and tokens[1][0] == "new"
        assert tokens[2][0] == "old" and tokens[3][0] == "old"

    def test_never_written_reads_none(self):
        rd = RamDisk(MiB)
        tokens, _ = rd.read(64 * KiB, 4 * KiB)
        assert tokens == (None,)

    def test_bounds(self):
        rd = RamDisk(64 * KiB)
        with pytest.raises(RamDiskError):
            rd.write(60 * KiB, 8 * KiB)
        with pytest.raises(RamDiskError):
            rd.read(-4096, 4096)

    def test_alignment_enforced(self):
        rd = RamDisk(MiB)
        with pytest.raises(RamDiskError):
            rd.write(100, 4096)
        with pytest.raises(RamDiskError):
            rd.read(0, 100)

    def test_cost_scales_with_size(self):
        rd = RamDisk(MiB)
        small = rd.write(0, 4 * KiB)
        large = rd.write(0, 128 * KiB)
        assert large > small * 5

    def test_accounting(self):
        rd = RamDisk(MiB)
        rd.write(0, 4 * KiB)
        rd.read(0, 4 * KiB)
        assert rd.bytes_written == 4 * KiB
        assert rd.bytes_read == 4 * KiB
        assert rd.pages_stored == 1
