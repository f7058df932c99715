"""HPBD — the High Performance Block Device (the paper's contribution).

Client block driver + remote memory servers over simulated InfiniBand:
registration buffer pool, server-initiated RDMA, event-driven threads,
credit flow control, and multi-server blocking distribution.
"""

from .client import HPBDClient
from .cooperative import Advertisement, MemoryBroker, lender_chunk_map
from .pool import PoolBuffer, PoolError, RegisteredPool
from .protocol import (
    CTRL_MSG_BYTES,
    OP_READ,
    OP_WRITE,
    PageReply,
    PageRequest,
    ProtocolError,
    STATUS_ERROR,
    STATUS_NACK,
    STATUS_OK,
)
from .ramdisk import RamDisk, RamDiskError
from .server import HPBDServer
from .striping import (
    Chunk,
    ChunkMapDistribution,
    Segment,
    blocking_chunks,
    striped_chunks,
)

__all__ = [
    "HPBDClient",
    "MemoryBroker",
    "Advertisement",
    "lender_chunk_map",
    "HPBDServer",
    "RegisteredPool",
    "PoolBuffer",
    "PoolError",
    "RamDisk",
    "RamDiskError",
    "ChunkMapDistribution",
    "blocking_chunks",
    "striped_chunks",
    "Chunk",
    "Segment",
    "PageRequest",
    "PageReply",
    "ProtocolError",
    "OP_READ",
    "OP_WRITE",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_NACK",
    "CTRL_MSG_BYTES",
]
