"""Reliable-connection queue pairs and work-request execution.

A :class:`QueuePair` is one endpoint of an RC connection.  Work requests
are posted non-blockingly (``post_send`` / ``post_recv``, as in verbs);
a per-QP worker process executes send-queue WQEs **in order** — RC
ordering — charging the calibrated costs from :class:`~repro.net.fabrics.
IBParams` and occupying the HCA ports for serialization.

Semantics modelled:

* **SEND/RECV** (channel): consumes a pre-posted receive at the peer.  If
  the peer has none, the simulation raises :class:`ReceiverNotReady` —
  on hardware this is an RNR NAK storm; in HPBD it means the credit
  water-mark logic is broken, so we fail loudly instead of retrying.
* **RDMA WRITE / READ** (memory): validated against the peer's
  registered regions via rkey; no peer CPU or CQE involvement — the
  property the paper exploits for server-initiated page transfer.
* The *solicited* bit on a send propagates into the receiver's CQE and
  is what triggers the client's event handler (§5).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..simulator import Event, SimulationError, Store
from .cq import CQE, CompletionQueue, Opcode
from .mr import ProtectionDomain

__all__ = [
    "SendWR",
    "RecvWR",
    "RDMAWriteWR",
    "RDMAReadWR",
    "QueuePair",
    "ReceiverNotReady",
    "QPError",
]

_wr_ids = itertools.count(1)
_qp_nums = itertools.count(1)


class QPError(SimulationError):
    """Work-request or connection-state violation."""


class ReceiverNotReady(QPError):
    """SEND arrived with no pre-posted receive (would be an RNR NAK)."""


@dataclass
class SendWR:
    """Channel-semantics send carrying an opaque ``payload``."""

    nbytes: int
    payload: Any = None
    signaled: bool = True
    solicited: bool = False
    #: block-request identity propagated into the wire spans (critpath)
    req_id: int | None = None
    wr_id: int = field(default_factory=lambda: next(_wr_ids))


@dataclass
class RecvWR:
    """A pre-posted receive buffer descriptor."""

    capacity: int
    wr_id: int = field(default_factory=lambda: next(_wr_ids))


@dataclass
class RDMAWriteWR:
    """One-sided write of ``nbytes`` into ``(remote_addr, rkey)``."""

    nbytes: int
    remote_addr: int
    rkey: int
    payload: Any = None  # what lands in the remote buffer (bookkeeping)
    signaled: bool = True
    req_id: int | None = None
    wr_id: int = field(default_factory=lambda: next(_wr_ids))


@dataclass
class RDMAReadWR:
    """One-sided read of ``nbytes`` from ``(remote_addr, rkey)``."""

    nbytes: int
    remote_addr: int
    rkey: int
    signaled: bool = True
    req_id: int | None = None
    wr_id: int = field(default_factory=lambda: next(_wr_ids))


class QueuePair:
    """One endpoint of an RC connection.  Create via ``HCA.create_qp`` and
    connect with :func:`repro.ib.cm.connect`."""

    def __init__(
        self,
        hca: "Any",  # repro.ib.hca.HCA (circular import avoided)
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_recv_wr: int = 256,
    ) -> None:
        self.hca = hca
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_num = next(_qp_nums)
        self.max_recv_wr = max_recv_wr
        self.peer: QueuePair | None = None
        self._recv_queue: deque[RecvWR] = deque()
        self._sq: Store = Store(hca.sim, name=f"qp{self.qp_num}.sq")
        self._worker = hca.sim.spawn(self._send_worker(), name=f"qp{self.qp_num}")
        # statistics
        self.sends = 0
        self.rdma_writes = 0
        self.rdma_reads = 0
        self.bytes_sent = 0

    # -- connection state -------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def _require_connected(self) -> "QueuePair":
        if self.peer is None:
            raise QPError(f"QP {self.qp_num} not connected")
        return self.peer

    # -- posting (non-blocking, like the verbs API) ------------------------

    def post_recv(self, wr: RecvWR) -> None:
        if len(self._recv_queue) >= self.max_recv_wr:
            raise QPError(
                f"QP {self.qp_num}: receive queue overflow "
                f"(> {self.max_recv_wr} posted)"
            )
        self._recv_queue.append(wr)

    @property
    def posted_recvs(self) -> int:
        return len(self._recv_queue)

    def post_send(self, wr: SendWR | RDMAWriteWR | RDMAReadWR) -> Event:
        """Queue a work request; returns an event firing at completion.

        The returned event is a convenience for driver code that wants to
        block on a specific WR (the CQE is still generated if
        ``wr.signaled``).  A caller that never waits on it posts with
        :meth:`post_send_nowait` instead.
        """
        self._require_connected()
        done = self.hca.sim.event("wr")
        self._sq.put((wr, done))
        return done

    def post_send_nowait(self, wr: SendWR | RDMAWriteWR | RDMAReadWR) -> None:
        """Queue a work request whose completion nobody waits on.

        Executes exactly as :meth:`post_send` (CQE included, if
        ``wr.signaled``) but builds and fires no completion event.
        """
        self._require_connected()
        self._sq.put((wr, None))

    # -- execution ----------------------------------------------------------

    def _send_worker(self):
        sim = self.hca.sim
        params = self.hca.params
        while True:
            wr, done = yield self._sq.get()
            # QP-context cache pressure hits whichever HCA of the pair
            # juggles more connections (Fig. 10: the client's, with one
            # QP per memory server).
            peer = self.peer
            penalty = self.hca.qp_penalty()
            if peer is not None:
                penalty = max(penalty, peer.hca.qp_penalty())
            post_cost = params.wqe_post_cost + penalty
            if post_cost > 0 and not sim.sleep_inline(post_cost):
                yield sim.timeout(post_cost)
            if isinstance(wr, SendWR):
                yield from self._do_send(wr)
                self.sends += 1
            elif isinstance(wr, RDMAWriteWR):
                yield from self._do_rdma_write(wr)
                self.rdma_writes += 1
            elif isinstance(wr, RDMAReadWR):
                yield from self._do_rdma_read(wr)
                self.rdma_reads += 1
            else:
                raise QPError(f"unknown work request {wr!r}")
            self.bytes_sent += wr.nbytes
            if wr.signaled:
                self.send_cq.push(
                    CQE(
                        opcode={
                            SendWR: Opcode.SEND,
                            RDMAWriteWR: Opcode.RDMA_WRITE,
                            RDMAReadWR: Opcode.RDMA_READ,
                        }[type(wr)],
                        wr_id=wr.wr_id,
                        qp_num=self.qp_num,
                        byte_len=wr.nbytes,
                    )
                )
            if done is not None:
                done.succeed(wr)

    def _do_send(self, wr: SendWR):
        peer = self._require_connected()
        params = self.hca.params
        hook = self.hca.fabric.fault_hook
        if hook is not None:
            wr = hook(self, wr)
            if wr is None:
                # The message vanished on the wire: charge the one-way
                # latency but consume no peer receive and generate no
                # completion there — the sender cannot tell the
                # difference until its timeout fires.
                yield self.hca.sim.timeout(
                    params.rdma_write_latency + params.send_recv_extra
                )
                return
        if not peer._recv_queue:
            raise ReceiverNotReady(
                f"QP {self.qp_num} -> {peer.qp_num}: no posted receive "
                f"(flow-control violation)"
            )
        recv_wr = peer._recv_queue.popleft()
        if recv_wr.capacity < wr.nbytes:
            raise QPError(
                f"receive buffer too small: {recv_wr.capacity} < {wr.nbytes}"
            )
        yield self.hca.fabric.transfer(
            self.hca.port,
            peer.hca.port,
            wr.nbytes,
            params.byte_time,
            params.rdma_write_latency + params.send_recv_extra,
            tag="ib_send",
            req_id=wr.req_id,
        )
        peer.recv_cq.push(
            CQE(
                opcode=Opcode.RECV,
                wr_id=recv_wr.wr_id,
                qp_num=peer.qp_num,
                byte_len=wr.nbytes,
                payload=wr.payload,
                solicited=wr.solicited,
            )
        )

    def _do_rdma_write(self, wr: RDMAWriteWR):
        peer = self._require_connected()
        mr = peer.pd.resolve_rkey(wr.rkey)
        mr.check_remote(wr.remote_addr, wr.nbytes, write=True)
        params = self.hca.params
        yield self.hca.fabric.transfer(
            self.hca.port,
            peer.hca.port,
            wr.nbytes,
            params.byte_time,
            params.rdma_write_latency,
            tag="rdma_write",
            req_id=wr.req_id,
        )
        # Deliver payload into the peer's simulated memory (bookkeeping
        # for tests/backing stores that want to observe the data).
        sink = getattr(peer.hca, "memory_sink", None)
        if sink is not None and wr.payload is not None:
            sink(wr.remote_addr, wr.nbytes, wr.payload)

    def _do_rdma_read(self, wr: RDMAReadWR):
        peer = self._require_connected()
        mr = peer.pd.resolve_rkey(wr.rkey)
        mr.check_remote(wr.remote_addr, wr.nbytes, write=False)
        params = self.hca.params
        # Read request travels first (extra latency), then data streams
        # back peer -> us, occupying the peer tx and our rx.
        yield self.hca.sim.timeout(
            params.rdma_write_latency + params.rdma_read_extra
        )
        yield self.hca.fabric.transfer(
            peer.hca.port,
            self.hca.port,
            wr.nbytes,
            params.byte_time,
            0.0,
            tag="rdma_read",
            req_id=wr.req_id,
        )
