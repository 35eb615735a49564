"""Shared-memory channel: packets through a bounded shared queue.

Stands in for MPICH2's ``shm`` channel.  Packets cross between rank
threads as objects (the payload bytes are copied once at enqueue, the
"write into the shared segment"), through a lock-protected bounded deque
per destination rank; each put rings the destination rank's doorbell.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.mp.buffers import accumulate_into
from repro.mp.channels.base import Channel, ChannelFabric, Doorbell
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel


class _SharedQueue:
    """A bounded multi-producer single-consumer packet queue."""

    def __init__(self, capacity: int, doorbell: Doorbell) -> None:
        self.capacity = capacity
        self._q: deque[Packet] = deque()
        self._lock = threading.Lock()
        #: the consumer rank's doorbell, rung by every accepted put
        self.doorbell = doorbell

    def put(self, pkt: Packet) -> bool:
        with self._lock:
            if len(self._q) >= self.capacity:
                return False
            self._q.append(pkt)
        self.doorbell.ring()
        return True

    def drain(self, limit: int | None = None) -> list[Packet]:
        with self._lock:
            if limit is None or limit >= len(self._q):
                out = list(self._q)
                self._q.clear()
            else:
                out = [self._q.popleft() for _ in range(limit)]
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._q)


class _WindowRegistry:
    """Fabric-shared map of exposed RMA windows.

    Ranks on a shared-address-space fabric (shm, ib) can reach each
    other's window memory directly; the registry is the "registered
    memory" table: ``(win_id, rank) -> BufferDesc``.  An origin's channel
    looks the target's descriptor up and lands bytes with one direct
    write — no packet, no target-side message path.
    """

    def __init__(self) -> None:
        self._map: dict[tuple[int, int], object] = {}
        self._lock = threading.Lock()

    def register(self, win_id: int, rank: int, desc) -> None:
        with self._lock:
            self._map[(win_id, rank)] = desc

    def deregister(self, win_id: int, rank: int) -> None:
        with self._lock:
            self._map.pop((win_id, rank), None)

    def lookup(self, win_id: int, rank: int):
        with self._lock:
            return self._map.get((win_id, rank))


class ShmChannel(Channel):
    name = "shm"

    #: native RMA per-byte discount: a direct write into the target's
    #: window is one memory traversal — no queue enqueue+drain pair, no
    #: packet header processing (vs the 0.5x wire fraction below)
    RMA_PER_BYTE_FRACTION = 0.2

    def __init__(
        self,
        rank: int,
        clock: Clock,
        costs: CostModel,
        queues: dict[int, _SharedQueue],
        windows: _WindowRegistry | None = None,
    ) -> None:
        super().__init__(rank, clock, costs)
        self._queues = queues  # dest rank -> its inbound queue
        self._windows = windows if windows is not None else _WindowRegistry()
        self.rma_bytes = 0  # native one-sided bytes landed by this rank
        self.doorbell = queues[rank].doorbell

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def send_packet(self, pkt: Packet) -> bool:
        # shared-memory transport: a quarter of the socket latency, twice
        # the effective bandwidth
        self._stamp_and_charge(
            pkt,
            latency_ns=self.costs.message_latency_ns * 0.25,
            per_byte_ns=self.costs.per_byte_ns * 0.5,
        )
        # copy into the 'shared segment' — the wire crossing; this also
        # ends any lease on the sender's buffer
        pkt.freeze_payload()
        ok = self._queues[pkt.dst].put(pkt)
        if not ok:
            self.packets_sent -= 1
        return ok

    def recv_packets(self, limit: int | None = None) -> list[Packet]:
        pkts = self._queues[self.rank].drain(limit)
        self.packets_received += len(pkts)
        return pkts

    def has_incoming(self) -> bool:
        return len(self._queues[self.rank]) > 0

    def finalize(self) -> None:
        super().finalize()

    # -- native one-sided path -------------------------------------------------

    def rma_caps(self) -> frozenset[str]:
        return frozenset({"put", "get", "accumulate"})

    def rma_register(self, win_id: int, rank: int, desc) -> None:
        self._windows.register(win_id, rank, desc)

    def rma_deregister(self, win_id: int, rank: int) -> None:
        self._windows.deregister(win_id, rank)

    def _rma_charge(self, nbytes: int) -> None:
        self.clock.charge(
            self.costs.packet_overhead_ns
            + self.costs.message_latency_ns * 0.25
            + nbytes * self.costs.per_byte_ns * self.RMA_PER_BYTE_FRACTION
        )

    def rma_put(self, win_id: int, target: int, offset: int, src_mv) -> bool:
        desc = self._windows.lookup(win_id, target)
        if desc is None:
            return False
        self._rma_charge(len(src_mv))
        desc.write(offset, src_mv)
        self.rma_bytes += len(src_mv)
        return True

    def rma_get(self, win_id: int, target: int, offset: int, dst_mv) -> bool:
        desc = self._windows.lookup(win_id, target)
        if desc is None:
            return False
        self._rma_charge(len(dst_mv))
        dst_mv[:] = desc.read(offset, len(dst_mv))
        self.rma_bytes += len(dst_mv)
        return True

    def rma_accumulate(
        self, win_id: int, target: int, offset: int, src_mv, dtype: str
    ) -> bool:
        desc = self._windows.lookup(win_id, target)
        if desc is None:
            return False
        # read-modify-write in place on the target's heap; the elementwise
        # sum traverses both operands, so charge two byte streams
        self._rma_charge(2 * len(src_mv))
        accumulate_into(desc.read(offset, len(src_mv)), src_mv, dtype)
        self.rma_bytes += len(src_mv)
        return True


class ShmFabric(ChannelFabric):
    channel_cls = ShmChannel
    supports_dynamic_ranks = True

    def __init__(self, world_size: int, queue_capacity: int = 4096,
                 doorbells: dict[int, Doorbell] | None = None) -> None:
        super().__init__(world_size, doorbells)
        self._queues = {
            r: _SharedQueue(queue_capacity, self.doorbell(r)) for r in range(world_size)
        }
        self._windows = _WindowRegistry()

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> ShmChannel:
        return ShmChannel(rank, clock, costs, self._queues, self._windows)

    def add_rank(self, rank: int, queue_capacity: int = 4096) -> None:
        """Dynamic process management support: grow the fabric."""
        if rank not in self._queues:
            self._queues[rank] = _SharedQueue(queue_capacity, self.doorbell(rank))
            self.world_size = max(self.world_size, rank + 1)
