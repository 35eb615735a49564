"""InfiniBand-style channel — the paper's future-work port, realised.

"The layered Motor architecture will allow us to port Motor to other
platforms and interconnects" (paper §9).  This channel demonstrates that
claim: nothing above the five-function channel interface changes, and the
whole stack — device, protocol, Motor, baselines — runs unmodified over a
transport with RDMA-flavoured behaviour:

* much lower latency and higher bandwidth than the sock channel;
* a registration cache: the first transfer touching a new buffer region
  pays a (simulated) memory-registration cost, subsequent reuse is free —
  the classic RDMA cost profile that rewards Motor's "elder objects never
  move" insight (a stable buffer stays in the cache; a young object that
  moves would need re-registration);
* inline sends: tiny payloads ride the work request itself (no bounce
  through a bounce buffer), modelled as a further latency discount.
"""

from __future__ import annotations

from repro.mp.buffers import accumulate_into
from repro.mp.channels.base import Channel, ChannelFabric
from repro.mp.channels.shm import _SharedQueue, _WindowRegistry
from repro.mp.packets import Packet
from repro.simtime import Clock, CostModel

#: payloads at or below this ride inline in the work request
INLINE_MAX = 220
#: simulated memory-registration cost per new buffer region (ns)
REGISTRATION_NS = 18_000.0
#: registration cache granularity (a 'page')
PAGE = 4096


class IbChannel(Channel):
    name = "ib"

    #: RDMA latency/bandwidth relative to the sock channel
    LATENCY_FRACTION = 0.08  # ~2 us instead of ~24 us
    PER_BYTE_FRACTION = 0.12  # ~1 GB/s-class fabric

    #: RDMA write/read engine: same fabric bandwidth, but no packet
    #: header processing and no completion on the target side
    RMA_PER_BYTE_FRACTION = 0.06

    def __init__(
        self,
        rank: int,
        clock: Clock,
        costs: CostModel,
        queues: dict[int, _SharedQueue],
        windows: _WindowRegistry | None = None,
    ) -> None:
        super().__init__(rank, clock, costs)
        self._queues = queues
        self._windows = windows if windows is not None else _WindowRegistry()
        self.rma_bytes = 0
        self.doorbell = queues[rank].doorbell
        #: registered 'pages' (id(base buffer) is unavailable here, so the
        #: cache keys on payload length class — a coarse but monotone model)
        self._reg_cache: set[int] = set()
        self.registrations = 0

    def init(self, world_size: int) -> None:
        self.world_size = world_size

    def _registration_cost(self, nbytes: int) -> float:
        """First touch of a new size class pays registration."""
        if nbytes <= INLINE_MAX:
            return 0.0
        key = nbytes // PAGE
        if key in self._reg_cache:
            return 0.0
        self._reg_cache.add(key)
        self.registrations += 1
        return REGISTRATION_NS * (1 + nbytes // (256 * PAGE))

    def send_packet(self, pkt: Packet) -> bool:
        nbytes = len(pkt.payload)
        self.clock.charge(self._registration_cost(nbytes))
        latency = self.costs.message_latency_ns * self.LATENCY_FRACTION
        if nbytes <= INLINE_MAX:
            latency *= 0.6  # inline send
        self._stamp_and_charge(
            pkt,
            latency_ns=latency,
            per_byte_ns=self.costs.per_byte_ns * self.PER_BYTE_FRACTION,
        )
        # HCA takes the bytes here (and the lease on the source ends);
        # registration above priced the right to read them in place
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

    # -- native one-sided path (RDMA write/read) -------------------------------

    def rma_caps(self) -> frozenset[str]:
        return frozenset({"put", "get", "accumulate"})

    def rma_register(self, win_id: int, rank: int, desc) -> None:
        # window memory is registered with the HCA once, up front — the
        # classic RDMA deal: pay registration here, then every one-sided
        # op is pure wire time
        self.clock.charge(REGISTRATION_NS * (1 + len(desc) // (256 * PAGE)))
        self.registrations += 1
        self._windows.register(win_id, rank, desc)

    def rma_deregister(self, win_id: int, rank: int) -> None:
        self._windows.deregister(win_id, rank)

    def _rma_charge(self, nbytes: int) -> None:
        self.clock.charge(
            self.costs.packet_overhead_ns
            + self.costs.message_latency_ns * self.LATENCY_FRACTION
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
        self._rma_charge(2 * len(src_mv))
        accumulate_into(desc.read(offset, len(src_mv)), src_mv, dtype)
        self.rma_bytes += len(src_mv)
        return True


class IbFabric(ChannelFabric):
    channel_cls = IbChannel
    supports_dynamic_ranks = True

    def __init__(self, world_size: int, queue_capacity: int = 4096) -> None:
        super().__init__(world_size)
        self._queues = {
            r: _SharedQueue(queue_capacity, self.doorbell(r)) for r in range(world_size)
        }
        self._windows = _WindowRegistry()

    def _make(self, rank: int, clock: Clock, costs: CostModel) -> IbChannel:
        return IbChannel(rank, clock, costs, self._queues, self._windows)

    def add_rank(self, rank: int, queue_capacity: int = 4096) -> None:
        if rank not in self._queues:
            self._queues[rank] = _SharedQueue(queue_capacity, self.doorbell(rank))
            self.world_size = max(self.world_size, rank + 1)
