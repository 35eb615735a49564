"""The one blocking wait: ``ProgressCore.block_until`` and the doorbell.

An idle waiter parks on its rank's doorbell, which every delivery rings,
so a wait for a late peer costs a handful of polls instead of a spin.
Stacks without a doorbell (fault injection) keep the spin, and with it
the exact poll cadence their poll-counted timers were built on.
"""

import sys
import threading
import time

import pytest

from repro.cluster import mpiexec
from repro.mp import MpiEngine
from repro.mp.buffers import BufferDesc, NativeMemory
from repro.mp.channels import FABRICS, FaultPlan, FaultyFabric
from repro.mp.channels.base import Doorbell
from repro.mp.channels.shm import _SharedQueue
from repro.mp.errors import MpiErrTimeout, MpiErrTruncate
from repro.simtime import CostModel, VirtualClock

pytestmark = pytest.mark.progress

#: (channel, peer rank): ssm carries ranks 0/1 over its shm path and
#: rank 2 (another node) over its sock path
TRANSPORTS = [
    pytest.param("sock", 1, id="sock"),
    pytest.param("shm", 1, id="shm"),
    pytest.param("ib", 1, id="ib"),
    pytest.param("ssm", 1, id="ssm-shm"),
    pytest.param("ssm", 2, id="ssm-sock"),
]

LATE_S = 0.05
ROUND_TRIPS = 40


def _buf(n, fill=0):
    mem = NativeMemory(n)
    if fill:
        mem.view()[:] = bytes([fill % 251]) * n
    return BufferDesc.from_native(mem)


class TestDoorbell:
    def test_ring_before_park_returns_at_once(self):
        bell = Doorbell()
        seen = bell.seq
        bell.ring()
        t0 = time.monotonic()
        assert bell.park(seen, 5.0)
        assert time.monotonic() - t0 < 1.0

    def test_silent_park_times_out(self):
        bell = Doorbell()
        assert not bell.park(bell.seq, 0.01)

    def test_ring_wakes_a_parked_thread(self):
        bell = Doorbell()
        seen = bell.seq
        timer = threading.Timer(0.02, bell.ring)
        timer.start()
        t0 = time.monotonic()
        assert bell.park(seen, 5.0)
        assert time.monotonic() - t0 < 1.0
        timer.join()

    def test_no_lost_wakeup_under_contention(self):
        """More producers than cores put while one consumer drains and
        parks.  The consumer reads the ring count before each drain, so
        every park that follows an incomplete drain must be rung: one
        lost wakeup shows as a park that times out."""
        bell = Doorbell()
        q = _SharedQueue(capacity=1 << 20, doorbell=bell)
        producers, per = 4, 500

        def produce():
            for i in range(per):
                assert q.put(i)

        threads = [threading.Thread(target=produce) for _ in range(producers)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            got, missed = 0, 0
            while got < producers * per:
                seen = bell.seq
                got += len(q.drain())
                if got < producers * per and not bell.park(seen, 2.0):
                    missed += 1
                    break
        finally:
            sys.setswitchinterval(old)
            for t in threads:
                t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert missed == 0 and got == producers * per

    def test_ssm_ranks_share_one_bell(self):
        fab = FABRICS["ssm"](4)
        costs = CostModel()
        ch = fab.endpoint(0, VirtualClock(), costs)
        assert ch.doorbell is fab.doorbell(0)


@pytest.mark.parametrize("channel,peer", TRANSPORTS)
class TestParkedWaits:
    def test_deliveries_ring_the_waiter(self, channel, peer, monkeypatch):
        """A ping-pong parks on every wait and is woken by the delivery,
        not by the park timeout: without the ring each wait would sit
        out its timeout."""
        timeouts = _count_parks(monkeypatch, timed_out_only=True)

        def main(ctx):
            eng = ctx.engine
            if ctx.rank not in (0, peer):
                return
            other = peer if ctx.rank == 0 else 0
            buf = _buf(32, 1)
            for i in range(ROUND_TRIPS):
                if ctx.rank == 0:
                    eng.send(buf, other, i)
                    eng.recv(buf, other, i)
                else:
                    eng.recv(buf, other, i)
                    eng.send(buf, other, i)

        mpiexec(peer + 1, main, channel=channel, timeout=30)
        assert len(timeouts) < ROUND_TRIPS // 2, f"{len(timeouts)} parks timed out"

    def test_sender_with_a_backlog_keeps_flushing(self, channel, peer, monkeypatch):
        """A message several sock pipes long leaves bytes in the sender's
        backlog after its send completes.  The reader draining the pipe
        rings nobody, so a sender that parked on that backlog would stall
        a park timeout per pipe-full."""
        timeouts = _count_parks(monkeypatch, timed_out_only=True)
        nbytes = 6 << 20

        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                eng.send(_buf(nbytes, 4), peer, 1)
                eng.recv(_buf(4), peer, 2)
            elif ctx.rank == peer:
                dst = _buf(nbytes)
                eng.recv(dst, 0, 1)
                eng.send(_buf(4), 0, 2)
                return bytes(dst.view()[:8]) == bytes([4]) * 8

        assert mpiexec(peer + 1, main, channel=channel, timeout=60)[peer]
        assert len(timeouts) < 3, f"{len(timeouts)} parks timed out"

    def test_late_sender_costs_few_idle_polls(self, channel, peer):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == peer:
                time.sleep(LATE_S)
                eng.send(_buf(64, 9), 0, 5)
            elif ctx.rank == 0:
                dst = _buf(64)
                before = eng.progress.idle_polls
                eng.recv(dst, peer, 5)
                assert bytes(dst.view()) == bytes([9]) * 64
                return eng.progress.idle_polls - before

        idle = mpiexec(peer + 1, main, channel=channel, timeout=30)[0]
        assert idle < 50, f"{idle} idle polls: the waiter spun instead of parking"

    def test_timeout_fires_while_parked(self, channel, peer):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 0:
                req = eng.irecv(_buf(4), peer, 6)
                before = eng.progress.idle_polls
                t0 = time.monotonic()
                with pytest.raises(MpiErrTimeout):
                    eng.wait(req, timeout=0.05)
                elapsed = time.monotonic() - t0
                idle = eng.progress.idle_polls - before
                eng.cancel(req)
                eng.barrier()
                return elapsed, idle
            eng.barrier()

        elapsed, idle = mpiexec(peer + 1, main, channel=channel, timeout=30)[0]
        assert elapsed < 0.2
        assert idle < 50, f"{idle} idle polls: the waiter spun instead of parking"

    def test_probe_parks_until_the_message_lands(self, channel, peer):
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == peer:
                time.sleep(LATE_S)
                eng.send(_buf(16, 3), 0, 8)
            elif ctx.rank == 0:
                before = eng.progress.idle_polls
                st = eng.probe(peer, 8)
                idle = eng.progress.idle_polls - before
                eng.recv(_buf(16), peer, 8)
                return st.source, idle

        source, idle = mpiexec(peer + 1, main, channel=channel, timeout=30)[0]
        assert source == peer
        assert idle < 50, f"{idle} idle polls: probe spun instead of parking"


class TestWaitAllBatch:
    def test_truncation_reported_after_the_whole_batch(self):
        """MPI_Waitall: the batch completes first, then a truncated
        receive in it is reported — a later request still lands."""
        def main(ctx):
            eng = ctx.engine
            if ctx.rank == 1:
                eng.send(BufferDesc.from_bytes(b"too long"), 0, 1)
                time.sleep(LATE_S)
                eng.send(BufferDesc.from_bytes(b"late"), 0, 2)
                return None
            short, late = NativeMemory(3), NativeMemory(4)
            reqs = [
                eng.irecv(BufferDesc.from_native(short), 1, 1),
                eng.irecv(BufferDesc.from_native(late), 1, 2),
            ]
            with pytest.raises(MpiErrTruncate):
                eng.wait_all(reqs, timeout=10.0)
            return reqs[1].completed, short.tobytes(), late.tobytes()

        assert mpiexec(2, main, timeout=30)[0] == (True, b"too", b"late")


def _count_parks(monkeypatch, timed_out_only=False) -> list:
    parks = []
    real = Doorbell.park

    def counting(self, seen, timeout):
        rung = real(self, seen, timeout)
        if not (rung and timed_out_only):
            parks.append(timeout)
        return rung

    monkeypatch.setattr(Doorbell, "park", counting)
    return parks


@pytest.mark.parametrize("channel", ["sock", "shm", "ib", "ssm"])
class TestFaultPlanSpins:
    def test_fault_world_never_parks(self, channel, monkeypatch):
        parks = _count_parks(monkeypatch)

        def main(ctx):
            eng = ctx.engine
            peer = 1 - ctx.rank
            for i in range(6):
                n = (4, 4096, 65536)[i % 3]
                if ctx.rank == 0:
                    eng.send(_buf(n, i + 1), peer, i)
                    dst = _buf(n)
                    eng.recv(dst, peer, i)
                else:
                    dst = _buf(n)
                    eng.recv(dst, peer, i)
                    eng.send(dst, peer, i)
                assert bytes(dst.view()) == bytes([i + 1]) * n
            return "ok"

        plan = FaultPlan(seed=5, drop=0.05, duplicate=0.05)
        assert mpiexec(2, main, channel=channel, fault_plan=plan, timeout=60) == ["ok", "ok"]
        assert parks == []

    def test_fault_series_unchanged(self, channel, monkeypatch):
        """A lockstep pair (rank 1 stepped from rank 0's yield, one
        thread, so every poll count is deterministic) over a faulty wire:
        retransmits, faults and the virtual series equal the figures the
        spin-only wait produced before parking existed."""
        parks = _count_parks(monkeypatch)
        series, retx, faults = _lockstep(channel)
        assert parks == []
        assert retx == [2, 6]
        assert faults == LOCKSTEP_FAULTS
        assert series[-1] == LOCKSTEP_FINAL[channel]
        assert sum(a + b for a, b in series) == pytest.approx(
            LOCKSTEP_SUM[channel], rel=0, abs=1e-3)


#: recorded with the spin-only wait (every stack spun), seed 11, 12 rounds
LOCKSTEP_FAULTS = [5, 10]
LOCKSTEP_FINAL = {
    "sock": (6479110.0, 7159970.0),
    "shm": (3290634.0, 3642198.0),
    "ib": (1062320.24, 1173219.28),
    "ssm": (3290634.0, 3642198.0),
}
LOCKSTEP_SUM = {"sock": 84562530.0, "shm": 42686257.0, "ib": 13934689.52,
                "ssm": 42686257.0}

FAST = dict(retransmit_after=4, backoff=1.5, max_backoff_polls=32,
            max_retries=40, heartbeat_after=16)


def _lockstep(channel, seed=11, rounds=12):
    plan = FaultPlan(seed=seed, drop=0.1, duplicate=0.05, reorder=0.05, corrupt=0.05)
    fab = FaultyFabric(FABRICS[channel](2), plan)
    costs = CostModel()
    clocks = [VirtualClock(), VirtualClock()]
    e0, e1 = (MpiEngine(r, 2, fab.endpoint(r, clocks[r], costs), clock=clocks[r],
                        costs=costs, reliable=True, reliability_opts=FAST)
              for r in range(2))
    e0.progress.yield_fn = e1.progress.poll
    series = []
    for i in range(rounds):
        n = (4, 4096, 65536)[i % 3]
        r1 = e1.irecv(_buf(n), 0, i)
        s1 = e1.isend(_buf(n, i + 7), 0, 1000 + i)
        dst = _buf(n)
        s0 = e0.isend(_buf(n, i + 1), 1, i)
        r0 = e0.irecv(dst, 1, 1000 + i)
        e0.progress.wait_all([s0, r0], timeout=20)
        e0.progress.poll_until(lambda: r1.completed and s1.completed, timeout=20)
        assert bytes(dst.view()) == bytes([(i + 7) % 251]) * n
        series.append((clocks[0].now(), clocks[1].now()))
    retx = [e.device.rel.stats["retransmits"] for e in (e0, e1)]
    faults = [len(e.device.channel.fault_log) for e in (e0, e1)]
    return series, retx, faults
