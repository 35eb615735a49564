"""Rank mains of the four closed-loop workloads.

Every workload runs on two ranks (threads of this process).  After its
set-up and a warm-up, rank 0 runs *passes* of the workload's fixed op
schedule until its time budget is spent: a closed loop with one client,
where the next op starts only when the previous one completed.  Between
passes the two rank threads meet at a thread barrier, where rank 0 says
whether another pass follows; no message is sent for it, so nothing but
the workload's own ops reaches the program's counters.

Around each pass each rank snapshots the program's own counters, so the
per-pass deltas exclude set-up and warm-up.  Rank 0
also times every op on the wall clock.  Received data is checked after
each op, outside the op's timing; a mismatch counts as a failed op.

A pass is run as one or more *segments* of its schedule.  In the
end-to-end worlds, before each segment both ranks meet at the thread
barrier and rank 0 times a fixed pure-Python loop
(:func:`reference_ns`), so that each segment's wall time, and each op's
in it, can also be given in units of that loop: the host's speed
drifts by up to 2x within a minute, and the program's wall time with it.
"""

from __future__ import annotations

import array
import threading
import time
import traceback

from repro.baselines.indiana import IndianaComm
from repro.mp.buffers import BufferDesc
from repro.mp.hooks import wire_engine
from repro.motor.vm import MotorVM
from repro.workloads import linkedlist
from repro.workloads.halo import STENCIL_NS_PER_CELL, _RmaCopyCounter

import inputs as wl
from spans import app_span, instrument_rank

PING_TAG, PONG_TAG = 11, 12

#: iterations of the reference loop's tight part
REF_ITERATIONS = 1500
#: objects and dict keys its wide part walks: a working set of a few MB,
#: like the ranks' heaps and tables, not only what fits in a CPU cache
REF_FOOTPRINT = 20000
#: runs of the reference loop per calibration; the fastest one counts
REF_REPEATS = 3
#: object-pingpong: list elements one segment may hold (a larger list is
#: a segment of its own), so a calibration lands every few ms
SEGMENT_ELEMENTS = 64

#: counters whose per-pass deltas repeat exactly when the simulation is
#: deterministic; the trace-perturbation check compares these
DETERMINISTIC = (
    "virtual_ns", "ch3.eager", "ch3.rndv", "ch3.bytes_moved",
    "win.native_ops", "win.emulated_ops", "win.comm_virtual_ns",
    "simtime.charges", "motor.fcalls", "pinpolicy.checks",
    "pinpolicy.elder_skips", "pinpolicy.deferred",
    "pinpolicy.conditional_registered", "gc.pin_calls", "gc.collections",
    "gc.objects_promoted", "gc.pinned_collections",
    "heap.fragmentation_bytes", "serializer.objects",
)


class _RefObj:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def step(self, x: int) -> int:
        return (self.v + x) & 0xFFFF


_REF_OBJS = [_RefObj(i) for i in range(REF_FOOTPRINT)]
_REF_TABLE = {i * 7919: i for i in range(REF_FOOTPRINT)}
_REF_KEYS = list(_REF_TABLE)[::14]


def reference_ns() -> int:
    """Wall ns of the reference loop, the fastest of :data:`REF_REPEATS`.

    Calls, attribute reads, dict and list updates and a bytes join in a
    tight loop, then a walk over a few MB of objects and dict entries:
    the interpreter work the ranks do, in a fixed amount that no change
    to the program can alter.  About 0.6 ms on a 2.1 GHz Xeon vCPU.
    """
    best = None
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter_ns()
        obj, counts, parts, acc = _RefObj(3), {}, [], 0
        for i in range(REF_ITERATIONS):
            acc += obj.step(i)
            counts[i & 127] = counts.get(i & 127, 0) + 1
            if not i % 50:
                parts.append(bytes(64))
        b"".join(parts)
        for o in _REF_OBJS[::8]:
            acc += o.step(1)
        for k in _REF_KEYS:
            acc += _REF_TABLE[k]
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best


class Probe:
    """What the launcher and the sampler learn from the rank threads."""

    def __init__(self) -> None:
        self.entered: dict[int, float] = {}
        #: idents of the rank threads currently inside a pass
        self.active: set[int] = set()
        #: a rank's exception, kept so a peer left waiting does not hide it
        self.errors: list[str] = []
        self.lock = threading.Lock()


class Plan:
    """One world's marching orders, shared by both rank mains."""

    def __init__(self, workload: str, inputs, budget_s: float, tracer=None,
                 count_copies: bool = False, calibrate: bool = False) -> None:
        self.workload = workload
        self.inputs = inputs
        self.budget_s = budget_s
        self.tracer = tracer
        self.count_copies = count_copies
        self.calibrate = calibrate
        self.probe = Probe()
        #: the ranks meet here between passes and segments; ``more`` is
        #: rank 0's verdict, ``ref_ns`` its latest reference-loop time
        self.gate = threading.Barrier(2)
        self.more = True
        self.ref_ns = 0

    def meet(self) -> None:
        self.gate.wait(self.budget_s + 60.0)

    def reference(self, rank: int) -> int:
        """Both ranks park at the barrier while rank 0 times the loop."""
        self.meet()
        if rank == 0:
            self.ref_ns = reference_ns()
        self.meet()
        return self.ref_ns


def counters(ctx, runtimes, vm, work, copies: _RmaCopyCounter | None) -> dict[str, float]:
    """Flat snapshot of one rank's program counters."""
    dev = ctx.engine.device
    st = dev.stats
    progress = ctx.engine.progress
    c = {
        "virtual_ns": ctx.clock.now(),
        "ch3.eager": st["eager"],
        "ch3.rndv": st["rndv"],
        "ch3.unexpected": st["unexpected"],
        "ch3.bytes_moved": st["bytes_moved"],
        "ch3.bytes_copied": st["bytes_copied"],
        "win.native_ops": st["rma_native_ops"],
        "win.emulated_ops": st["rma_emulated_ops"],
        "win.rma_copied": copies.rma_copied if copies is not None else 0,
        "win.comm_virtual_ns": work.comm_virtual_ns,
        "progress.polls": progress.polls,
        "progress.idle_polls": progress.idle_polls,
        "simtime.charges": ctx.clock.charges,
    }
    rel = dev.rel.stats if dev.rel is not None else {}
    for k in ("retransmits", "acks_sent", "dup_dropped", "pings_sent"):
        c["rel." + k] = rel.get(k, 0)
    for k in ("gc.collections", "gc.objects_promoted", "gc.pinned_collections",
              "gc.pin_calls", "heap.fragmentation_bytes"):
        c[k] = 0
    for rt in runtimes:
        gs = rt.gc.stats
        c["gc.collections"] += gs.gen0_collections + gs.gen1_collections
        c["gc.objects_promoted"] += gs.objects_promoted
        c["gc.pinned_collections"] += gs.pinned_collections
        c["gc.pin_calls"] += gs.pin_calls
        c["heap.fragmentation_bytes"] += rt.heap.stats.fragmentation_bytes
    ps = vm.policy.stats if vm is not None else None
    for k in ("checks", "elder_skips", "deferred", "conditional_registered"):
        c["pinpolicy." + k] = getattr(ps, k) if ps is not None else 0
    c["motor.fcalls"] = vm.fcall.stats.calls if vm is not None else 0
    c["serializer.objects"] = (
        vm.serializer.objects_serialized + vm.serializer.objects_deserialized
        if vm is not None else 0
    )
    return c


# -- the workloads' op schedules ----------------------------------------------


class Work:
    """One workload's ops on one rank; ``segments`` make up one pass."""

    comm_virtual_ns = 0.0

    def __init__(self, ctx, segments, warmup_ops) -> None:
        self.ctx = ctx
        self.segments = tuple(tuple(seg) for seg in segments)
        self.warmup_ops = tuple(warmup_ops)
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 3:
            self.errors.append(f"rank {self.ctx.rank}: {what}")

    def warmup(self) -> int:
        self.run(self.warmup_ops, None)
        return len(self.warmup_ops)

    def run(self, ops, lat) -> None:
        """Run ``ops``; rank 0 appends each op's wall ns to ``lat``."""
        raise NotImplementedError

    def finish(self) -> None:
        return None


class BufferWork(Work):
    """Motor ``Send``/``Recv`` round trips of seeded byte payloads."""

    def __init__(self, ctx, vm, inp: wl.BufferInputs, tracer) -> None:
        super().__init__(ctx, [inp.schedule], inp.warmup())
        self.vm, self.inp = vm, inp
        self.comm = vm.comm_world
        fill = app_span(tracer, ctx.clock, self._alloc_payloads)
        self.send_bufs, self.recv_bufs = fill(vm.runtime)
        self.check = app_span(tracer, ctx.clock, self._check)

    def _alloc_payloads(self, rt):
        mine = self.inp.ping if self.ctx.rank == 0 else self.inp.pong
        send = {}
        for size, variants in mine.items():
            send[size] = []
            for blob in variants:
                arr = rt.new_array("byte", size)
                rt.fill_array_bytes(arr, blob)
                send[size].append(arr)
        recv = {size: rt.new_array("byte", size) for size in mine}
        return send, recv

    def _check(self, size: int, variant: int) -> None:
        theirs = self.inp.pong if self.ctx.rank == 0 else self.inp.ping
        if self.vm.runtime.array_bytes(self.recv_bufs[size]) != theirs[size][variant]:
            self._fail(f"{size} B payload differs")

    def run(self, ops, lat) -> None:
        comm, now = self.comm, time.perf_counter_ns
        if self.ctx.rank == 0:
            for size, v in ops:
                t0 = now()
                comm.Send(self.send_bufs[size][v], 1, PING_TAG)
                comm.Recv(self.recv_bufs[size], 1, PONG_TAG)
                if lat is not None:
                    lat.append(now() - t0)
                self.check(size, v)
        else:
            # answer first, check after: the check stays off rank 0's clock
            for size, v in ops:
                comm.Recv(self.recv_bufs[size], 0, PING_TAG)
                comm.Send(self.send_bufs[size][v], 0, PONG_TAG)
                self.check(size, v)


def list_segments(schedule) -> list[list]:
    """Cut a list schedule into runs of at most :data:`SEGMENT_ELEMENTS`."""
    segments, cur, size = [], [], 0
    for op in schedule:
        if cur and size + op[1] > SEGMENT_ELEMENTS:
            segments.append(cur)
            cur, size = [], 0
        cur.append(op)
        size += op[1]
    return segments + [cur]


class ListWork(Work):
    """Linked-list round trips: Motor OSend/ORecv and Indiana-SSCLI."""

    def __init__(self, ctx, vm, indiana, inp: wl.ListInputs, tracer) -> None:
        smallest = min(e for _f, e in inp.schedule)
        super().__init__(ctx, list_segments(inp.schedule),
                         [(f, smallest) for f in wl.LIST_FLAVOURS])
        self.comm, self.indiana = vm.comm_world, indiana
        self.runtimes = {"motor": vm.runtime, "indiana-sscli": indiana.runtime}
        for rt in self.runtimes.values():
            linkedlist.define_linked_array(rt)
        self.build = app_span(tracer, ctx.clock, linkedlist.build_linked_list)
        self.check = app_span(tracer, ctx.clock, self._check)

    def _check(self, flavour: str, got, elements: int) -> None:
        try:
            linkedlist.verify_linked_list(
                self.runtimes[flavour], got, elements, wl.LIST_TOTAL_BYTES
            )
        except AssertionError as exc:
            self._fail(f"{flavour} list: {exc}")

    def _send(self, flavour, tree, dest, tag) -> None:
        if flavour == "motor":
            self.comm.OSend(tree, dest, tag)
        else:
            self.indiana.send_tree(tree, dest, tag)

    def _recv(self, flavour, source, tag):
        if flavour == "motor":
            return self.comm.ORecv(source, tag)
        return self.indiana.recv_tree(source, tag)

    def run(self, ops, lat) -> None:
        now = time.perf_counter_ns
        for flavour, elements in ops:
            if self.ctx.rank == 0:
                tree = self.build(self.runtimes[flavour], elements, wl.LIST_TOTAL_BYTES)
                t0 = now()
                self._send(flavour, tree, 1, PING_TAG)
                got = self._recv(flavour, 1, PONG_TAG)
                if lat is not None:
                    lat.append(now() - t0)
            else:
                got = self._recv(flavour, 0, PING_TAG)
                self._send(flavour, got, 0, PONG_TAG)
            self.check(flavour, got, elements)


class HaloWork(Work):
    """2-D halo exchange over a native shm window, then an integer stencil.

    Each pass restarts from the seeded tile, so every pass's final
    interior can be checked against the single-process reference.
    """

    def __init__(self, ctx, inp: wl.HaloInputs, expected, tracer) -> None:
        # one segment: every pass restarts from, and checks, the whole grid
        super().__init__(ctx, [range(inp.iterations)], range(inp.iterations))
        self.inp = inp
        me, n = ctx.rank, ctx.size
        self.up, self.down = (me - 1) % n, (me + 1) % n
        self.row_bytes = inp.cols * 4
        self.init = array.array("i", inp.tiles[me]).tobytes()
        self.expected = [array.array("i", row).tobytes() for row in expected[me]]
        self.buf = BufferDesc.from_bytes(self.init)
        self.win = ctx.engine.win_create(self.buf, dtype="int32")
        self.step = app_span(tracer, ctx.clock, self._stencil)
        self.check = app_span(tracer, ctx.clock, self._check)

    def _row(self, r: int) -> BufferDesc:
        return BufferDesc(self.buf.base, self.buf.addr + r * self.row_bytes, self.row_bytes)

    def _read(self, r: int) -> list[int]:
        a = array.array("i")
        a.frombytes(self.buf.read(r * self.row_bytes, self.row_bytes))
        return a.tolist()

    def _stencil(self) -> None:
        rows, cols = self.inp.rows, self.inp.cols
        new = wl.stencil_rows(
            self._read(0), [self._read(r) for r in range(1, rows + 1)],
            self._read(rows + 1), cols,
        )
        for i, row in enumerate(new):
            self.buf.write((i + 1) * self.row_bytes, array.array("i", row).tobytes())
        self.ctx.clock.charge(STENCIL_NS_PER_CELL * rows * cols)

    def _check(self) -> None:
        for i, want in enumerate(self.expected):
            if bytes(self.buf.read((i + 1) * self.row_bytes, self.row_bytes)) != want:
                # the final grid is the pass's output: all its ops failed
                self._fail(f"halo row {i + 1} differs", self.inp.iterations)
                return

    def run(self, ops, lat) -> None:
        rows, win, clock = self.inp.rows, self.win, self.ctx.clock
        now = time.perf_counter_ns
        self.buf.write(0, self.init)
        for _ in ops:
            t0 = now()
            c0 = clock.now()
            win.fence()
            # first interior row -> up's bottom halo; last -> down's top halo
            win.put(self._row(1), self.up, (rows + 1) * self.row_bytes)
            win.put(self._row(rows), self.down, 0)
            win.fence()
            self.comm_virtual_ns += clock.now() - c0
            self.step()
            if lat is not None:
                lat.append(now() - t0)
        self.check()

    def finish(self) -> None:
        self.win.free()


# -- the rank main ----------------------------------------------------------------


class RankMain:
    """Set up, warm up, then run passes until rank 0's budget is spent."""

    def __init__(self, plan: Plan, expected=None) -> None:
        self.plan = plan
        self.expected = expected

    def _bindings(self, ctx):
        w = self.plan.workload
        if w == "halo-rma":
            return None, None
        vm = MotorVM(ctx)
        return vm, IndianaComm(ctx, "sscli-free") if w == "object-pingpong" else None

    def _work(self, ctx, vm, indiana):
        w, inp, tracer = self.plan.workload, self.plan.inputs, self.plan.tracer
        if w == "object-pingpong":
            return ListWork(ctx, vm, indiana, inp, tracer)
        if w == "halo-rma":
            return HaloWork(ctx, inp, self.expected, tracer)
        return BufferWork(ctx, vm, inp, tracer)

    def __call__(self, ctx):
        try:
            return self._main(ctx)
        except Exception as exc:
            with self.plan.probe.lock:
                self.plan.probe.errors.append(
                    f"rank {ctx.rank}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            raise

    def _main(self, ctx):
        plan, probe, tracer = self.plan, self.plan.probe, self.plan.tracer
        me = ctx.rank
        with probe.lock:
            probe.entered[me] = time.perf_counter()
        vm, indiana = self._bindings(ctx)
        runtimes = [x.runtime for x in (vm, indiana) if x is not None]
        copies = None
        if plan.count_copies:
            copies = _RmaCopyCounter()
            wire_engine(ctx.engine).attach(copies)
        if tracer is not None:
            instrument_rank(tracer, ctx, vm, indiana)
        work = self._work(ctx, vm, indiana)
        ops = work.warmup()

        lat: list[int] | None = [] if me == 0 else None
        #: rank 0's op wall times in reference-loop units (end-to-end worlds)
        lat_ref: list[float] = []
        pass_wall, pass_cost, pass_virt, per_pass = [], [], [], []
        totals: dict[str, float] = {}
        t_first = deadline = 0.0
        timed_ops = 0
        last_pass_s = 0.0
        ident = threading.get_ident()
        while True:
            if me == 0:
                # another pass if it should end closer to the deadline than
                # stopping now would; the first pass always runs
                plan.more = (not pass_wall
                             or time.perf_counter() + last_pass_s / 2 < deadline)
            plan.meet()
            if not plan.more:
                break
            t_pass = time.perf_counter()
            if me == 0 and not pass_wall:
                t_first = t_pass
                deadline = t_first + plan.budget_s
            c0 = counters(ctx, runtimes, vm, work, copies)
            with probe.lock:
                probe.active.add(ident)
            if tracer is not None:
                tracer.recording(True)
            wall = cost = 0.0
            for seg in work.segments:
                ref = plan.reference(me) if plan.calibrate else 0
                first = len(lat) if lat is not None else 0
                w0 = time.perf_counter_ns()
                work.run(seg, lat)
                dt = time.perf_counter_ns() - w0
                wall += dt
                timed_ops += len(seg)
                if ref:
                    cost += dt / ref
                    if lat is not None:
                        lat_ref.extend(x / ref for x in lat[first:])
            if tracer is not None:
                tracer.recording(False)
            with probe.lock:
                probe.active.discard(ident)
            c1 = counters(ctx, runtimes, vm, work, copies)
            delta = {k: c1[k] - c0[k] for k in c0}
            per_pass.append({k: delta[k] for k in DETERMINISTIC})
            for k, v in delta.items():
                totals[k] = totals.get(k, 0) + v
            pass_wall.append(wall)
            pass_cost.append(cost)
            pass_virt.append(c1["virtual_ns"] - c0["virtual_ns"])
            last_pass_s = time.perf_counter() - t_pass
        work.finish()
        return {
            "rank": me,
            "t_first": t_first,
            "ops": ops + timed_ops,
            "timed_ops": timed_ops,
            "failed": work.failed,
            "errors": work.errors,
            "lat_ns": lat,
            "lat_ref": lat_ref,
            "pass_wall_ns": pass_wall,
            "pass_cost": pass_cost,
            "pass_virt_ns": pass_virt,
            "per_pass": per_pass,
            "totals": totals,
            "free_list_len": sum(len(rt.heap.free_list) for rt in runtimes),
        }
