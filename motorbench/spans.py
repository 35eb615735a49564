"""In-memory layer spans for the traced run.

A span is opened around each call into a layer's public entry point on a
rank's own objects (the wrappers are installed on the instances by
:func:`instrument_rank`; no code of the program is edited).  Open spans
live on a per-thread stack.  When a span closes, its duration minus the
time covered by its child spans is the layer's *self* time; both the
wall clock and the rank's virtual clock are read, so every layer gets
wall and virtual self time.

Spans are recorded only while the owning rank thread has switched
recording on, which the rank main does around its timed passes.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable

#: per-layer aggregate fields
CALLS, SELF_WALL, SELF_VIRT, TOTAL_WALL, TOTAL_VIRT = range(5)


class SpanStack:
    """One thread's open spans and its per-layer aggregates.

    ``enter``/``exit`` take explicit timestamps so the arithmetic can be
    tested on synthetic trees; the tracer feeds them measured times.
    """

    def __init__(self) -> None:
        #: open spans: [layer, wall0, virt0, child_wall, child_virt]
        self.open: list[list] = []
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])

    def enter(self, layer: str, wall: float, virt: float) -> None:
        self.open.append([layer, wall, virt, 0.0, 0.0])

    def exit(self, wall: float, virt: float) -> None:
        layer, wall0, virt0, child_wall, child_virt = self.open.pop()
        dw, dv = wall - wall0, virt - virt0
        agg = self.totals[layer]
        agg[CALLS] += 1
        agg[SELF_WALL] += dw - child_wall
        agg[SELF_VIRT] += dv - child_virt
        agg[TOTAL_WALL] += dw
        agg[TOTAL_VIRT] += dv
        if self.open:
            parent = self.open[-1]
            parent[3] += dw
            parent[4] += dv


class Tracer:
    """Span stacks of every rank thread of one world, plus call-site tallies."""

    def __init__(self) -> None:
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._stacks: list[SpanStack] = []
        #: extra per-layer tallies the wrappers make (bytes out, empty recvs)
        self._tallies: list[dict] = []

    def _local(self):
        tl = self._tl
        if not hasattr(tl, "stack"):
            tl.stack = SpanStack()
            tl.tally = defaultdict(float)
            tl.on = False
            with self._lock:
                self._stacks.append(tl.stack)
                self._tallies.append(tl.tally)
        return tl

    def recording(self, on: bool) -> None:
        """Switch span recording for the calling thread."""
        self._local().on = on

    def wrap(self, layer: str, fn: Callable, clock, tally: Callable | None = None) -> Callable:
        """``fn`` timed as a ``layer`` span; ``tally(result, counts)`` may
        add call-site counts from the result."""
        local = self._local
        now_ns = time.perf_counter_ns

        def traced(*args, **kw):
            tl = local()
            if not tl.on:
                return fn(*args, **kw)
            stack = tl.stack
            stack.enter(layer, now_ns(), clock.now())
            try:
                result = fn(*args, **kw)
            finally:
                stack.exit(now_ns(), clock.now())
            if tally is not None:
                tally(result, tl.tally)
            return result

        return traced

    def totals(self) -> dict[str, list[float]]:
        """Per-layer aggregates summed over every thread."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        with self._lock:
            for st in self._stacks:
                for layer, agg in st.totals.items():
                    acc = out[layer]
                    for i, v in enumerate(agg):
                        acc[i] += v
        return dict(out)

    def tallies(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for t in self._tallies:
                for k, v in t.items():
                    out[k] += v
        return dict(out)


# -- installing spans on one rank's objects --------------------------------

_MOTOR_CALLS = (
    "Send", "Ssend", "Recv", "Isend", "Irecv", "Barrier", "Bcast",
    "OSend", "ORecv", "WinCreate",
)
_ENGINE_CALLS = (
    "send", "ssend", "recv", "isend", "irecv", "wait", "wait_all", "test",
    "barrier", "win_create",
)
_WIN_CALLS = ("get", "accumulate", "post", "start", "complete", "wait", "lock", "unlock", "free")


def _patch(obj, name: str, tracer: Tracer, layer: str, clock, tally=None) -> None:
    setattr(obj, name, tracer.wrap(layer, getattr(obj, name), clock, tally))


def _count_empty(result, tally) -> None:
    tally["channels.recv_calls"] += 1
    if not result:
        tally["channels.empty_recvs"] += 1


def _count_bytes_out(result, tally) -> None:
    tally["serialization.bytes_out"] += len(result)


def instrument_rank(tracer: Tracer, ctx, vm=None, indiana=None) -> None:
    """Wrap one rank's public entry points in spans (traced run only)."""
    clock = ctx.clock
    engine = ctx.engine
    for name in _ENGINE_CALLS:
        _patch(engine, name, tracer, "mp.mpi", clock)
    # every progress spin is one layer, the window epochs' poll_until too
    for name in ("wait", "poll", "poll_until"):
        _patch(engine.progress, name, tracer, "mp.progress", clock)
    channel = engine.device.channel
    _patch(channel, "send_packet", tracer, "mp.channels.send", clock)
    _patch(channel, "recv_packets", tracer, "mp.channels.recv", clock, _count_empty)

    win_create = engine.win_create

    def traced_win_create(*args, **kw):
        win = win_create(*args, **kw)
        _patch(win, "fence", tracer, "mp.win.fence", clock)
        _patch(win, "put", tracer, "mp.win.put", clock)
        for name in _WIN_CALLS:
            _patch(win, name, tracer, "mp.win", clock)
        return win

    engine.win_create = traced_win_create

    runtimes = []
    if vm is not None:
        comm = vm.comm_world
        for name in _MOTOR_CALLS:
            _patch(comm, name, tracer, "motor", clock)
        _patch(vm.serializer, "serialize", tracer, "motor.serialization", clock,
               _count_bytes_out)
        _patch(vm.serializer, "deserialize", tracer, "motor.serialization", clock)
        runtimes.append(vm.runtime)
    if indiana is not None:
        _patch(indiana.serializer, "serialize", tracer, "baselines.serializer", clock)
        _patch(indiana.serializer, "deserialize", tracer, "baselines.serializer", clock)
        runtimes.append(indiana.runtime)
    for rt in runtimes:
        _patch(rt.gc, "collect", tracer, "runtime.gc", clock)
        _patch(rt.heap, "alloc_gen1", tracer, "runtime.heap", clock)


def app_span(tracer: Tracer | None, clock, fn: Callable) -> Callable:
    """The application's own work (payloads, list building, checks,
    stencil) as a ``workloads`` span; unchanged when not tracing."""
    return fn if tracer is None else tracer.wrap("workloads", fn, clock)
