"""The progress core, its polling-wait, and the async progress driver.

Motor replaced MPICH2's blocking system calls with "a polling-wait, which
periodically releases and polls the garbage collector ... to ensure that
the thread performing the FCall does not block the entire runtime when a
garbage collection is required" (paper §7.1).  The ``yield_fn`` hook is
where each integration plugs its own discipline:

* Motor passes the runtime's safepoint poll *plus* its deferred-pinning
  policy callback (§7.4);
* the wrapper baselines pass nothing — their native MPI library knows
  nothing about the collector, which is exactly the architectural problem
  the paper identifies.

Besides point-to-point requests, the progress core executes collective
*schedules* (:mod:`repro.mp.schedule`): each registered schedule is
advanced once per poll, which is what makes ``ibarrier``/``ibcast``/…
progress while the caller computes.

The layering here is MPICH's progress split made explicit:

:class:`ProgressCore`
    The one callable progress step — device poll plus schedule
    advancement — with counters distinguishing caller-initiated from
    async-initiated steps.  Everything that completes a request goes
    through :meth:`ProgressCore.step`, and every blocking wait through
    :meth:`ProgressCore.block_until`.
:class:`ProgressEngine`
    The caller-facing façade: the polling-wait family (``wait``,
    ``wait_all``, ``poll_until``, ``test``) built on the core.
:class:`AsyncProgressDriver`
    Progress mode ``"async"``: a recurring task on the rank's clock
    (:mod:`repro.simtime.sched`) steps the core whenever simulated time
    advances — during application *compute*, not just library calls.  The
    driver is the seam where a real progress thread plugs in later.

Every blocking wait of the stack — ``wait``/``wait_all``/``poll_until``
here, ``MpiEngine.wait_any``/``probe``, the recovery agreement rounds and
``World.quiesce`` — is one call to :meth:`ProgressCore.block_until`, the
single place a rank waits.  After an idle step it *parks* on the rank's
doorbell (:class:`repro.mp.channels.base.Doorbell`), which the channel
rings on every delivery, so the peer thread gets the CPU at once and the
waiter wakes the moment a packet lands.  It parks only when nothing but a
delivery can make progress: the device owes no poll-counted work
(:attr:`~repro.mp.ch3.CH3Device.needs_polling`) and the channel stack has
a doorbell.  While a doorbell stack owes such work (typically an
unacked reliable packet) it yields with ``sleep(0)`` after every idle
step, so the peer gets the CPU to answer before the retransmit timer
runs out.  Fault-wrapped stacks and the proc channel have no doorbell,
so there the wait spins as before — ``SPIN_POLLS`` idle steps, then a
``sleep(0)`` — and the poll-counted fault delays and reliability timers
see exactly the poll cadence they always did.

The wait is bounded two ways ("MPI Progress For All"): an optional wall
deadline raises :class:`MpiErrTimeout`, and a request completed with
``MPI_ERR_PROC_FAILED`` (the reliability sublayer's dead-peer verdict)
raises :class:`MpiErrProcFailed` instead of returning garbage — so a dead
peer can never wedge the polling loop.  The wait hooks fire on entry, on
exit, and on every park that times out (every ``SPIN_POLLS`` idle steps
when spinning): that quiet moment is when the sanitizer looks for a
cross-rank deadlock knot.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.mp.ch3 import CH3Device
from repro.mp.errors import MpiErrProcFailed, MpiErrTimeout
from repro.mp.hooks import NULL_SPINE
from repro.mp.reliability import PROC_FAILED
from repro.mp.request import Request
from repro.simtime.sched import ensure_scheduler

#: how long an idle waiter parks on its rank's doorbell before it steps
#: again (seconds).  A ring ends the park at once; the timeout only bounds
#: how late the waiter notices a condition no delivery announces (a peer
#: rank finishing, a wall deadline) and sets the deadlock-check cadence.
PARK_TIMEOUT_S = 0.002
#: idle steps between two ``sleep(0)`` yields when the waiter cannot park
SPIN_POLLS = 64

#: scheduler key for a rank's async progress task — keyed (not per-engine)
#: so an engine rebuilt on the same clock (communicator shrink, rank
#: replacement) *replaces* the driver instead of leaving an orphan polling
#: a retired device
ASYNC_TASK_KEY = "mp.progress"


class ProgressCore:
    """One rank's callable progress step: device poll + schedules.

    Both the caller's polling-wait and the async driver funnel through
    :meth:`step`; the ``from_async`` flag keeps the overlap ledger —
    packets handled while the application computes versus packets handled
    because the caller entered the library.
    """

    def __init__(self, device: CH3Device, yield_fn: Callable[[], None] | None = None) -> None:
        self.device = device
        self.yield_fn = yield_fn
        #: None on simulated substrates (single-threaded per rank, zero
        #: overhead); a threading.RLock when a ThreadAsyncProgressDriver
        #: steps this core concurrently with the owning rank
        self.lock = None
        #: the rank's hook spine (wait enter/tick/exit feed the sanitizer's
        #: cross-rank wait-for graph; polls are exported as pull-model pvars)
        self.hooks = NULL_SPINE
        self.polls = 0
        self.idle_polls = 0
        #: steps initiated by the async driver rather than a caller
        self.async_polls = 0
        #: packets handled, total and by async-initiated steps
        self.handled = 0
        self.async_handled = 0
        #: collective schedules the progress core is executing
        self._schedules: list = []
        #: re-entrancy guard: a charge made *inside* device.poll (copy
        #: costs, merges) may drive the clock's scheduler; the nested step
        #: must not re-enter the device mid-poll
        self._in_step = False

    def add_schedule(self, sched) -> None:
        """Register a collective schedule for per-poll advancement."""
        self._schedules.append(sched)

    def step(self, from_async: bool = False) -> int:
        """One progress step; returns the number of packets handled.

        Async-initiated steps defer clock merges: a packet handled while
        the application computes records its arrival as a pending causal
        floor instead of jumping the rank clock (which would serialise the
        wire latency into compute time).  Caller-initiated steps fold the
        floor back in — entering the library is a consumption point, which
        is exactly when polled mode would have merged.
        """
        lock = self.lock
        if lock is None:
            return self._step(from_async)
        with lock:
            return self._step(from_async)

    def _step(self, from_async: bool) -> int:
        if self._in_step:
            return 0
        clock = self.device.clock
        defer_prev = False
        if from_async:
            defer_prev = clock.defer_merges
            clock.defer_merges = True
        self._in_step = True
        try:
            self.polls += 1
            if from_async:
                self.async_polls += 1
            handled = self.device.poll()
            if self._schedules:
                for sched in list(self._schedules):
                    if sched.step():
                        self._schedules.remove(sched)
            if handled == 0:
                self.idle_polls += 1
            else:
                self.handled += handled
                if from_async:
                    self.async_handled += handled
            if not from_async and self.yield_fn is not None:
                # async-initiated steps skip the safepoint/pinning yield:
                # they run *inside* a charge, possibly mid-allocation —
                # not a safe point by definition
                self.yield_fn()
            return handled
        finally:
            self._in_step = False
            if from_async:
                clock.defer_merges = defer_prev
            else:
                clock.apply_pending()

    @property
    def overlap_ratio(self) -> float:
        """Fraction of handled packets progressed by the async driver."""
        return self.async_handled / self.handled if self.handled else 0.0

    def block_until(self, cond: Callable[[], bool], deadline: float | None = None,
                    what: str = "condition unmet", waiting_on=None) -> None:
        """Step until ``cond()`` holds: the one blocking wait of the stack.

        ``deadline`` (``time.monotonic()`` seconds) raises
        :class:`MpiErrTimeout` with message ``what``.  ``waiting_on`` is
        what the wait hooks receive: the awaited request, a tuple of them
        (any one completing ends the wait), or None for a wait on no
        request.
        """
        h = self.hooks
        cbs = h.wait_enter
        if cbs:
            for cb in cbs:
                cb(waiting_on)
        try:
            device = self.device
            bell = device.channel.doorbell
            idle = 0
            while not cond():
                seen = bell.seq if bell is not None else 0
                if self.step():
                    idle = 0
                elif cond():
                    break
                elif bell is not None and not device.needs_polling:
                    park = PARK_TIMEOUT_S
                    if deadline is not None:
                        park = min(park, max(0.0, deadline - time.monotonic()))
                    if not bell.park(seen, park):
                        self._tick(waiting_on)
                elif bell is None or not device.streaming:
                    # Let the peer thread run (simulated SwitchToThread).
                    # Without a doorbell, spin like real MPICH2 before
                    # backing off.  A doorbell stack that may not park
                    # yields every step: its timers need polls, and the
                    # peer needs the CPU to answer (an ack).  One in the
                    # middle of a stream just pumps on.
                    idle += 1
                    if bell is not None or idle == SPIN_POLLS:
                        time.sleep(0)
                    if idle == SPIN_POLLS:
                        idle = 0
                        self._tick(waiting_on)
                # checked every iteration: a chatty-but-stuck peer
                # (heartbeats, retransmits) must not defeat the bound
                if deadline is not None and time.monotonic() > deadline and not cond():
                    raise MpiErrTimeout(what)
        finally:
            cbs = h.wait_exit
            if cbs:
                for cb in cbs:
                    cb(waiting_on)
        # the condition may have come true during application compute
        # (async progress) — consuming it is where the arrival time lands
        self.device.clock.apply_pending()

    def _tick(self, waiting_on) -> None:
        ticks = self.hooks.wait_tick
        if ticks:
            for cb in ticks:
                cb(waiting_on)


class AsyncProgressDriver:
    """Progress mode ``"async"``: steps a core on the clock's cadence.

    Registers a recurring task (period ``async_poll_period_ns``) on the
    rank clock's :class:`~repro.simtime.sched.TaskScheduler`, so the core
    is stepped whenever the rank charges simulated work — decoupling
    progression from library entry.  A future real-execution mode replaces
    this with a thread calling ``core.step(from_async=True)`` on a wall
    cadence; nothing above this class would change.
    """

    def __init__(self, core: ProgressCore, clock, period_ns: float) -> None:
        self.core = core
        self.clock = clock
        self.period_ns = float(period_ns)
        self.task = None

    def start(self) -> None:
        sched = ensure_scheduler(self.clock)
        self.task = sched.schedule(ASYNC_TASK_KEY, self._tick, self.period_ns)

    def stop(self) -> None:
        if self.task is not None and not self.task.cancelled:
            sched = self.clock.scheduler
            if sched is not None and self.task in sched._tasks:
                sched.cancel(ASYNC_TASK_KEY)
        self.task = None

    @property
    def running(self) -> bool:
        return self.task is not None and not self.task.cancelled

    def _tick(self) -> None:
        self.core.step(from_async=True)


class ThreadAsyncProgressDriver:
    """Progress mode ``"async"`` on a real substrate: a daemon thread.

    The seam :class:`AsyncProgressDriver` documents, filled in: where
    the simulated substrate steps the core whenever the rank's *clock*
    advances, a real multi-process world has no simulated clock driving
    anything — so a daemon thread calls ``core.step(from_async=True)``
    on a wall cadence instead.  Construction installs ``core.lock`` (an
    RLock), which serialises the thread's steps against the owning
    rank's device calls; on simulated substrates the lock stays ``None``
    and the hot path pays a single ``is None`` test.
    """

    def __init__(self, core: ProgressCore, period_s: float = 50e-6) -> None:
        import threading

        self.core = core
        self.period_s = max(float(period_s), 10e-6)
        if core.lock is None:
            core.lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: set if the progress loop died; surfaced instead of silence
        self.error: BaseException | None = None

    def start(self) -> None:
        import threading

        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mp-progress", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        t = self._thread
        if t is not None:
            t.join(timeout=2.0)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        step = self.core.step
        wait = self._stop.wait
        period = self.period_s
        while not self._stop.is_set():
            try:
                step(from_async=True)
            except BaseException as exc:  # keep the verdict, stop spinning
                self.error = exc
                return
            wait(period)


class ProgressEngine:
    """Drives one rank's device until requests complete."""

    def __init__(self, device: CH3Device, yield_fn: Callable[[], None] | None = None,
                 core: ProgressCore | None = None) -> None:
        self.core = core if core is not None else ProgressCore(device, yield_fn)

    # -- façade over the core (existing call sites keep working) ----------

    @property
    def device(self) -> CH3Device:
        return self.core.device

    @property
    def yield_fn(self):
        return self.core.yield_fn

    @yield_fn.setter
    def yield_fn(self, fn) -> None:
        self.core.yield_fn = fn

    @property
    def hooks(self):
        return self.core.hooks

    @hooks.setter
    def hooks(self, spine) -> None:
        self.core.hooks = spine

    @property
    def polls(self) -> int:
        return self.core.polls

    @property
    def idle_polls(self) -> int:
        return self.core.idle_polls

    @property
    def async_polls(self) -> int:
        return self.core.async_polls

    @property
    def overlap_ratio(self) -> float:
        return self.core.overlap_ratio

    @property
    def _schedules(self) -> list:
        return self.core._schedules

    def add_schedule(self, sched) -> None:
        self.core.add_schedule(sched)

    def poll(self) -> int:
        """One caller-initiated progress step."""
        return self.core.step()

    # -- the polling-wait family ------------------------------------------

    def _check_failed(self, req: Request) -> None:
        if req.status.error == PROC_FAILED:
            raise MpiErrProcFailed(
                f"peer {req.peer} failed during {req.kind}",
                failed=frozenset(self.core.device.failed_ranks),
            )

    def wait(self, req: Request, timeout: float | None = None) -> None:
        """Polling-wait until the request completes.

        ``timeout`` (seconds, wall time) bounds the wait and raises
        :class:`MpiErrTimeout`; a request that completes with a dead peer
        raises :class:`MpiErrProcFailed`.
        """
        self._wait(req, None if timeout is None else time.monotonic() + timeout, timeout)

    def _wait(self, req: Request, deadline: float | None, timeout: float | None) -> None:
        self.core.block_until(
            lambda: req.completed, deadline,
            f"request {req.op_id} incomplete after {timeout}s", req,
        )
        self._check_failed(req)

    def poll_until(self, cond: Callable[[], bool], timeout: float | None = None,
                   what: str = "condition") -> None:
        """Poll until ``cond()`` holds; the recovery protocols' wait.

        Unlike :meth:`wait` this is not tied to a single request — the
        agreement and snapshot-redistribution rounds juggle a shifting
        set of requests whose failures are part of the protocol, not an
        error.  The wall ``timeout`` still bounds the wait (``MPI
        Progress For All``: no recovery step may hang forever), raising
        :class:`MpiErrTimeout` naming ``what``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        self.core.block_until(cond, deadline, f"{what} unmet after {timeout}s")

    def wait_all(self, reqs: Iterable[Request], timeout: float | None = None) -> None:
        """Wait for every request; ``timeout`` bounds the whole batch.

        Once the batch deadline has passed, any request still incomplete
        raises :class:`MpiErrTimeout` immediately — no zero-timeout wait
        cycles for the stragglers.  Requests that already completed are
        still checked for dead-peer failure.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for req in reqs:
            if deadline is not None and not req.completed and time.monotonic() >= deadline:
                raise MpiErrTimeout(
                    f"request {req.op_id} incomplete after {timeout}s (batch deadline)"
                )
            self._wait(req, deadline, timeout)

    def test(self, req: Request) -> bool:
        self.core.step()
        if req.completed:
            self._check_failed(req)
        return req.completed
