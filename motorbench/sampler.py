"""Wall-time sampling of rank-thread stacks, by package.

cProfile sees only the main thread, and the ranks are other threads, so
a benchmark-side thread reads their stacks at a fixed period.  A sample
is charged to the innermost frame that belongs to a package of
``repro`` (``mp``, ``motor``, ``runtime``, ...) or to the benchmark's own
application code (``workloads``).  A sample whose innermost frame sits on
a ``sleep(0)`` line of ``repro`` is the spin-wait backoff and is also
counted as spin.

The stacks are read with ``faulthandler.dump_traceback`` into a pipe,
not with ``sys._current_frames()``: frame objects handed out by the
latter keep a finished call's locals alive, and a ``memoryview`` kept
alive that way makes the sock channel's own ``del backlog[:n]`` raise
``BufferError`` in the rank thread.  The dump is the same information
with no reference into the ranks.

Under the interpreter lock a sampler only runs when a rank lets go of
the lock.  The sampled world therefore runs with a short switch interval
(:data:`SWITCH_INTERVAL_S`); with the default 5 ms the sampler would run
almost only at the ranks' ``sleep(0)`` calls and never see a compute
phase shorter than that.
"""

from __future__ import annotations

import faulthandler
import fcntl
import linecache
import os
import re
import sys
import threading
from collections import Counter

#: packages a sample can be charged to: the ``repro`` packages on the
#: measured path, "motorbench" (this benchmark's harness) and "other"
#: (any other ``repro`` package, or a stack with no frame of either)
PACKAGES = ("cluster", "motor", "baselines", "runtime", "mp", "pal", "simtime",
            "workloads", "motorbench", "other")

#: interpreter switch interval while the sampled world runs
SWITCH_INTERVAL_S = 0.0005
#: time between two samples of the rank threads' stacks
SAMPLE_PERIOD_S = 0.002

_HERE = os.path.dirname(os.path.abspath(__file__))
#: the benchmark's rank mains and inputs are the application's own code
_APP_FILES = {os.path.join(_HERE, f) for f in ("mains.py", "inputs.py")}
_MARK = os.sep + "repro" + os.sep
_THREAD = re.compile(r"^(?:Current thread|Thread) (0x[0-9a-f]+)")
_FRAME = re.compile(r'^  File "(.*)", line (\d+|\?\?\?) in ')


def package_of(filename: str) -> str | None:
    """The package a source file is charged to, or None to look outward."""
    i = filename.rfind(_MARK)
    if i >= 0:
        rest = filename[i + len(_MARK):]
        pkg = rest.split(os.sep, 1)[0]
        return pkg if pkg in PACKAGES else "other"
    if filename in _APP_FILES:
        return "workloads"
    if filename.startswith(_HERE):
        return "motorbench"
    return None


def parse_dump(text: str) -> dict[int, list[tuple[str, int]]]:
    """``faulthandler`` dump -> {thread ident: [(file, line), innermost first]}."""
    stacks: dict[int, list[tuple[str, int]]] = {}
    current: list | None = None
    for line in text.splitlines():
        m = _THREAD.match(line)
        if m:
            current = stacks.setdefault(int(m.group(1), 16), [])
            continue
        m = _FRAME.match(line)
        if m and current is not None:
            lineno = m.group(2)
            current.append((m.group(1), int(lineno) if lineno.isdigit() else 0))
    return stacks


class Sampler:
    """Samples the rank threads a :class:`mains.Probe` marks as in a pass."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.by_package: Counter = Counter()
        self.spin = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="motorbench-sampler", daemon=True)
        self._lines: dict[tuple[str, int], bool] = {}
        self._interval = sys.getswitchinterval()

    def __enter__(self) -> "Sampler":
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def _is_spin(self, frame: tuple[str, int]) -> bool:
        hit = self._lines.get(frame)
        if hit is None:
            hit = _MARK in frame[0] and linecache.getline(*frame).strip().endswith("sleep(0)")
            self._lines[frame] = hit
        return hit

    def record(self, stack: list[tuple[str, int]]) -> None:
        """Charge one sampled stack (innermost frame first)."""
        if not stack:
            return
        self.samples += 1
        if self._is_spin(stack[0]):
            self.spin += 1
        for filename, _line in stack:
            pkg = package_of(filename)
            if pkg is not None:
                self.by_package[pkg] += 1
                return
        self.by_package["other"] += 1

    def _run(self) -> None:
        rfd, wfd = os.pipe()
        os.set_blocking(rfd, False)
        # the dump is written while holding the interpreter lock: the pipe
        # must take a whole dump without the writer blocking
        fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, 1 << 20)
        try:
            while not self._stop.wait(SAMPLE_PERIOD_S):
                with self.probe.lock:
                    active = set(self.probe.active)
                if not active:
                    continue
                faulthandler.dump_traceback(wfd, all_threads=True)
                chunks = []
                while True:
                    try:
                        chunk = os.read(rfd, 1 << 16)
                    except BlockingIOError:
                        break
                    chunks.append(chunk)
                    if len(chunk) < 1 << 16:
                        break
                stacks = parse_dump(b"".join(chunks).decode(errors="replace"))
                for ident in active:
                    self.record(stacks.get(ident, []))
        finally:
            os.close(rfd)
            os.close(wfd)

    def shares(self) -> dict[str, float]:
        n = self.samples or 1
        out = {f"sample.{p}.share": self.by_package[p] / n for p in PACKAGES}
        out["sample.spin_sleep_share"] = self.spin / n
        return out
