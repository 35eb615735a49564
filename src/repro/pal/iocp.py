"""I/O completion port simulation.

The MPICH2 Windows sock channel is built on IOCP, which the SSCLI PAL does
*not* expose — which is precisely why the sock channel stayed below the PAL
in Motor (paper §7.1).  This module provides the same programming model:
handles are associated with a port, readiness posts a completion packet,
and a progress loop drains the port with ``get_queued_completion_status``.
A port may also carry its owner's doorbell, which every posted completion
rings, so a waiter parked outside the port still wakes on arrival.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.pal.pipes import BytePipe


@dataclass(frozen=True)
class CompletionPacket:
    """One dequeued completion: which handle fired and an opaque key."""

    key: Any
    handle: Any
    bytes_transferred: int = 0


class CompletionPort:
    """A queue of I/O completion packets fed by associated pipes."""

    def __init__(self, name: str = "", doorbell: Any = None) -> None:
        self.name = name
        #: rung after every posted completion (anything with ``ring()``)
        self.doorbell = doorbell
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queue: deque[CompletionPacket] = deque()
        self._keys: dict[int, Any] = {}
        self._closed = False

    def associate(self, pipe: BytePipe, key: Any) -> None:
        """Associate a pipe with this port; readiness posts a packet."""
        self._keys[id(pipe)] = key
        pipe.add_readable_listener(self._pipe_readable)
        # If data is already buffered, surface it immediately.
        if pipe.peek_available() or pipe.closed:
            self._pipe_readable(pipe)

    def _pipe_readable(self, pipe: BytePipe) -> None:
        key = self._keys.get(id(pipe))
        with self._lock:
            if self._closed:
                return
            self._queue.append(
                CompletionPacket(key=key, handle=pipe, bytes_transferred=pipe.peek_available())
            )
            self._ready.notify()
        if self.doorbell is not None:
            self.doorbell.ring()

    def post(self, key: Any, handle: Any = None, nbytes: int = 0) -> None:
        """Manually post a completion packet (PostQueuedCompletionStatus)."""
        with self._lock:
            self._queue.append(CompletionPacket(key=key, handle=handle, bytes_transferred=nbytes))
            self._ready.notify()
        if self.doorbell is not None:
            self.doorbell.ring()

    def get_queued_completion_status(self, timeout: float | None = 0.0) -> CompletionPacket | None:
        """Dequeue one packet; ``None`` on timeout (seconds; 0 = poll)."""
        with self._lock:
            if not self._queue:
                if timeout == 0.0:
                    return None
                ok = self._ready.wait_for(lambda: bool(self._queue) or self._closed, timeout)
                if not ok or not self._queue:
                    return None
            return self._queue.popleft()

    def drain(self) -> list[CompletionPacket]:
        """Dequeue everything currently pending (poll-mode helper)."""
        with self._lock:
            out = list(self._queue)
            self._queue.clear()
            return out

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.clear()
            self._ready.notify_all()
