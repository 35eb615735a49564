"""Seeded inputs for the four workloads, and the plain reference stencil.

Everything a workload sends or computes on is derived here from the
benchmark's ``--seed`` alone, so the same seed gives byte-identical
inputs (checked by :func:`digest`).  The program under test only ever
receives these generated values.

Sizes are drawn close to fixed class points (4 B, 4 KiB, 256 KiB; the
list-length ladder; the grid width).  A seed therefore moves the virtual
clock a little, while the work a run does stays the same from seed to
seed; run-to-run spread comes from the machine, not from the inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: op classes of the buffer ping-pongs: (class point, ops per pass).
#: 4 B and 4 KiB stay eager; 256 KiB is well past the 128 KiB eager
#: threshold, so it takes the rendezvous protocol.  A seed adds up to
#: 60 bytes to each point.  With 2 of 10 ops rendezvous, the p90 op is
#: the median 256 KiB round trip and the p50 op an eager one; with a
#: smaller rendezvous share the p90 sat in its lower tail and wandered.
BUFFER_CLASSES = ((4, 4), (4096, 4), (256 << 10, 2))

#: object-pingpong ladder: (list elements, ops per flavour per pass).
#: A list of k elements is 2k objects; the top rung (2200 objects) sits
#: past the paper's 2048-object knee.  Small lists dominate the op count
#: (and so the percentiles); large lists take most of the time.
LIST_LADDER = ((2, 30), (32, 4), (256, 1), (1100, 1))

#: total int payload of one list, as in the paper's Figure 10
LIST_TOTAL_BYTES = 4096

#: object-pingpong flavours: Motor OSend/ORecv and the Indiana bindings
#: over the standard CLR binary formatter (SSCLI free build)
LIST_FLAVOURS = ("motor", "indiana-sscli")

#: halo-rma tile: interior rows per rank and the class point of the width
HALO_ROWS = 24
HALO_COLS = 256
#: halo-rma ranks, one tile each, in a ring
HALO_RANKS = 2
#: stencil iterations per pass; each pass restarts from the seeded grid
HALO_ITERATIONS = 8


@dataclass(frozen=True)
class BufferInputs:
    """Per-op sizes and the two payload variants of each size.

    ``schedule`` is the ordered op list of one pass: ``(size, variant)``.
    Rank 0 sends ``ping[size][variant]``; rank 1 answers with
    ``pong[size][variant]``.  Consecutive ops of one size alternate the
    variant, from the warm-up through every pass, so a receive that
    writes nothing cannot pass the check.
    """

    schedule: tuple[tuple[int, int], ...]
    ping: dict
    pong: dict

    def warmup(self) -> tuple[tuple[int, int], ...]:
        """One op per size on variant 1; each size's first timed op is
        variant 0, and every size has an even count per pass."""
        return tuple(sorted({(size, 1) for size, _v in self.schedule}))


@dataclass(frozen=True)
class ListInputs:
    """Ordered ``(flavour, elements)`` ops of one pass."""

    schedule: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class HaloInputs:
    rows: int
    cols: int
    iterations: int
    #: per-rank initial tile, (rows + 2) x cols int32 values, halos included
    tiles: tuple[tuple[int, ...], ...]


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"motorbench:{what}:{seed}")


def buffer_inputs(seed: int) -> BufferInputs:
    rng = _rng(seed, "buffer")
    sizes = [point + 4 * rng.randrange(16) for point, _n in BUFFER_CLASSES]
    ops = [size for size, (_point, n) in zip(sizes, BUFFER_CLASSES) for _ in range(n)]
    rng.shuffle(ops)
    seen: dict[int, int] = {}
    schedule = []
    for size in ops:
        schedule.append((size, seen.get(size, 0) % 2))
        seen[size] = seen.get(size, 0) + 1
    ping = {s: (rng.randbytes(s), rng.randbytes(s)) for s in sizes}
    pong = {s: (rng.randbytes(s), rng.randbytes(s)) for s in sizes}
    return BufferInputs(tuple(schedule), ping, pong)


def list_inputs(seed: int) -> ListInputs:
    rng = _rng(seed, "list")
    ops = [
        (flavour, elements + rng.randrange(3))
        for elements, n in LIST_LADDER
        for flavour in LIST_FLAVOURS
        for _ in range(n)
    ]
    rng.shuffle(ops)
    return ListInputs(tuple(ops))


def halo_inputs(seed: int) -> HaloInputs:
    rng = _rng(seed, "halo")
    rows, cols = HALO_ROWS, HALO_COLS + rng.randrange(16)
    tiles = tuple(
        tuple(rng.randrange(1 << 16) for _ in range((rows + 2) * cols))
        for _ in range(HALO_RANKS)
    )
    return HaloInputs(rows, cols, HALO_ITERATIONS, tiles)


def make_inputs(workload: str, seed: int):
    if workload in ("buffer-pingpong", "reliable-pingpong"):
        return buffer_inputs(seed)
    if workload == "object-pingpong":
        return list_inputs(seed)
    if workload == "halo-rma":
        return halo_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs) -> str:
    """A stable hash of generated inputs (same seed => same digest)."""
    h = hashlib.sha256()
    if isinstance(inputs, BufferInputs):
        h.update(repr(inputs.schedule).encode())
        for table in (inputs.ping, inputs.pong):
            for size in sorted(table):
                for blob in table[size]:
                    h.update(blob)
    else:
        h.update(repr(inputs).encode())
    return h.hexdigest()[:16]


# -- the stencil: one rank's step, and the single-process reference ---------


def stencil_rows(above, rows, below, cols: int) -> list[list[int]]:
    """One 5-point integer stencil step over ``rows`` (lists of ints).

    Vertical neighbours come from the adjacent rows (``above``/``below``
    for the first/last row); horizontal neighbours wrap around.
    """
    out = []
    last = len(rows) - 1
    for i, cur in enumerate(rows):
        lo = rows[i - 1] if i > 0 else above
        hi = rows[i + 1] if i < last else below
        out.append([
            (cur[c] * 4 + lo[c] + hi[c] + cur[c - 1] + cur[(c + 1) % cols]) & 0xFFFF
            for c in range(cols)
        ])
    return out


def reference_interiors(inp: HaloInputs) -> list[list[list[int]]]:
    """Each rank's interior after ``inp.iterations`` steps, computed in one
    process on the global grid.

    The ranks form a ring and each tile's halos come from its neighbours,
    so the global problem is the stacked interiors with periodic rows.
    """
    rows, cols = inp.rows, inp.cols
    grid = []
    for tile in inp.tiles:
        grid.extend(list(tile[r * cols:(r + 1) * cols]) for r in range(1, rows + 1))
    for _ in range(inp.iterations):
        grid = stencil_rows(grid[-1], grid, grid[0], cols)
    return [grid[k * rows:(k + 1) * rows] for k in range(len(inp.tiles))]
