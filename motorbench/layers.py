"""The benchmark's metric catalogue and the layer map.

Layers are named after the ``repro`` packages on the measured path:
``cluster`` (World boot, quiesce), ``motor`` (the MotorCommunicator call
surface, pinning policy, serializer), ``baselines`` (the Indiana CLR
binary serializer), ``runtime`` (heap, collector), ``mp`` (mpi,
progress, ch3, reliability, channels, win), ``simtime`` (clock charges)
and ``workloads`` (the application's own work).

Every per-layer metric below names the end-to-end metric it should move
and the workload on which it should move it; that is written down before
any change is measured, so a change can be checked against it.
"""

from __future__ import annotations

import re

from spans import CALLS, SELF_VIRT, SELF_WALL

#: repro packages the benchmark leaves unmeasured, and why
UNMEASURED = {
    "obs": "observability subscribers; never attached on the measured path",
    "analyze": "static analyzer and runtime sanitizer; off the measured path",
    "il": "IL assembler/verifier/engine; the workloads call System.MP from Python",
    "pal": "byte pipes under the sock channel; timed inside mp.channels spans, sampled on its own",
    "bench": "the repo's figure and ablation runner; this benchmark replaces it here",
}

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Wall times are in reference loops (unit ``ref``, ``mains.reference_ns``):
#: wall seconds follow the host's drifting speed (README, "Workloads").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "ref", "lower", 0.25),
    ("op_wall_ref_p50", "ref", "lower", 0.25),
    ("op_wall_ref_p90", "ref", "lower", 0.25),
    ("virtual_us_per_op", "us", "lower", 0.06),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

WORKLOADS = {
    "buffer-pingpong": (
        "Motor Send/Recv round trips over sock, 4 B/4 KiB eager and 256 KiB rendezvous: "
        "waiting, progress, the FCall gate and ch3 do the work; the control for serializer, "
        "heap, reliability and RMA"
    ),
    "reliable-pingpong": (
        "the same inputs with the reliability sublayer forced on over a fault-free wire "
        "(A10): its only difference from buffer-pingpong is mp.reliability"
    ),
    "object-pingpong": (
        "linked-list round trips from 4 to 2204 objects, Motor OSend/ORecv alternating "
        "with Indiana-SSCLI: serializer, managed heap and GC do most of the work"
    ),
    "halo-rma": (
        "2-D halo exchange over native shm windows (fence/put) plus an integer stencil: "
        "the only RMA workload, dominated by application compute"
    ),
}

#: (name, unit, better, what it should move, and where)
PER_LAYER = (
    ("mp.progress.wait_ms", "ms/op", "lower", "op_wall_ref_p50, wall_ref on buffer-pingpong; none on halo-rma"),
    ("mp.progress.wait_calls", "1/op", "lower", "op_wall_ref_p50, wall_ref on buffer-pingpong; none on halo-rma"),
    ("mp.progress.polls", "1/op", "lower", "op_wall_ref_p50, wall_ref on buffer-pingpong; none on halo-rma"),
    ("mp.progress.idle_polls", "1/op", "lower", "op_wall_ref_p50, wall_ref on buffer-pingpong; none on halo-rma"),
    ("mp.progress.useful_poll_ratio", "ratio", "higher", "op_wall_ref_p50, wall_ref on buffer-pingpong; none on halo-rma"),
    ("mp.reliability.retransmits", "1/op", "lower", "virtual_us_per_op, op_wall_ref_p90 on reliable-pingpong; 0 on buffer-pingpong"),
    ("mp.reliability.acks_sent", "1/op", "lower", "virtual_us_per_op, op_wall_ref_p90 on reliable-pingpong; 0 on buffer-pingpong"),
    ("mp.reliability.dup_dropped", "1/op", "lower", "virtual_us_per_op, op_wall_ref_p90 on reliable-pingpong; 0 on buffer-pingpong"),
    ("mp.reliability.useful_send_ratio", "ratio", "higher", "virtual_us_per_op, op_wall_ref_p90 on reliable-pingpong; 1 on buffer-pingpong"),
    ("cluster.quiesce_ms", "ms", "lower", "virtual_us_per_op, op_wall_ref_p90 on reliable-pingpong; 0 on buffer-pingpong"),
    ("runtime.heap.alloc_gen1_calls", "1/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.heap.alloc_gen1_ms", "ms/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.heap.free_list_len", "count", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.heap.fragmentation_bytes", "B/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.gc.collect_ms", "ms/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.gc.collections", "1/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.gc.objects_promoted", "1/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("runtime.gc.pinned_collections", "1/op", "lower", "wall_ref on object-pingpong; none on buffer-pingpong"),
    ("motor.serialization.self_ms", "ms/op", "lower", "wall_ref on object-pingpong"),
    ("motor.serialization.calls", "1/op", "lower", "wall_ref on object-pingpong"),
    ("motor.serialization.bytes_out", "B/op", "lower", "wall_ref on object-pingpong"),
    ("baselines.serializer.self_ms", "ms/op", "lower", "wall_ref on object-pingpong"),
    ("baselines.serializer.calls", "1/op", "lower", "wall_ref on object-pingpong"),
    ("motor.calls", "1/op", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.self_us_per_call", "us", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.virtual_ns_per_call", "ns", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.pinpolicy.checks", "1/op", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.pinpolicy.elder_skips", "1/op", "higher", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.pinpolicy.deferred", "1/op", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("motor.pinpolicy.conditional_registered", "1/op", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("runtime.gc.pin_calls", "1/op", "lower", "virtual_us_per_op on buffer-pingpong at small sizes"),
    ("mp.ch3.eager", "1/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.ch3.rndv", "1/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.ch3.unexpected", "1/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.ch3.bytes_moved", "B/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.ch3.copies_per_byte", "ratio", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.channels.send_calls", "1/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.channels.send_us", "us/op", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.channels.empty_recv_ratio", "ratio", "lower", "op_wall_ref_p50 on buffer-pingpong at 256 KiB"),
    ("mp.win.fence_calls", "1/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.fence_ms", "ms/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.put_calls", "1/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.native_ops", "1/op", "higher", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.emulated_ops", "1/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.rma_copied_bytes", "B/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("mp.win.virtual_comm_ms", "ms/op", "lower", "wall_ref, virtual_us_per_op on halo-rma"),
    ("workloads.app_ms", "ms/op", "lower", "the share of wall_ref no communication change can touch, on halo-rma and object-pingpong"),
    ("simtime.charges_per_op", "1/op", "lower", "virtual_us_per_op on every workload"),
    ("cluster.boot_ms", "ms", "lower", "setup_s on every workload"),
    ("sample.samples", "count", "higher", "the base of every sample share"),
    ("sample.spin_sleep_share", "ratio", "lower", "op_wall_ref_p50, wall_ref on buffer-pingpong (target under 0.1)"),
) + tuple(
    (f"sample.{pkg}.share", "ratio", better, "where wall_ref goes, by package")
    for pkg, better in (
        ("cluster", "lower"), ("motor", "lower"), ("baselines", "lower"),
        ("runtime", "lower"), ("mp", "lower"), ("pal", "lower"), ("simtime", "lower"),
        ("workloads", "higher"), ("motorbench", "lower"), ("other", "lower"),
    )
) + (
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced pass wall time, minus 1"),
    ("invariant.fault_free_retransmits", "count", "lower", "must be 0: no fault is injected on any workload"),
    ("invariant.fault_free_retransmits_ok", "bool", "higher", "1 when invariant.fault_free_retransmits is 0"),
    ("invariant.native_rma_copied_bytes", "B", "lower", "must be 0: native windows land puts without copies"),
    ("invariant.native_rma_copied_bytes_ok", "bool", "higher", "1 when invariant.native_rma_copied_bytes is 0"),
    ("invariant.virtual_spread", "ratio", "lower", "per-pass virtual time (max-min)/median; 0 when repeatable"),
    ("invariant.virtual_repeatable_ok", "bool", "higher", "1 when every pass of every run reads the same virtual time"),
    ("invariant.trace_mismatches", "count", "lower", "per-pass counts that differ between traced and untraced runs"),
    ("invariant.trace_unperturbed_ok", "bool", "higher", "1 when tracing left every per-pass count and the virtual time unchanged"),
)

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_catalogue() -> list[str]:
    """Problems with metric names/units (empty when the catalogue is valid)."""
    problems = []
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER] + list(WORKLOADS)
    for name in names:
        if not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("duplicate names")
    for m in END_TO_END + PER_LAYER:
        if not _UNIT.match(m[1]):
            problems.append(f"bad unit {m[1]!r} of {m[0]}")
        if m[2] not in ("lower", "higher"):
            problems.append(f"bad direction of {m[0]}")
    for name, _unit, _better, bound in END_TO_END:
        if not 0 < bound <= 0.25:
            problems.append(f"bound of {name} out of range")
    return problems


def benchmark_json() -> dict:
    """The repo-root BENCHMARK.json this catalogue describes."""
    return {
        "command": ["python3", "motorbench/run.py"],
        "paths": ["motorbench"],
        "run_seconds": 28,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _m in PER_LAYER],
    }


# -- per-layer values from one traced world and its untraced twin -------------


def _per(v: float, ops: int) -> float:
    return v / ops if ops else 0.0


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def per_layer_values(traced, spans: dict, tallies: dict) -> dict[str, float]:
    """Layer metrics of the traced world.

    ``traced`` is the world's summary (counter deltas summed over both
    ranks, timed ops of rank 0, quiesce and boot times); ``spans`` the
    tracer's per-layer aggregates (see :mod:`spans`); ``tallies`` its
    call-site counts.
    """
    c, ops = traced.counts, traced.ops

    def span(layer: str, field: int) -> float:
        return spans.get(layer, [0, 0.0, 0.0, 0.0, 0.0])[field]

    def self_ms(layer: str) -> float:
        return _per(span(layer, SELF_WALL), ops) / 1e6

    sends = span("mp.channels.send", CALLS)
    wasted = c["rel.retransmits"] + c["rel.acks_sent"] + c["rel.pings_sent"]
    motor_calls = span("motor", CALLS)
    return {
        "mp.progress.wait_ms": self_ms("mp.progress"),
        "mp.progress.wait_calls": _per(span("mp.progress", CALLS), ops),
        "mp.progress.polls": _per(c["progress.polls"], ops),
        "mp.progress.idle_polls": _per(c["progress.idle_polls"], ops),
        "mp.progress.useful_poll_ratio": _ratio(
            c["progress.polls"] - c["progress.idle_polls"], c["progress.polls"], 0.0),
        "mp.reliability.retransmits": _per(c["rel.retransmits"], ops),
        "mp.reliability.acks_sent": _per(c["rel.acks_sent"], ops),
        "mp.reliability.dup_dropped": _per(c["rel.dup_dropped"], ops),
        "mp.reliability.useful_send_ratio": _ratio(sends - wasted, sends, 1.0),
        "cluster.quiesce_ms": traced.quiesce_ms,
        "runtime.heap.alloc_gen1_calls": _per(span("runtime.heap", CALLS), ops),
        "runtime.heap.alloc_gen1_ms": self_ms("runtime.heap"),
        "runtime.heap.free_list_len": traced.free_list_len,
        "runtime.heap.fragmentation_bytes": _per(c["heap.fragmentation_bytes"], ops),
        "runtime.gc.collect_ms": self_ms("runtime.gc"),
        "runtime.gc.collections": _per(c["gc.collections"], ops),
        "runtime.gc.objects_promoted": _per(c["gc.objects_promoted"], ops),
        "runtime.gc.pinned_collections": _per(c["gc.pinned_collections"], ops),
        "motor.serialization.self_ms": self_ms("motor.serialization"),
        "motor.serialization.calls": _per(span("motor.serialization", CALLS), ops),
        "motor.serialization.bytes_out": _per(tallies.get("serialization.bytes_out", 0), ops),
        "baselines.serializer.self_ms": self_ms("baselines.serializer"),
        "baselines.serializer.calls": _per(span("baselines.serializer", CALLS), ops),
        "motor.calls": _per(c["motor.fcalls"], ops),
        "motor.self_us_per_call": _ratio(span("motor", SELF_WALL), motor_calls, 0.0) / 1e3,
        "motor.virtual_ns_per_call": _ratio(span("motor", SELF_VIRT), motor_calls, 0.0),
        "motor.pinpolicy.checks": _per(c["pinpolicy.checks"], ops),
        "motor.pinpolicy.elder_skips": _per(c["pinpolicy.elder_skips"], ops),
        "motor.pinpolicy.deferred": _per(c["pinpolicy.deferred"], ops),
        "motor.pinpolicy.conditional_registered": _per(c["pinpolicy.conditional_registered"], ops),
        "runtime.gc.pin_calls": _per(c["gc.pin_calls"], ops),
        "mp.ch3.eager": _per(c["ch3.eager"], ops),
        "mp.ch3.rndv": _per(c["ch3.rndv"], ops),
        "mp.ch3.unexpected": _per(c["ch3.unexpected"], ops),
        "mp.ch3.bytes_moved": _per(c["ch3.bytes_moved"], ops),
        "mp.ch3.copies_per_byte": _ratio(c["ch3.bytes_copied"], c["ch3.bytes_moved"], 0.0),
        "mp.channels.send_calls": _per(sends, ops),
        "mp.channels.send_us": _per(span("mp.channels.send", SELF_WALL), ops) / 1e3,
        "mp.channels.empty_recv_ratio": _ratio(
            tallies.get("channels.empty_recvs", 0), tallies.get("channels.recv_calls", 0), 0.0),
        "mp.win.fence_calls": _per(span("mp.win.fence", CALLS), ops),
        "mp.win.fence_ms": self_ms("mp.win.fence"),
        "mp.win.put_calls": _per(span("mp.win.put", CALLS), ops),
        "mp.win.native_ops": _per(c["win.native_ops"], ops),
        "mp.win.emulated_ops": _per(c["win.emulated_ops"], ops),
        "mp.win.rma_copied_bytes": _per(c["win.rma_copied"], ops),
        "mp.win.virtual_comm_ms": _per(c["win.comm_virtual_ns"], ops) / 1e6,
        "workloads.app_ms": self_ms("workloads"),
        "simtime.charges_per_op": _per(c["simtime.charges"], ops),
        "cluster.boot_ms": traced.boot_ms,
    }
