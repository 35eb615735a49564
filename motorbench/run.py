"""Motor stack benchmark: four closed-loop workloads, one command.

    python3 motorbench/run.py --workload buffer-pingpong --seed 1 --seconds 28 --trace 0

``--trace 0`` boots the workload's world four times, each for a quarter
of ``--seconds`` of timed passes, and prints the end-to-end metrics;
the gated wall times are in reference loops (``mains.reference_ns``),
timed beside every segment of a pass.
``--trace 1`` instead boots three worlds, a third of ``--seconds`` each:
untraced, traced (layer spans) and sampled (stack sampler), and prints
the per-layer metrics, the tracing overhead and the invariant verdicts.  Human-readable lines come
first; the last line is one JSON object.  The exit code is 1 when any
correctness check fails, 2 when the program cannot be imported.

Run from the root of a checkout: the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: worlds booted per phase of an end-to-end run; setup_s is their median
WORLDS = 4


class WorldRun:
    """What one booted world measured, summed over its two ranks."""

    def __init__(self, t_boot: float, probe, results, quiesce_ns: list[int]) -> None:
        r0 = results[0]
        self.setup_s = r0["t_first"] - t_boot
        self.boot_ms = (max(probe.entered.values()) - t_boot) * 1e3
        self.ops = r0["timed_ops"]
        self.attempted = r0["ops"]
        self.failed = min(self.attempted, sum(r["failed"] for r in results))
        self.errors = [e for r in results for e in r["errors"]]
        self.lat_ns = r0["lat_ns"]
        self.lat_ref = r0["lat_ref"]
        self.pass_wall_ns = r0["pass_wall_ns"]
        self.pass_cost = r0["pass_cost"]
        self.virt_ns = sum(r0["pass_virt_ns"])
        per_pass_ops = self.ops / len(r0["pass_virt_ns"])
        self.pass_virt_us = [v / per_pass_ops / 1e3 for v in r0["pass_virt_ns"]]
        self.per_pass = [r["per_pass"] for r in results]
        self.counts = {k: sum(r["totals"][k] for r in results) for k in r0["totals"]}
        self.free_list_len = sum(r["free_list_len"] for r in results)
        self.quiesce_ms = sum(quiesce_ns) / len(quiesce_ns) / 1e6 if quiesce_ns else 0.0


def run_world(workload: str, inputs, budget_s: float, expected=None, tracer=None,
              count_copies: bool = False, sample: bool = False, calibrate: bool = False):
    """Boot one world, run the workload for ``budget_s`` timed seconds."""
    from repro.cluster.world import World

    from mains import Plan, RankMain
    from sampler import Sampler

    plan = Plan(workload, inputs, budget_s, tracer, count_copies, calibrate)
    quiesce_ns: list[int] = []
    t_boot = time.perf_counter()
    world = World(
        2,
        channel="shm" if workload == "halo-rma" else "sock",
        clock_mode="virtual",
        reliable=workload == "reliable-pingpong",
    )
    if tracer is not None:
        quiesce = world.quiesce

        def timed_quiesce(*args, **kw):
            t0 = time.perf_counter_ns()
            try:
                return quiesce(*args, **kw)
            finally:
                quiesce_ns.append(time.perf_counter_ns() - t0)

        world.quiesce = timed_quiesce
    main = RankMain(plan, expected)
    timeout = budget_s + 60.0
    sampler = Sampler(plan.probe) if sample else None
    try:
        if sampler is not None:
            with sampler:
                results = world.launch(2, main, timeout=timeout)
        else:
            results = world.launch(2, main, timeout=timeout)
    except TimeoutError as exc:
        # a rank that raised leaves its peer waiting; name the cause
        raise TimeoutError("; ".join([str(exc)] + plan.probe.errors)) from None
    run = WorldRun(t_boot, plan.probe, results, quiesce_ns)
    # the world's heaps sit in reference cycles; free them before the next
    # world boots so peak_rss_mb is one world's footprint
    del world, main, plan, results
    gc.collect()
    return run, sampler


def pin_to_one_cpu() -> int:
    """Run every thread of this process on one CPU; returns the CPU.

    The ranks hand the interpreter lock back and forth through spin-waits.
    Spread over two CPUs of a shared host, that hand-off swings with the
    host's load (pass times vary by 2x between minutes); on one CPU it
    does not.  Threads started later inherit the affinity.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(sorted_vals: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[k - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runs: list[WorldRun]) -> tuple[dict[str, float], list[str]]:
    lat = sorted(x for r in runs for x in r.lat_ns)
    lat_ref = sorted(x for r in runs for x in r.lat_ref)
    n = len(lat_ref)
    walls = [w for r in runs for w in r.pass_wall_ns]
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in runs),
        "wall_ref": statistics.fmean(c for r in runs for c in r.pass_cost),
        "op_wall_ref_p50": percentile(lat_ref, 0.50),
        "op_wall_ref_p90": percentile(lat_ref, 0.90),
        "virtual_us_per_op": sum(r.virt_ns for r in runs) / sum(r.ops for r in runs) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"op latency samples: {n} (rank 0), {n - math.ceil(0.90 * n)} beyond p90",
        # printed, not gated: its run-to-run spread is wider than any bound
        f"op_wall_ref_p99: {percentile(lat_ref, 0.99):.6g} ref, "
        f"{n - math.ceil(0.99 * n)} samples beyond it",
        f"passes: {len(walls)}, "
        f"{runs[0].ops // max(1, len(runs[0].pass_wall_ns))} ops each",
        # the same timings in seconds: not gated, they follow the host's speed
        f"wall_s (median pass): {statistics.median(walls) / 1e9:.6g} s; "
        f"op_wall_us_p50: {percentile(lat, 0.50) / 1e3:.6g} us; "
        f"op_wall_us_p90: {percentile(lat, 0.90) / 1e3:.6g} us",
        f"setup_s of each world: {', '.join(f'{r.setup_s:.4f}' for r in runs)}",
    ]
    return metrics, notes


def trace_mismatches(plain: WorldRun, traced: WorldRun) -> int:
    """Per-pass deterministic counts that differ between the two worlds."""
    bad = 0
    for a_rank, b_rank in zip(plain.per_pass, traced.per_pass):
        for a, b in zip(a_rank, b_rank):
            bad += sum(1 for k in a if a[k] != b[k])
    return bad


def traced_metrics(workload, inputs, seconds, expected):
    from layers import per_layer_values
    from spans import Tracer

    third = seconds / 3
    plain, _ = run_world(workload, inputs, third, expected, count_copies=True)
    tracer = Tracer()
    traced, _ = run_world(workload, inputs, third, expected, tracer=tracer, count_copies=True)
    sampled, sampler = run_world(workload, inputs, third, expected, sample=True)
    runs = [plain, traced, sampled]

    metrics = per_layer_values(traced, tracer.totals(), tracer.tallies())
    metrics["sample.samples"] = sampler.samples
    metrics.update(sampler.shares())
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.pass_wall_ns) / statistics.median(plain.pass_wall_ns) - 1.0
    )
    retx = plain.counts["rel.retransmits"] + traced.counts["rel.retransmits"]
    copied = plain.counts["win.rma_copied"] + traced.counts["win.rma_copied"]
    virt = plain.pass_virt_us + traced.pass_virt_us
    spread = (max(virt) - min(virt)) / statistics.median(virt)
    mism = trace_mismatches(plain, traced)
    metrics.update({
        "invariant.fault_free_retransmits": retx,
        "invariant.fault_free_retransmits_ok": int(retx == 0),
        "invariant.native_rma_copied_bytes": copied,
        "invariant.native_rma_copied_bytes_ok": int(copied == 0),
        "invariant.virtual_spread": spread,
        "invariant.virtual_repeatable_ok": int(spread == 0.0),
        "invariant.trace_mismatches": mism,
        "invariant.trace_unperturbed_ok": int(mism == 0),
    })
    notes = [
        f"traced world: {traced.ops} ops in {len(traced.pass_wall_ns)} passes; "
        f"untraced twin: {plain.ops} ops; sampled: {sampler.samples} samples",
        f"tracing overhead: {metrics['trace.overhead_ratio']:+.3f} of the untraced pass wall time",
    ]
    return metrics, notes, runs


def layer_table(metrics: dict) -> list[str]:
    from layers import PER_LAYER, UNMEASURED

    lines = [f"  {name:<42} {metrics[name]:>14.6g} {unit:<6} moves: {moves}"
             for name, unit, _b, moves in PER_LAYER]
    lines.append("  unmeasured: " + "; ".join(f"{k} ({v})" for k, v in UNMEASURED.items()))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as exc:
        print(f"motorbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"motorbench: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import inputs as wl
    from layers import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"motorbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("motorbench: --seconds must be positive", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    inp = wl.make_inputs(args.workload, args.seed)
    expected = wl.reference_interiors(inp) if args.workload == "halo-rma" else None

    print(f"motorbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} inputs={wl.digest(inp)} cpu={cpu}")
    errors: list[str] = []
    try:
        if args.trace:
            values, notes, runs = traced_metrics(args.workload, inp, args.seconds, expected)
            catalogue = [(n, u) for n, u, _b, _m in PER_LAYER]
        else:
            runs = [run_world(args.workload, inp, args.seconds / WORLDS, expected,
                              calibrate=True)[0]
                    for _ in range(WORLDS)]
            values, notes = end_to_end(runs)
            catalogue = [(n, u) for n, u, _b, _bound in END_TO_END]
    except Exception as exc:  # an MPI error or a timeout fails the run
        errors.append(f"{type(exc).__name__}: {exc}")
        runs, values, notes, catalogue = [], {}, [], []

    attempted = sum(r.attempted for r in runs) or 1
    failed = sum(r.failed for r in runs) if not errors else attempted
    errors += [e for r in runs for e in r.errors]
    if args.workload == "buffer-pingpong" and args.trace and values:
        if not values["invariant.trace_unperturbed_ok"]:
            errors.append("tracing perturbed the simulation on buffer-pingpong")
    correct = not errors and failed == 0

    for line in notes:
        print(line)
    print(f"ops attempted: {attempted}, failed: {failed}, "
          f"ops_failed_ratio: {failed / attempted:.6g}")
    if args.trace and values:
        print("per-layer metrics (per op = per rank-0 op, summed over both ranks):")
        for line in layer_table(values):
            print(line)
    for err in errors:
        print(f"FAILED: {err}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in catalogue if n in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
