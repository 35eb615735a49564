"""Record the benchmark's baseline: every workload, untraced and traced.

    python3 motorbench/baseline.py --seed 1 --seconds 28

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1`` and writes ``motorbench/baseline.json``: the machine it ran
on, and for each run its exit code, its result object and the lines it
printed before it (sample counts, tracing overhead, failures).  The
invariant verdicts sit in the traced results next to the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from layers import WORKLOADS

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            runs[f"{workload} trace={trace}"] = {
                "exit_code": proc.returncode,
                "result": json.loads(lines[-1]) if lines else None,
                "notes": [ln for ln in lines[:-1] if not ln.startswith("  ")],
            }
            print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
    baseline = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
    }
    with open(BASELINE, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=False)
        f.write("\n")
    return 0 if all(r["exit_code"] == 0 for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
