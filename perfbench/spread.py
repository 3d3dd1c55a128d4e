#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs one fresh process per seed and prints, per
metric, the median of the runs and the distance between the first and
third quartile as a share of the median (the figure the bounds in
BENCHMARK.json are checked against).

    python3 perfbench/spread.py --workloads udg-event-monitored,colord-tcp-mixed \
        --seeds 1-10 [--seconds 40] [--trace 0] [--bin target/release/perfbench]

Without --bin the benchmark is built and run through cargo. Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()

    if args.bin:
        base = [args.bin]
    else:
        base = ["cargo", "run", "--release", "--offline", "--quiet",
                "--manifest-path", "perfbench/Cargo.toml", "--"]
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = base + ["--workload", workload, "--seed", str(seed),
                          "--seconds", args.seconds, "--trace", args.trace]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            inputs = lines[-2] if len(lines) > 1 else ""
            print(f"{workload} seed {seed} ({took:.1f} s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} | {inputs}")
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            print(f"  {workload:20s} {name:28s} median {med:14.6g}  iqr/median {spread:.4f}"
                  f"  values {' '.join(f'{v:.4g}' for v in vs)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
