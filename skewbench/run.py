"""skewpoly benchmark: one workload, one seed, one run.

    python3 skewbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: it sets the workload up in SETUP_REPEATS fresh processes (the
median is ``setup_s``) and runs the timed closed loop in the last one.
``--trace 1`` runs the traced passes and reports the per-layer metrics.
Every metric is printed by name with its unit; the last stdout line is
the JSON result, and the full record (latencies, per-function self times,
raw counters) goes to skewbench/out/.

Workloads: algebra-quat, algebra-gf, geometry, cli-jobs (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 3
BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


def spawn(args, mode, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} process for {args.workload} ran past the time budget")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"{mode} process for {args.workload} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description="skewpoly benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "skewpoly", "__init__.py")):
        sys.exit("run from the root of a skewpoly checkout: src/skewpoly is missing")
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        rec = spawn(args, "trace", deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["layers"].items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        correct = rec["wrong"] == 0
    else:
        setups = [spawn(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
        rec = spawn(args, "run", deadline)
        setups = [s["setup_s"] for s in setups] + [rec["setup_s"]]
        rec["setup_runs_s"] = setups
        rec["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": rec[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"raw timings (machine speed factor {rec['speed']:.3f}): "
              f"ops_per_s {rec['raw_ops_per_s']:.6g}, op_p50_ms {rec['raw_op_p50_ms']:.6g}, "
              f"op_p90_ms {rec['raw_op_p90_ms']:.6g}")
        print(f"latency samples {rec['samples']}, {rec['beyond_p90']} beyond p90; "
              f"attempted {rec['attempted']}, failed {rec['failed']} "
              f"({rec['wrong']} wrong, {rec['broken']} broken)")
        correct = rec["wrong"] == 0
    if "contract_probe" in rec:
        print(f"contract probe (3000-letter eval over Frobenius GF(9), not an attempted op): "
              f"{rec['contract_probe']}")
    for line in rec.get("errors", []):
        print(f"error: {line}")

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(rec, fh)
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
