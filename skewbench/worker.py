"""One benchmark process: set up a workload, then run it in one of three modes.

``setup``  stop after set-up and report its (rescaled) wall time;
``run``    the timed closed loop (one client, next op after the previous
           one returns) for ``--seconds``, untraced;
``trace``  a fixed number of ops untraced, then the same ops on a freshly
           built workload with the tracer installed, then the unit-cost
           micro-loops; reports the per-layer metrics.

Started by run.py, which passes ``--t0``, the wall-clock time just before
it started this process, so set-up time includes interpreter start.
Prints one JSON object as its last stdout line.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(1, os.path.join(ROOT, "src"))

import micro  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TRACE_OPS, WORKLOADS, CliJobs, cli_env, ring_for_label  # noqa: E402

START_PROBES = 3

# Machine-speed reference.  On a shared machine the wall time of the same op
# with the same seed drifts by tens of percent within minutes, as other
# tenants load the cores.  A fixed probe, run between ops at most every
# PROBE_EVERY_S (COLD_PROBE_EVERY_S in cli-jobs), measures that drift:
# timings are divided by
# speed = mean probe time / reference time, which rescales them to a machine
# on which the probe takes the reference time.  The in-process workloads use
# a pure-Python probe (REFERENCE_PROBE_S, a quiet 2.1 GHz Xeon core).
# cli-jobs, whose jobs are mostly interpreter start and imports, uses a cold
# interpreter running that probe (COLD_REFERENCE_S): it tracks the cost of a
# job better, while the in-process probe, run between job processes, reads
# the machine as up to twice as slow as the jobs find it when it is busy.
# Raw timings and the speed factor are kept in the run record.
REFERENCE_PROBE_S = 0.0005
PROBE_EVERY_S = 0.05
PROBES_PER_SAMPLE = 3
SETUP_PROBES = 20
COLD_REFERENCE_S = 0.08
COLD_PROBE_EVERY_S = 0.5
COLD_PROBE_CODE = """
import argparse, fractions, json
seen, acc = {}, 0
for _ in range(10):
    for i in range(400):
        key = (i, i % 7, i * 3)
        seen[key] = seen.get(key[1:], 0) + i
        acc += fractions.Fraction(i % 11 + 1, i % 5 + 2).numerator
"""


def reference_probe():
    start = perf_counter()
    seen, acc = {}, 0
    for i in range(400):
        key = (i, i % 7, i * 3)
        seen[key] = seen.get(key[1:], 0) + i
        acc += Fraction(i % 11 + 1, i % 5 + 2).numerator
    return perf_counter() - start


def cold_probe():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_PROBE_CODE], cwd=ROOT, env=cli_env(), check=True,
                   timeout=60)
    return perf_counter() - start


def machine_speed(probes):
    return statistics.fmean(probes) / REFERENCE_PROBE_S


def closed_loop(wl, n_ops=None, seconds=None):
    """Run ops back to back until n_ops are done, or until seconds have
    passed and the workload's schedule cycle is complete.  Reference probes
    run between ops; their time is not op time.  Peak RSS is read once
    wl.rss_ops ops are done, or at the end if the loop stops earlier."""
    if isinstance(wl, CliJobs):
        probe, per_sample, every, reference = cold_probe, 1, COLD_PROBE_EVERY_S, COLD_REFERENCE_S
    else:
        probe, per_sample, every, reference = (reference_probe, PROBES_PER_SAMPLE, PROBE_EVERY_S,
                                               REFERENCE_PROBE_S)
    outcomes, latencies, errors, probes = [], [], [], []
    rss_mb = None
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    next_probe = start
    i = 0
    while True:
        if perf_counter() >= next_probe:
            probes.extend(probe() for _ in range(per_sample))
            next_probe = perf_counter() + every
        t = perf_counter()
        try:
            res = wl.run_op(i)
        except Exception as exc:  # a raising op is a failed op, the loop goes on
            res = "error"
            errors.append(f"op {i}: {exc!r}")
        latencies.append(perf_counter() - t)
        outcomes.append(res)
        i += 1
        if i == wl.rss_ops:
            rss_mb = peak_rss_mb(wl)
        if n_ops is not None and i >= n_ops:
            break
        if deadline is not None and i % wl.cycle == 0 and perf_counter() >= deadline:
            break
    if rss_mb is None:
        rss_mb = peak_rss_mb(wl)
    return outcomes, latencies, statistics.fmean(probes) / reference, rss_mb, errors


def nearest_rank(sorted_values, q):
    idx = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(idx)]


def summarize(outcomes, latencies, speed):
    """End-to-end figures of one timed loop from its settled outcomes."""
    n = len(latencies)
    ok = outcomes.count("ok")
    op_time = sum(latencies)
    # a failed op misses every latency limit: it counts as taking the whole loop
    raw = sorted(t if o == "ok" else op_time for o, t in zip(outcomes, latencies))
    lat = [t / speed for t in raw]
    failed = n - ok
    return {
        "ops_per_s": ok * speed / op_time,
        "op_p50_ms": nearest_rank(lat, 50) * 1e3,
        "op_p90_ms": nearest_rank(lat, 90) * 1e3,
        "speed": speed,
        "raw_ops_per_s": ok / op_time,
        "raw_op_p50_ms": nearest_rank(raw, 50) * 1e3,
        "raw_op_p90_ms": nearest_rank(raw, 90) * 1e3,
        "ok_ratio": ok / n,
        "samples": n,
        "beyond_p90": sum(1 for t in lat if t > nearest_rank(lat, 90)),
        "attempted": n,
        "failed": failed,
        "wrong": outcomes.count("wrong"),
        "broken": sum(1 for o in outcomes if o in ("broken", "error")),
        "latencies_ms": [t * 1e3 for t in latencies],
        "outcomes": outcomes,
    }


def peak_rss_mb(wl):
    # ru_maxrss is in KiB on Linux; for cli-jobs it is the largest job
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliJobs) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def settle(wl, outcomes):
    try:
        return wl.settle(outcomes)
    finally:
        if isinstance(wl, CliJobs):
            wl.cleanup()


def contract_probe(wl):
    return {"contract_probe": wl.probe_outcome} if isinstance(wl, CliJobs) else {}


def run_mode(wl, args, setup_s):
    outcomes, latencies, speed, rss_mb, errors = closed_loop(wl, seconds=args.seconds)
    outcomes = settle(wl, outcomes)
    out = summarize(outcomes, latencies, speed)
    out.update(setup_s=setup_s, peak_rss_mb=rss_mb, errors=errors[:20], **contract_probe(wl))
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def start_probe():
    """Median wall time of a bare ``import skewpoly.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import skewpoly.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(START_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def traced_pass_inprocess(name, seed, n_ops):
    tracer = Tracer().install()
    try:
        t_setup = perf_counter()
        wl = WORKLOADS[name](seed)
        wl.setup()
        t_ops = perf_counter()
        counts0, rings0 = Counter(tracer.counts), Counter(tracer.ring_calls_by_label())
        outcomes, latencies, speed, _, errors = closed_loop(wl, n_ops=n_ops)
    finally:
        tracer.uninstall()
    outcomes = settle(wl, outcomes)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    return {
        "outcomes": outcomes, "latencies": latencies, "speed": speed, "errors": errors,
        "self_all": tracer.self_times(since=t_setup),
        "self_ops": tracer.self_times(since=t_ops),
        "counts": tracer.counts - counts0,
        "ring_calls": tracer.ring_calls_by_label() - rings0,
        "memo_entries": tracer.memo_entries(),
        "rings": wl.rings(),
        "spans_path": spans_path,
    }


def traced_pass_cli(seed, n_ops):
    trace_dir = os.path.join(OUT, f"cli-trace-{os.getpid()}")
    os.makedirs(trace_dir, exist_ok=True)
    wl = CliJobs(seed, trace_dir=trace_dir)
    wl.setup()
    outcomes, latencies, speed, _, errors = closed_loop(wl, n_ops=n_ops)
    outcomes = settle(wl, outcomes)
    self_all, counts, ring_calls, memo, spans = {}, Counter(), Counter(), 0, []
    for i in range(n_ops):
        path = os.path.join(trace_dir, f"op{i:04d}.json")
        with open(path) as fh:
            job = json.load(fh)
        for fname, (s, calls) in job["self"].items():
            acc = self_all.setdefault(fname, [0.0, 0])
            acc[0] += s
            acc[1] += calls
        counts.update(job["counts"])
        for key, n in job["ring_calls"].items():
            kind, label = key.split(":")
            ring_calls[(kind, label)] += n
        memo += job["memo_entries"]
        spans.extend([i] + list(s) for s in job["spans"])
    for fname in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, fname))
    os.rmdir(trace_dir)
    spans_path = os.path.join(OUT, f"spans-cli-jobs-seed{seed}.jsonl")
    with open(spans_path, "w") as fh:
        for job_index, name, start, end, parent in spans:
            fh.write(json.dumps({"job": job_index, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
    return {
        "outcomes": outcomes, "latencies": latencies, "speed": speed, "errors": errors,
        "self_all": self_all, "self_ops": self_all, "counts": counts, "ring_calls": ring_calls,
        "memo_entries": memo, "rings": {}, "spans_path": spans_path,
    }


def _self(table, *names):
    return sum(table.get(n, (0.0, 0))[0] for n in names)


def layer_metrics(name, seed, traced, untraced_op_s):
    n = len(traced["latencies"])
    op_time = sum(traced["latencies"])
    c, so, sa = traced["counts"], traced["self_ops"], traced["self_all"]

    def pct(*names):
        return 100.0 * _self(so, *names) / op_time

    rings = micro.named_rings(traced["rings"])
    unit = {label: micro.ring_unit_costs(ring, seed) for label, ring in rings.items()}
    for (kind, label) in traced["ring_calls"]:
        if label not in unit:
            ring = traced["rings"].get(label) or ring_for_label(label)
            unit[label] = micro.ring_unit_costs(ring, seed)
    maps = micro.map_unit_costs(rings, seed)
    ring_calls = traced["ring_calls"]
    busy = sum(calls * unit[label][kind] for (kind, label), calls in ring_calls.items()) * 1e-6

    def per_op(key):
        return c.get(key, 0) / n

    sigma, delta = c.get("frames.sigma_at_calls", 0), c.get("frames.delta_at_calls", 0)
    misses = c.get("frames.sigma_at_misses", 0) + c.get("frames.delta_at_misses", 0)
    m = {
        "rings.build_s": (_self(sa, "rings.build"), "s"),
        "rings.mul_calls": (sum(v for (k, _), v in ring_calls.items() if k == "mul") / n, "1/op"),
        "rings.add_calls": (sum(v for (k, _), v in ring_calls.items() if k == "add") / n, "1/op"),
        "rings.inv_calls": (sum(v for (k, _), v in ring_calls.items() if k == "inv") / n, "1/op"),
        "rings.busy_s_est": (busy, "s"),
    }
    for kind in ("mul", "add", "inv"):
        for label in micro.NAMED_RINGS:
            m[f"rings.{kind}_us.{label}"] = (unit[label][kind], "us")
    m.update({
        "frames.validate_s": (_self(sa, "frames.validate_frame"), "s"),
        "frames.sigma_calls": (sigma / n, "1/op"),
        "frames.delta_calls": (delta / n, "1/op"),
        "frames.apply_calls": (per_op("frames.apply_calls"), "1/op"),
        "frames.memo_hit_ratio": ((sigma + delta - misses) / max(1, sigma + delta), "ratio"),
        "frames.memo_entries": (traced["memo_entries"], "count"),
    })
    for label in micro.NAMED_MAPS:
        m[f"frames.apply_us.{label}"] = (maps[label], "us")
    m.update({
        "freering.mul_pct": (pct("freering.mul"), "%"),
        "freering.mul_calls": (per_op("freering.mul_calls"), "1/op"),
        "freering.push_calls": (per_op("freering.push_calls"), "1/op"),
        "freering.terms_out": (per_op("freering.terms_out"), "1/op"),
        "evaluation.evaluate_pct": (pct("evaluation.evaluate"), "%"),
        "evaluation.divide_pct": (pct("evaluation.divide"), "%"),
        "evaluation.fundamental_table_pct": (pct("evaluation.fundamental_table"), "%"),
        "evaluation.evaluate_calls": (per_op("evaluation.evaluate_calls"), "1/op"),
        "evaluation.divide_calls": (per_op("evaluation.divide_calls"), "1/op"),
        "evaluation.fundamental_table_calls": (per_op("evaluation.fundamental_table_calls"), "1/op"),
        "linalg.reduce_pct": (pct("linalg.row_reduce_left"), "%"),
        "linalg.reduce_calls": (per_op("linalg.reduce_calls"), "1/op"),
        "linalg.reduce_cells": (per_op("linalg.reduce_cells"), "1/op"),
        "linalg.transform_cells": (per_op("linalg.transform_cells"), "1/op"),
        "linalg.pivots": (per_op("linalg.pivots"), "1/op"),
        "geometry.vandermonde_pct": (pct("geometry.vandermonde"), "%"),
        "geometry.vandermonde_rows": (per_op("geometry.vandermonde_rows"), "1/op"),
        "geometry.independence_tests": (per_op("geometry.independence_tests"), "1/op"),
        "geometry.points_enumerated": (per_op("geometry.points_enumerated"), "1/op"),
        "geometry.pbasis_pct": (pct("geometry.find_p_basis", "geometry.is_p_independent_from",
                                    "geometry.rank_of"), "%"),
        "geometry.closure_pct": (pct("geometry.closure_members"), "%"),
        "interpolation.newton_pct": (pct("interpolation.lagrange_interpolate",
                                         "interpolation.separator"), "%"),
        "interpolation.vandermonde_pct": (pct("interpolation.lagrange_via_vandermonde"), "%"),
        "interpolation.dual_pct": (pct("interpolation.dual_p_basis",
                                       "interpolation.independent_rows"), "%"),
        "interpolation.separator_calls": (per_op("interpolation.separator_calls"), "1/op"),
        "cli.start_s": (start_probe(), "s"),
        "cli.workspace_pct": (pct("cli.workspace"), "%"),
        "cli.handler_pct": (pct("cli.handler"), "%"),
        "cli.emit_bytes": (per_op("cli.emit_bytes"), "B/op"),
        "trace.overhead_ratio": (op_time / traced["speed"] / untraced_op_s, "x"),
    })
    detail = {
        "ops": n, "traced_op_s": op_time, "traced_speed": traced["speed"],
        "untraced_op_s_rescaled": untraced_op_s,
        "self_s_ops": {k: v for k, v in sorted(so.items())},
        "self_s_all": {k: v for k, v in sorted(sa.items())},
        "counts": dict(sorted(c.items())),
        "ring_calls": {f"{k}:{label}": v for (k, label), v in sorted(ring_calls.items())},
        "unit_us": unit, "map_us": maps, "spans": os.path.relpath(traced["spans_path"], ROOT),
    }
    return m, detail


def trace_mode(wl, args):
    n_ops = TRACE_OPS[args.workload]
    outcomes, latencies, speed, _, _ = closed_loop(wl, n_ops=n_ops)
    settle(wl, outcomes)
    if args.workload == "cli-jobs":
        traced = traced_pass_cli(args.seed, n_ops)
    else:
        traced = traced_pass_inprocess(args.workload, args.seed, n_ops)
    metrics, detail = layer_metrics(args.workload, args.seed, traced, sum(latencies) / speed)
    summary = summarize(traced["outcomes"], traced["latencies"], traced["speed"])
    return {"layers": metrics, "detail": detail, "attempted": summary["attempted"],
            "failed": summary["failed"], "wrong": summary["wrong"], "errors": traced["errors"][:20],
            **contract_probe(wl)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    raw_setup_s = time.time() - args.t0
    speed = machine_speed([reference_probe() for _ in range(SETUP_PROBES)])
    setup_s = raw_setup_s / speed
    if args.mode == "setup":
        if isinstance(wl, CliJobs):
            wl.cleanup()
        out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    elif args.mode == "run":
        out = run_mode(wl, args, setup_s)
        out["raw_setup_s"] = raw_setup_s
    else:
        out = trace_mode(wl, args)
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)

