"""fnlab benchmark driver.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a repository checkout.  One client drives a closed
loop in a single thread: it sends the next op only when the previous one has
returned and passed its exact check.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs a fixed, seed-determined list of
ops once untraced and twice traced, each in a fresh interpreter, and prints
the per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; --out also writes the full
record, environment included.  See perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, check_loaded_from_checkout, environment, use_checkout_source
from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bracket_tower", "six_cubes", "jet_eval")
SETUP_RUNS = 5
MEMORY_WINDOWS = 10
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("throughput_ops_s", "1/s"), ("cpu_ops_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# Ops in a traced run per second of --seconds.  The list is fixed by the
# seed and --seconds, never by timing, so its counts repeat exactly; the
# rates keep the untraced pass near a third of --seconds on a 2-vCPU VM.
TRACE_OPS_PER_SECOND = {"bracket_tower": 11.0, "six_cubes": 10.0, "jet_eval": 16.0}


def child(*args) -> dict:
    """Run child.py in a fresh interpreter, wait for it, parse its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child {' '.join(map(str, args))} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload: str, seed: str, seconds: float):
    """End-to-end metrics of a timed closed-loop run."""
    setups = [child("setup") for _ in range(SETUP_RUNS)]
    import gen
    import ops
    from measure import Loop, quantile, window_rate
    check_loaded_from_checkout()
    ops.warm_up()
    window = gen.WINDOW_OPS[workload]
    loop = Loop(workload)
    # Peak memory after a fixed number of ops, so that a faster program
    # (more ops, more cached algebras in jet_eval) does not read as a
    # memory regression.
    loop.rss_after_ops = MEMORY_WINDOWS * window
    loop.run_for(gen.Gen(workload, seed), seconds, untimed_ops=window)
    rss_kb = loop.peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the first window warms the heap and the library's caches; it is run
    # and checked but not timed
    wall, cpu = (times[window:] for times in loop.normalized())
    n = len(wall)
    metrics = {
        "throughput_ops_s": window_rate(wall, window),
        "cpu_ops_s": window_rate(cpu, window),
        "op_p50_ms": quantile(wall, 0.50) * 1e3,
        "op_p95_ms": quantile(wall, 0.95) * 1e3,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = loop.wall[window:]
    raw_p50, raw_p95 = quantile(raw, 0.50) * 1e3, quantile(raw, 0.95) * 1e3
    notes = {
        "throughput_ops_s": f"median of {n // window} windows of {window} ops; "
                            f"{n} timed ops in {sum(wall):.3f} ref s "
                            f"({sum(raw):.3f} s raw wall)",
        "cpu_ops_s": f"median of {n // window} windows; {sum(cpu):.3f} ref s "
                     f"({sum(loop.cpu[window:]):.3f} s raw CPU)",
        "op_p50_ms": f"n={n} (raw {raw_p50:.3f} ms)",
        "op_p95_ms": f"n={n}, {n - int(0.95 * n)} beyond (raw {raw_p95:.3f} ms)" + (
            "" if n >= 200 else "; fewer than 200 ops, not a valid p95"),
        "setup_s": "median of %d fresh interpreters: %s (raw %s)" % (
            SETUP_RUNS, ", ".join(f"{s['setup_s']:.4f}" for s in setups),
            ", ".join(f"{s['raw_s']:.4f}" for s in setups)),
        "peak_rss_mb": f"ru_maxrss of the measuring process after {loop.rss_after_ops} ops" + (
            "" if loop.peak_rss_kb else f"; the run ended after {loop.attempted}"),
    }
    extra = {"setup_runs": setups, "samples": n, "untimed_ops": window,
             "raw_wall_s": sum(loop.wall),
             "reference_ms": statistics.median(w for w, _ in loop.refs) * 1e3,
             "reference_samples": len(loop.refs)}
    return loop.attempted, loop.failed, metrics, END_TO_END, notes, extra


def traced(workload: str, seed: str, seconds: float):
    """Per-layer metrics of a fixed op list, with the wrapper self-checks."""
    from tracing import EXPECTED_CALLS, PER_LAYER, layer_metrics
    count = max(20, round(seconds * TRACE_OPS_PER_SECOND[workload]))
    plain = child("pass", workload, seed, count, 0)
    first = child("pass", workload, seed, count, 1)
    second = child("pass", workload, seed, count, 1)

    problems = []
    silent = [name for name in EXPECTED_CALLS[workload] if not first["calls"].get(name)]
    if silent:
        problems.append("layers with zero calls: " + ", ".join(silent))
    if (first["attempted"], first["failed"]) != (plain["attempted"], plain["failed"]):
        problems.append("traced failed_ratio %d/%d differs from untraced %d/%d" % (
            first["failed"], first["attempted"], plain["failed"], plain["attempted"]))
    if problems:
        raise SystemExit("perfbench: trace self-check failed: " + "; ".join(problems))

    differing = sorted(
        key for field in ("calls", "counts")
        for key in set(first[field]) | set(second[field])
        if first[field].get(key) != second[field].get(key))
    if first["cache_misses"] != second["cache_misses"]:
        differing.append("weil.make_algebra misses")
    repeat = not differing

    self_s = {name: t * first["ref_scale"] for name, t in first["self_s"].items()}
    metrics = layer_metrics(first["calls"], self_s, first["counts"], first["cache_misses"])
    metrics["trace.overhead_ratio"] = first["wall_s"] / plain["wall_s"]
    notes = {name: "" for name, _ in PER_LAYER}
    notes["trace.overhead_ratio"] = "traced %.3f / untraced %.3f ref s over %d ops" % (
        first["wall_s"], plain["wall_s"], count)
    print(f"trace: {count} ops; counts repeat across two traced passes: "
          + ("yes" if repeat else "NO, differing: " + ", ".join(differing)))
    ops_records = plain["records"]
    if workload == "bracket_tower":
        for i, rec in enumerate(ops_records):
            print("op %4d %-5s arities=(%d,%d,%d) m=%d %9.3f ms%s" % (
                i, rec["kind"], *rec["arities"], rec["m"], rec["ms"],
                "" if rec["ok"] else " FAILED"))
    extra = {"ops": ops_records, "counts_repeat": repeat, "trace_ops": count}
    return first["attempted"], first["failed"], metrics, PER_LAYER, notes, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    use_checkout_source()

    started = time.perf_counter()
    run = traced if args.trace else untraced
    attempted, failed, metrics, table, notes, extra = run(
        args.workload, args.seed, args.seconds)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 client, 1 thread")
    for name, unit in table:
        note = notes.get(name)
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit:6s} {note}".rstrip())
    print(f"  {'failed_ratio':34s} {failed / attempted:>16.6f} {'ratio':6s} "
          f"{failed} of {attempted} ops failed")
    if "reference_ms" in extra:
        print("  reference kernel: median %.3f ms over %d samples; times above are in "
              "reference seconds (%.1f ms per kernel run)" % (
                  extra["reference_ms"], extra["reference_samples"], REFERENCE_S * 1e3))
    print(f"  run took {time.perf_counter() - started:.1f} s")

    correct = failed == 0 and extra.get("counts_repeat", True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in table}}
    if args.out:
        record = dict(result, env=env, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, **extra)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
