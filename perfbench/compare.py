"""Compare two sets of result records written by `run.py --out`.

  python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

For each workload and metric it prints the median of each set, the change
as a share of the base median (positive means worse, by the metric's
direction in BENCHMARK.json) and, for end-to-end metrics, whether that
exceeds the metric's bound.  Records made under different scalar backends
(fractions.Fraction against gmpy2.mpq) measure different arithmetic, so
the comparison is refused; a differing Python version or core count is
reported but allowed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def metric_specs() -> dict:
    if not BENCHMARK.is_file():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    backends = sorted({r["env"]["backend"] for r in base + new})
    if len(backends) > 1:
        print("compare: refusing to compare results recorded under different scalar "
              "backends: " + ", ".join(backends), file=sys.stderr)
        return 2
    if len(envs) > 1:
        print("compare: note, the records differ in environment: " + "; ".join(sorted(envs)))

    specs = metric_specs()
    groups = defaultdict(lambda: (defaultdict(list), defaultdict(list)))
    for side, records in ((0, base), (1, new)):
        for r in records:
            for name, m in r["metrics"].items():
                groups[(r["workload"], r["trace"])][side][name].append(m["value"])

    worse_than_bound = False
    for (workload, trace), (b, n) in sorted(groups.items()):
        print(f"{workload} (trace={trace})")
        for name in b:
            if name not in n:
                continue
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            spec = specs.get(name, {})
            sign = -1 if spec.get("better") == "higher" else 1
            change = sign * (mn - mb) / mb if mb else 0.0
            verdict = ""
            if "bound" in spec:
                verdict = "WORSE THAN BOUND" if change > spec["bound"] else "within bound"
                worse_than_bound |= change > spec["bound"]
            print(f"  {name:34s} base {mb:14.6g} (n={len(b[name])})  new {mn:14.6g} "
                  f"(n={len(n[name])})  worse by {change:+8.2%}  {verdict}".rstrip())
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
