"""Work that must start from a fresh interpreter; run.py starts and awaits it.

  python3 perfbench/child.py setup
      time `import fnlab` plus the warm-up, print {"setup_s": ...}
  python3 perfbench/child.py pass WORKLOAD SEED OPS TRACED
      run a fixed list of OPS ops, traced (1) or not (0), print its counters

Each prints one JSON object as its last line of standard output.  A fresh
process per pass means every pass starts from the same library state (empty
caches, nothing lazily built), so a traced pass's counts depend only on the
seed.
"""

import json
import statistics
import sys
import time

from checkout import check_loaded_from_checkout, use_checkout_source


def setup() -> dict:
    """Import plus warm-up, in reference seconds (samples just before and after)."""
    import reference
    refs = [reference.sample()[0] for _ in range(2)]
    t0 = time.perf_counter()
    import fnlab  # noqa: F401
    import ops
    ops.warm_up()
    raw = time.perf_counter() - t0
    refs += [reference.sample()[0] for _ in range(2)]
    return {"setup_s": raw * reference.REFERENCE_S / statistics.median(refs), "raw_s": raw}


def one_pass(workload: str, seed: str, count: int, traced: bool) -> dict:
    import gen
    import ops
    from fnlab import weil
    from measure import Loop
    from reference import REFERENCE_S
    from tracing import Tracer

    ops.warm_up()
    g = gen.Gen(workload, seed)
    inputs = [g.next() for _ in range(count)]
    tracer = Tracer() if traced else None
    loop = Loop(workload, tracer, keep_records=not traced)
    misses = weil.make_algebra.cache_info().misses
    if tracer is None:
        loop.run_inputs(inputs)
    else:
        with tracer:
            loop.run_inputs(inputs)
    wall, _cpu = loop.normalized()
    out = {"attempted": loop.attempted, "failed": loop.failed, "wall_s": sum(wall),
           "ref_scale": REFERENCE_S / statistics.median(w for w, _ in loop.refs),
           "cache_misses": weil.make_algebra.cache_info().misses - misses}
    if tracer is None:
        for rec, w in zip(loop.records, wall):
            rec["ms"] = w * 1e3
        out["records"] = loop.records
    else:
        out.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                   counts=dict(tracer.counts))
    return out


def main(argv) -> int:
    use_checkout_source()
    if argv[:1] == ["setup"]:
        result = setup()
    elif argv[:1] == ["pass"] and len(argv) == 5:
        result = one_pass(argv[1], argv[2], int(argv[3]), argv[4] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    check_loaded_from_checkout()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
