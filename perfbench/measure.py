"""The closed loop: one client, one op at a time, each op checked exactly.

Input generation happens between timed ops and is never counted.  An op
that raises or whose exact check fails counts as failed; the first such
traceback is printed to stderr.  After every REFERENCE_EVERY_S of op time
the loop runs the reference kernel, and each op's wall and CPU time are
scaled by the reference samples around it (see reference.py).
"""

import resource
import statistics
import sys
import time
import traceback

import ops
import reference

BATCH = 16
REFERENCE_EVERY_S = 0.1


def _record(workload, inp, ok, wall_s):
    rec = {"ok": ok, "ms": wall_s * 1e3}
    if workload == "bracket_tower":
        rec.update(kind=inp["kind"], arities=list(inp["arities"]), m=inp["m"])
    return rec


class Loop:
    """Runs ops of one workload and accumulates what the metrics need."""

    def __init__(self, workload: str, tracer=None, keep_records=False):
        self.workload = workload
        self.op = ops.OPS[workload]
        self.tracer = tracer
        self.wall = []          # raw seconds per op
        self.cpu = []
        self.segment = []       # reference samples taken before each op
        self.refs = [reference.sample()]
        self.records = [] if keep_records else None
        self.failed = 0
        self.peak_rss_kb = None  # ru_maxrss once `rss_after_ops` ops have run
        self.rss_after_ops = None
        self._since_ref = 0.0

    @property
    def attempted(self) -> int:
        return len(self.wall)

    def run_one(self, inp):
        if self.tracer is not None:
            self.tracer.begin_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ok = bool(self.op(inp))
        except Exception:  # a failed op is counted, the run goes on
            ok = False
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.segment.append(len(self.refs))
        if not ok:
            self.failed += 1
        if self.records is not None:
            self.records.append(_record(self.workload, inp, ok, t1 - t0))
        if len(self.wall) == self.rss_after_ops:
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._since_ref += t1 - t0
        if self._since_ref >= REFERENCE_EVERY_S:
            self.refs.append(reference.sample())
            self._since_ref = 0.0

    def run_for(self, gen, seconds: float, untimed_ops: int = 0):
        """Run `untimed_ops` ops, then more until their raw wall times add up
        to `seconds`."""
        while self.attempted < untimed_ops or sum(self.wall[untimed_ops:]) < seconds:
            for inp in [gen.next() for _ in range(BATCH)]:
                self.run_one(inp)
        self.refs.append(reference.sample())

    def run_inputs(self, inputs):
        for inp in inputs:
            self.run_one(inp)
        self.refs.append(reference.sample())

    def normalized(self):
        """Per-op (wall, cpu) in reference seconds.

        An op between reference samples k-1 and k is scaled by the median of
        samples k-2..k+1, which rides out a single disturbed sample.
        """
        scales = {}
        for k in set(self.segment):
            window = self.refs[max(k - 2, 0):k + 2]
            scales[k] = (reference.REFERENCE_S / statistics.median(w for w, _ in window),
                         reference.REFERENCE_S / statistics.median(c for _, c in window))
        return ([w * scales[k][0] for w, k in zip(self.wall, self.segment)],
                [c * scales[k][1] for c, k in zip(self.cpu, self.segment)])


def window_rate(times, size: int) -> float:
    """Median over consecutive windows of `size` ops of ops per second.

    A few very slow ops move a mean over the whole run by more than the
    bound allows from one seed to the next; they move the median window by
    at most one window's worth.  A run shorter than one window counts whole.
    """
    sums = [sum(times[i:i + size]) for i in range(0, len(times) - size + 1, size)]
    if not sums:
        return len(times) / sum(times)
    return statistics.median(size / s for s in sums)


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks; values need not be sorted."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
