"""A fixed unit of Python work that tells how fast the machine is right now.

Shared virtual machines change speed under the benchmark: on the 2-vCPU VM
this benchmark was written on, the same pure-Python loop took 25 ms for a
few seconds and 44 ms for the next tens of seconds, so raw times of two runs
of the same code differed by up to 1.7x.  The benchmark therefore runs this
kernel between ops and reports every time in reference seconds: a measured
time scaled by REFERENCE_S over what the kernel took at that moment.  The
kernel uses only integers, tuples and dicts (sparse products of polynomials
with reduced rational coefficients, the same kind of work the library
does), imports nothing the library imports, and never changes, so a faster
program reads faster and a slower machine does not.
"""

import time
from math import gcd

# What one kernel run takes by definition: times are reported as if every
# kernel run had taken this long.  Close to the kernel's wall time on the
# VM above, so reference seconds read about like seconds there.
REFERENCE_S = 0.004

_A = {(i, j): ((i * 7 - j * 3 + 1) or 1, i + 2 * j + 1) for i in range(9) for j in range(9)}
_B = {(i, j): ((j * 5 - i * 2 - 3) or 1, 2 * i + j + 3) for i in range(7) for j in range(7)}


def _kernel() -> int:
    out = {}
    for (i1, j1), (n1, d1) in _A.items():
        for (i2, j2), (n2, d2) in _B.items():
            key = (i1 + i2, j1 + j2)
            n, d = n1 * n2, d1 * d2
            prev = out.get(key)
            if prev is not None:
                n, d = n * prev[1] + prev[0] * d, d * prev[1]
            g = gcd(n, d)
            out[key] = (n // g, d // g)
    return len(out)


# distinct keys in the product; a different count means the kernel changed
_EXPECTED = 225


def sample():
    """Wall and CPU seconds of one kernel run."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    size = _kernel()
    t1 = time.perf_counter()
    c1 = time.process_time()
    if size != _EXPECTED:
        raise RuntimeError("reference kernel changed its result")
    return t1 - t0, c1 - c0
