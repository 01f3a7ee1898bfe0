"""The benchmark's tracer installs on this tree and puts everything back.

`perfbench/tracing.py` replaces fnlab's traced entry points by name: module
functions in every fnlab module that holds them, methods through their
class's own `__dict__`.  A traced function renamed, or a traced method moved
into a base class, makes `Tracer.install` raise; this test sees that without
a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from fnlab.micro import MicroPoint, strong_diff
from fnlab.poly import Poly
from fnlab.simplicial import d_cube

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets(tracing):
    """(holder, attribute, current value) of every entry point the tracer wraps."""
    out = []
    for _name, home, attrs in tracing.FUNCTION_SPANS:
        for attr in attrs:
            original = getattr(home, attr)
            out += [(mod, attr, original) for name, mod in list(sys.modules.items())
                    if mod is not None and (name == "fnlab" or name.startswith("fnlab."))
                    and getattr(mod, attr, None) is original]
    for _name, cls, attr in tracing.METHOD_SPANS + tracing.METHOD_COUNTS:
        out.append((cls, attr, cls.__dict__[attr]))
    return out


def square(corner):
    return MicroPoint.from_table(d_cube(2), 1, {(): [1], (1,): [2], (2,): [3], (1, 2): [corner]})


def test_tracer_installs_counts_and_restores():
    tracing = load_tracing()
    targets = traced_targets(tracing)
    expected = strong_diff(square(5), square(4))
    tracer = tracing.Tracer()
    with tracer:
        for holder, attr, original in targets:
            wrapped = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
        assert strong_diff(square(5), square(4)) == expected
        assert Poly.var(1, 0) * Poly.var(1, 0) == Poly.var(1, 0) ** 2
    for span in ("micro.amalgamate", "micro.restrict", "micro.case_solve", "micro.compat",
                 "linsolve.solve", "poly.mul"):
        assert tracer.calls[span] > 0, span
    for holder, attr, original in targets:
        restored = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
        assert restored is original, attr
