"""The benchmark's tracer installs on this tree and puts everything back.

`perfbench/tracing.py` replaces fnlab's traced entry points by name: module
functions in every fnlab module that holds them, methods through their
class's own `__dict__`.  A traced function renamed, or a traced method moved
into a base class, makes `Tracer.install` raise; this test sees that without
a benchmark run.  One op of each workload, from `perfbench/ops.py`, must
reach every layer the benchmark expects it to reach, so a layer that goes
silent shows here as well as in the traced benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fnlab import forms, serialize
from fnlab.micro import TRIANGLE_LABELS, MicroPoint, strong_diff
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import SimplicialObject, d_cube

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
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
    tracing = load("tracing")
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


def bracket_tower_input():
    # arities (0, 1, 1): the inner brackets have arity 2, whose alternation
    # check permutes kernels
    xf = forms.vector_field_form(PolyMap(1, [Poly.var(1, 0) * Poly.var(1, 0)]))
    ident = forms.identity_one_form(1)
    wire = [json.dumps(serialize.form_to_json(f), separators=(",", ":"))
            for f in (xf, ident, ident)]
    return {"kind": "FN123", "wire": wire}


def six_cubes_input():
    v = [Q(1), Q(2), Q(-1, 2), Q(1, 3)]
    return {"m": 1, "base4": [[c] for c in v],
            "slots": {pair: ([Q(i)], [Q(-i)]) for i, pair in
                      enumerate([(1, 2), (1, 3), (2, 3)], 1)},
            "corners": {label: [Q(i, 2)] for i, label in enumerate(TRIANGLE_LABELS)}}


def jet_eval_input():
    # an object no other test builds, so that its algebra is built here,
    # under the tracer (make_algebra keeps every algebra it has built)
    obj = SimplicialObject(2, frozenset(), (5, 7))
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    f = PolyMap(2, [x0 * x1 + Poly.const(2, Q(1, 2)), x1 * x1 * x1 - x0])
    g = PolyMap(2, [x1 * x1 + x0, Poly.const(2, Q(3)) * x0 * x1])
    return {"obj": obj, "f": f, "g": g,
            "x": [[Q(i % 5 - 2, 1 + i % 3) for i in range(35)],
                  [Q(i % 7 - 3, 2) for i in range(35)]]}


@pytest.mark.parametrize("workload, make_input", [
    ("bracket_tower", bracket_tower_input), ("six_cubes", six_cubes_input),
    ("jet_eval", jet_eval_input)])
def test_one_op_reaches_every_expected_layer(workload, make_input):
    tracing, ops = load("tracing"), load("ops")
    inp = make_input()
    # the bracket builds objects and algebras only for a convolution shape
    # it has not laid out; the layout cache is an LRU that may drop any
    # layout, so emptying it changes no result
    forms._conv_layout.cache_clear()
    with tracing.Tracer() as tracer:
        assert ops.OPS[workload](inp)
    silent = [name for name in tracing.EXPECTED_CALLS[workload] if not tracer.calls[name]]
    assert not silent, f"{workload}: layers with zero calls: {silent}"
