"""One benchmark op per workload, each with its exact correctness check.

An op calls fnlab's public functions directly and returns True when the
identity it computes is an exact zero (or an exact equality).  Library
functions are looked up through their modules at call time, so the traced
run's wrappers see every call.
"""

import json

from fnlab import forms, micro, poly, serialize, weil
from fnlab.rationals import Q
from fnlab.simplicial import d_cube


def _graded_jacobi_sum(bracket, x, y, z, out):
    """Signed sum of the graded Jacobi identity; outer brackets go to out."""
    p, q, r = x.p, y.p, z.p
    outer = (bracket(x, bracket(y, z)),
             bracket(y, bracket(z, x)),
             bracket(z, bracket(x, y)))
    out.extend(outer)
    return (outer[0].principal()
            + outer[1].principal().scale(Q((-1) ** (p * (q + r))))
            + outer[2].principal().scale(Q((-1) ** (r * (p + q)))))


def bracket_tower(inp) -> bool:
    x, y, z = (serialize.form_from_json(json.loads(text)) for text in inp["wire"])
    bracket = forms.bracket_fn13 if inp["kind"] == "FN13" else forms.bracket_fn123
    outer = []
    total = _graded_jacobi_sum(bracket, x, y, z, outer)
    encoded = [json.dumps(serialize.form_to_json(b), separators=(",", ":")) for b in outer]
    return not total and all(encoded)


def six_cubes(inp) -> bool:
    t = micro.triangle_from_slots(inp["m"], inp["base4"], inp["slots"], inp["corners"])
    if t.violations():
        return False
    defect = micro.jacobi3_defect(t)
    return not any(micro.tangent_principal(defect))


def jet_eval(inp) -> bool:
    alg = weil.make_algebra(inp["obj"])
    one = alg.one()
    x = [weil.from_dense(alg, vals) for vals in inp["x"]]
    f, g = inp["f"], inp["g"]
    return f.compose(g).eval(x, one) == f.eval(g.eval(x, one), one)


OPS = {"bracket_tower": bracket_tower, "six_cubes": six_cubes, "jet_eval": jet_eval}


def warm_up():
    """First-use construction every workload relies on.

    Builds the cube algebras the bracket tower expands over, the four gluing
    cases and their morphism matrices, and runs one small fixed op of each
    kind, so lazily built library state exists before timing starts.
    """
    for n in range(5):
        weil.make_algebra(d_cube(n))
    for case in micro.amalgamation_cases().values():
        for obj in (case.leg, case.apex, case.shared, case.result):
            weil.make_algebra(obj)
        for mor in (case.twisted, case.flat, case.shared_incl, case.extract):
            mor.matrix()
    v = [Q(1), Q(2), Q(-1, 2), Q(1, 3)]
    ok = six_cubes({"m": 1, "base4": [[c] for c in v],
                    "slots": {pair: ([Q(i)], [Q(-i)]) for i, pair in
                              enumerate([(1, 2), (1, 3), (2, 3)], 1)},
                    "corners": {label: [Q(i)] for i, label in
                                enumerate(micro.TRIANGLE_LABELS)}})
    xf = forms.vector_field_form(poly.PolyMap(1, [poly.Poly.var(1, 0) * poly.Poly.var(1, 0)]))
    yf = forms.vector_field_form(poly.PolyMap(1, [poly.Poly.one(1)]))
    wire = [json.dumps(serialize.form_to_json(f), separators=(",", ":")) for f in (xf, yf, xf)]
    ok = ok and bracket_tower({"kind": "FN123", "wire": wire})
    if not ok:
        raise RuntimeError("warm-up op failed its own exact check")
