"""JSON wire formats.

Rationals travel as decimal strings "num/den" (or "num"); a JSON string or
int is read by `rationals.as_rational`, the reader points use.  Monomial
keys are sorted 1-based index lists rendered compactly, e.g. "[]", "[1]",
"[1,2]", with repeats for powers above one.  Polynomials are term lists
{"c": "...", "e": [exponents]}; maps carry their dimensions explicitly.
"""

import json
from collections.abc import Mapping
from itertools import repeat
from math import gcd

from .errors import ValidationError
from .forms import OMEGA0, FormElem, Kernel, cube_dim, pi_kernel
from .micro import MicroPoint
from .morphisms import InfMorphism
from .poly import Poly, PolyMap, grlex_sorted
from .rationals import Q, as_rational, rat_str
from .simplicial import SimplicialObject


def _key(indices) -> str:
    return json.dumps(sorted(indices), separators=(",", ":"))


def _unkey(text: str):
    try:
        idx = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad monomial key {text!r}") from exc
    if not isinstance(idx, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in idx):
        raise ValidationError(f"bad monomial key {text!r}")
    return tuple(idx)


def _exponents(value) -> tuple:
    if not isinstance(value, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in value):
        raise ValidationError(f"exponent vector must be a list of ints, got {value!r}")
    return tuple(value)


def _rat(value) -> Q:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f"rational expected, got {value!r}")
    return as_rational(value)


# simplicial objects ---------------------------------------------------------


def obj_to_json(obj: SimplicialObject) -> dict:
    return {"n": obj.n,
            "p": [list(seq) for seq in sorted(obj.relations)],
            "bounds": list(obj.bounds)}


# A WeilAlgebra basis holds at most every exponent tuple below the power
# bounds, the product of the bounds (2^n for square-zero generators), and its
# pair table grows with the square of that; d_cube(10) has 1024 and builds in
# a fraction of a second.
MAX_MONOMIALS = 1024


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def obj_from_json(data: dict) -> SimplicialObject:
    if not isinstance(data, dict) or "n" not in data:
        raise ValidationError("simplicial object JSON needs at least {'n': ...}")
    n = _json_int(data["n"], "simplicial object n")
    rels = data.get("p", [])
    if not isinstance(rels, list) or any(not isinstance(seq, list) for seq in rels):
        raise ValidationError("simplicial object p must be a list of index lists")
    rels = frozenset(tuple(_json_int(i, "relation index") for i in seq) for seq in rels)
    bounds = data.get("bounds")
    if bounds is not None:
        if not isinstance(bounds, list):
            raise ValidationError("simplicial object bounds must be a list")
        bounds = tuple(_json_int(b, "power bound") for b in bounds)
    # multiplied bound by bound up to the first product past the limit, so a
    # huge n or bound builds no huge integer (and bit_length() doublings
    # already pass it); bounds below 2 are left to SimplicialObject to reject
    size = 1
    for b in repeat(2, min(n, MAX_MONOMIALS.bit_length())) if bounds is None else bounds:
        size *= max(b, 1)
        if size > MAX_MONOMIALS:
            raise ValidationError(
                f"simplicial object is too large: the product of its power "
                f"bounds exceeds {MAX_MONOMIALS}")
    return SimplicialObject(n, rels, bounds)


# polynomials ----------------------------------------------------------------


def _ratio_str(n: int, den: int) -> str:
    """rat_str(Q(n, den)) for den > 0, from the integers: one gcd, no rational."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def poly_to_json(p: Poly) -> list:
    """Terms in `grlex_sorted` order; each distinct numerator is formatted
    once, as an antisymmetrized kernel's orbit repeats one |coefficient|."""
    num, den = p.numerators, p.denominator
    text = {c: _ratio_str(c, den) for c in set(num.values())}
    return [{"c": text[num[e]], "e": list(e)} for e in grlex_sorted(num)]


def poly_from_json(data, n: int) -> Poly:
    if not isinstance(data, list):
        raise ValidationError("polynomial JSON must be a term list")
    pairs = []
    for term in data:
        if not isinstance(term, dict) or "c" not in term or "e" not in term:
            raise ValidationError(f"bad polynomial term {term!r}")
        pairs.append((_rat(term["c"]), _exponents(term["e"])))
    return Poly.from_terms(n, pairs)


def polymap_to_json(f: PolyMap) -> dict:
    return {"in_dim": f.in_dim, "out_dim": f.out_dim,
            "components": [poly_to_json(c) for c in f.comps]}


def polymap_from_json(data) -> PolyMap:
    if not isinstance(data, dict) or "in_dim" not in data or "components" not in data:
        raise ValidationError("polynomial map JSON needs in_dim and components")
    if not isinstance(data["components"], list):
        raise ValidationError("polynomial map components must be a list")
    n = _json_int(data["in_dim"], "polynomial map in_dim")
    if n < 0:
        raise ValidationError(f"polynomial map in_dim must be >= 0, got {n}")
    out_dim = _json_int(data.get("out_dim", len(data["components"])), "polynomial map out_dim")
    f = PolyMap(n, [poly_from_json(c, n) for c in data["components"]])
    if out_dim != f.out_dim:
        raise ValidationError("out_dim does not match component count")
    return f


# morphisms ------------------------------------------------------------------


def morphism_to_json(f: InfMorphism) -> dict:
    return {"source": obj_to_json(f.source),
            "target": obj_to_json(f.target),
            "subst": [[[rat_str(c), list(e)] for e, c in sorted(p.terms.items())]
                      for p in f.subst]}


def _subst_term(term):
    if not isinstance(term, list) or len(term) != 2:
        raise ValidationError(f"substitution term must be [c, exponents], got {term!r}")
    return _rat(term[0]), _exponents(term[1])


def morphism_from_json(data) -> InfMorphism:
    if not isinstance(data, dict) or any(k not in data for k in ("source", "target", "subst")):
        raise ValidationError("morphism JSON needs source, target and subst")
    src = obj_from_json(data["source"])
    tgt = obj_from_json(data["target"])
    subst = data["subst"]
    if not isinstance(subst, list) or any(not isinstance(terms, list) for terms in subst):
        raise ValidationError("morphism subst must be a list of term lists")
    comps = [Poly.from_terms(src.n, [_subst_term(t) for t in terms]) for terms in subst]
    return InfMorphism(src, tgt, comps)


# points ---------------------------------------------------------------------


def micropoint_to_json(p: MicroPoint) -> dict:
    alg = p.algebra
    coeffs = {}
    for pos, exps in enumerate(alg.basis):
        vec = [c.coeffs.get(pos) for c in p.coords]
        if not any(vec):
            continue
        indices = []
        for i, e in enumerate(exps):
            indices.extend([i + 1] * e)
        coeffs[_key(indices)] = [rat_str(v) if v else "0" for v in vec]
    return {"object": obj_to_json(alg.source), "m": p.m, "coeffs": coeffs}


def micropoint_from_json(data) -> MicroPoint:
    if not isinstance(data, dict) or "object" not in data or "m" not in data:
        raise ValidationError("point JSON needs object and m")
    obj = obj_from_json(data["object"])
    m = _json_int(data["m"], "point m")
    # a coordinate per dimension is built first; m is bounded as a form's is
    if m > MAX_KERNEL_VARS:
        raise ValidationError(f"point with m={m} is too large: m exceeds {MAX_KERNEL_VARS}")
    coeffs = data.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise ValidationError("point coeffs must be an object")
    table = {}
    for key, vec in coeffs.items():
        if not isinstance(vec, list):
            raise ValidationError(f"coefficient vector at {key} must be a list")
        table[_unkey(key)] = [_rat(v) for v in vec]
    return MicroPoint.from_table(obj, m, table)


# forms ----------------------------------------------------------------------

# Kernels of arity p on R^m take m * 2^p variables, and class checks walk all
# 2^p cube slots even for m = 0.  The heavy Jacobi sums reach p = 6, m = 2.
MAX_KERNEL_VARS = 128


def form_to_json(x: FormElem) -> dict:
    coeffs = {}
    pi = pi_kernel(x.p, x.m)
    for subset, ker in x.coeffs.items():
        coeffs[_key(subset)] = "pi" if ker == pi else polymap_to_json(ker.body)
    return {"p": x.p, "k": x.k, "m": x.m, "class": x.class_tag, "coeffs": coeffs}


def form_from_json(data) -> FormElem:
    if not isinstance(data, dict):
        raise ValidationError("form JSON must be an object")
    for field in ("p", "k", "m"):
        value = data.get(field)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValidationError(f"form {field} must be a non-negative integer, got {value!r}")
    p, k, m = data["p"], data["k"], data["m"]
    # p is compared before shifting, so a huge p builds no huge integer
    if p >= MAX_KERNEL_VARS.bit_length() or max(m, 1) << p > MAX_KERNEL_VARS:
        raise ValidationError(f"form with p={p}, m={m} is too large: "
                              f"max(m, 1)*2^p exceeds {MAX_KERNEL_VARS}")
    table = data.get("coeffs", {})
    if not isinstance(table, dict):
        raise ValidationError("form coeffs must be an object")
    coeffs = {}
    for key, body in table.items():
        indices = _unkey(key)
        subset = frozenset(indices)
        if len(subset) != len(indices):
            raise ValidationError(f"expansion subset key {key!r} repeats an index")
        if body == "pi":
            ker = pi_kernel(p, m)
        else:
            pm = polymap_from_json(body)
            if pm.in_dim != cube_dim(p, m) or pm.out_dim != m:
                raise ValidationError(
                    f"kernel at {key} must map {cube_dim(p, m)} -> {m}")
            ker = Kernel(p, m, pm)
        coeffs[subset] = ker
    return FormElem(p, k, m, coeffs, data.get("class", OMEGA0))


# generic --------------------------------------------------------------------


def to_json(value):
    """Best-effort serialization for report witnesses."""
    if isinstance(value, SimplicialObject):
        return obj_to_json(value)
    if isinstance(value, InfMorphism):
        return morphism_to_json(value)
    if isinstance(value, MicroPoint):
        return micropoint_to_json(value)
    if isinstance(value, FormElem):
        return form_to_json(value)
    if isinstance(value, Kernel):
        return polymap_to_json(value.body)
    if isinstance(value, PolyMap):
        return polymap_to_json(value)
    if isinstance(value, Poly):
        return poly_to_json(value)
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return rat_str(value)
