import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fnlab import serialize
from fnlab.errors import ValidationError
from fnlab.forms import Kernel, cube_dim, form_from_kernel, identity_one_form, \
    pi_kernel, vector_field_form
from fnlab.micro import TRIANGLE_LABELS, MicroPoint, triangle_from_slots
from fnlab.morphisms import InfMorphism
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q, parse_rational, rat_str
from fnlab.serialize import (MAX_KERNEL_VARS, MAX_MONOMIALS, form_from_json, form_to_json,
                             micropoint_from_json,
                             micropoint_to_json, morphism_from_json,
                             morphism_to_json, obj_from_json, obj_to_json,
                             poly_to_json, polymap_from_json, polymap_to_json, to_json)
from fnlab.simplicial import D2, SimplicialObject, d_cube, d_order, d_paren, tensor
from fnlab.weil import make_algebra

RNG = random.Random(4)
SRC = Path(__file__).resolve().parent.parent / "src"


def rpoly(n, deg=2):
    pairs = []
    for _ in range(3):
        e = [0] * n
        for _ in range(RNG.randint(0, deg)):
            e[RNG.randrange(n)] += 1
        pairs.append((Q(RNG.randint(-9, 9), RNG.choice([1, 2, 3])), tuple(e)))
    return Poly.from_terms(n, pairs)


def test_object_round_trip():
    obj = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    data = obj_to_json(obj)
    assert data == {"n": 3, "p": [[1, 3], [2, 3]], "bounds": [2, 2, 2]}
    assert obj_from_json(json.loads(json.dumps(data))) == obj
    assert obj_from_json({"n": 2, "p": [[1, 2]]}) == d_paren(2)
    assert obj_from_json({"n": 1, "bounds": [3]}) == D2


def test_object_rejects_garbage():
    with pytest.raises(ValidationError):
        obj_from_json({"p": [[1, 2]]})
    with pytest.raises(ValidationError):
        obj_from_json({"n": 2, "p": [[2, 1]]})
    with pytest.raises(ValidationError):
        obj_from_json({"n": 2, "p": "nope"})


@pytest.mark.parametrize("data, message", [
    ({"n": 2.7}, "simplicial object n must be an integer"),
    ({"n": 2.0}, "simplicial object n must be an integer"),
    ({"n": "3"}, "simplicial object n must be an integer"),
    ({"n": True}, "simplicial object n must be an integer"),
    ({"n": None}, "simplicial object n must be an integer"),
    ({"n": 2, "p": [[1, 2.0]]}, "relation index must be an integer"),
    ({"n": 2, "p": [["1", 2]]}, "relation index must be an integer"),
    ({"n": 2, "p": [[True, 2]]}, "relation index must be an integer"),
    ({"n": 2, "p": [12]}, "p must be a list of index lists"),
    ({"n": 2, "p": {"1": 2}}, "p must be a list of index lists"),
    ({"n": 1, "bounds": [2.5]}, "power bound must be an integer"),
    ({"n": 1, "bounds": ["3"]}, "power bound must be an integer"),
    ({"n": 1, "bounds": [True]}, "power bound must be an integer"),
    ({"n": 1, "bounds": "3"}, "bounds must be a list"),
    ({"n": 1, "bounds": 3}, "bounds must be a list"),
])
def test_object_accepts_true_ints_only(data, message):
    with pytest.raises(ValidationError, match=message):
        obj_from_json(data)


@pytest.mark.parametrize("data", [
    {"n": 10}, {"n": 10, "p": [[1, 2], [3, 4]]}, {"n": 1, "bounds": [1024]},
    {"n": 2, "bounds": [32, 32]}, {"n": 3, "bounds": [2, 2, 256]},
])
def test_object_at_the_size_bound_decodes(data):
    obj = obj_from_json(data)
    size = 1
    for b in obj.bounds:
        size *= b
    assert size == MAX_MONOMIALS


@pytest.mark.parametrize("data", [
    {"n": 11}, {"n": 11, "p": [[1, 2]]}, {"n": 1, "bounds": [1025]},
    {"n": 2, "bounds": [32, 33]}, {"n": 3, "bounds": [2, 2, 257]},
])
def test_object_above_the_size_bound_rejected(data):
    message = f"product of its power bounds exceeds {MAX_MONOMIALS}"
    with pytest.raises(ValidationError, match=message):
        obj_from_json(data)


def test_polymap_round_trip():
    f = PolyMap(2, [rpoly(2), rpoly(2)])
    data = polymap_to_json(f)
    assert polymap_from_json(json.loads(json.dumps(data))) == f
    with pytest.raises(ValidationError):
        polymap_from_json({"in_dim": 2, "out_dim": 5, "components": data["components"]})


@pytest.mark.parametrize("fields, message", [
    ({"in_dim": 1.7}, "polynomial map in_dim must be an integer, got 1.7"),
    ({"in_dim": True}, "polynomial map in_dim must be an integer, got True"),
    ({"in_dim": "1"}, "polynomial map in_dim must be an integer, got '1'"),
    ({"in_dim": None}, "polynomial map in_dim must be an integer, got None"),
    ({"out_dim": 1.0}, "polynomial map out_dim must be an integer, got 1.0"),
    ({"out_dim": False}, "polynomial map out_dim must be an integer, got False"),
    ({"out_dim": "1"}, "polynomial map out_dim must be an integer, got '1'"),
    ({"in_dim": -1}, "polynomial map in_dim must be >= 0, got -1"),
])
def test_polymap_dimensions_are_json_integers(fields, message):
    data = {"in_dim": 1, "out_dim": 1, "components": [[{"c": "1", "e": [1]}]], **fields}
    with pytest.raises(ValidationError) as exc:
        polymap_from_json(data)
    assert str(exc.value) == message
    # the unchanged map decodes, and a map on no variables is allowed
    assert polymap_from_json({**data, "in_dim": 1, "out_dim": 1}) == PolyMap(1, [Poly.var(1, 0)])
    assert polymap_from_json({"in_dim": 0, "components": [[{"c": "2", "e": []}]]}) == \
        PolyMap(0, [Poly.const(0, Q(2))])


def test_morphism_round_trip():
    sq = d_cube(2)
    tgt = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    psi = InfMorphism(sq, tgt, [Poly.var(2, 0), Poly.var(2, 1),
                                Poly.var(2, 0) * Poly.var(2, 1)])
    assert morphism_from_json(json.loads(json.dumps(morphism_to_json(psi)))) == psi


_PSI = InfMorphism(d_cube(2), SimplicialObject(3, frozenset({(1, 3), (2, 3)})),
                   [Poly.var(2, 0), Poly.var(2, 1), Poly.var(2, 0) * Poly.var(2, 1)])


def _psi_json():
    return morphism_to_json(_PSI)


@pytest.mark.parametrize("change", [
    lambda d: {},
    lambda d: [d["source"], d["target"], d["subst"]],
    lambda d: {k: v for k, v in d.items() if k != "source"},
    lambda d: {k: v for k, v in d.items() if k != "target"},
    lambda d: {k: v for k, v in d.items() if k != "subst"},
    lambda d: {**d, "subst": 5},
    lambda d: {**d, "subst": [5, [], []]},
    lambda d: {**d, "subst": [[["1"]], [], []]},
    lambda d: {**d, "subst": [["1", [1, 0]], [], []]},
    lambda d: {**d, "subst": [[["1", 7]], [], []]},
    lambda d: {**d, "subst": [[[None, [1, 0]]], [], []]},
    lambda d: {**d, "source": 3},
], ids=["empty", "list", "no-source", "no-target", "no-subst", "subst-int",
        "terms-int", "term-short", "term-not-list", "exponents-int", "coeff-null",
        "source-int"])
def test_morphism_rejects_malformed(change):
    with pytest.raises(ValidationError):
        morphism_from_json(change(_psi_json()))


def _point_json():
    return micropoint_to_json(MicroPoint.from_table(d_cube(2), 2, {
        (): [1, Q(1, 2)], (1,): [2, 0], (1, 2): [Q(-7, 3), 5]}))


@pytest.mark.parametrize("change", [
    lambda d: {},
    lambda d: [d["object"], d["m"]],
    lambda d: {k: v for k, v in d.items() if k != "object"},
    lambda d: {k: v for k, v in d.items() if k != "m"},
    lambda d: {**d, "m": None},
    lambda d: {**d, "m": "two"},
    lambda d: {**d, "m": 3},
    lambda d: {**d, "m": 2.0},
    lambda d: {**d, "m": 2.5},
    lambda d: {**d, "m": "2"},
    lambda d: {**d, "m": True, "coeffs": {"[]": ["1"]}},
    lambda d: {**d, "coeffs": [1]},
    lambda d: {**d, "coeffs": {"[]": 1}},
    lambda d: {**d, "coeffs": {"[]": "12"}},
    lambda d: {**d, "coeffs": {"[0]": ["1", "2"]}},
    lambda d: {**d, "coeffs": {"[3]": ["1", "2"]}},
    lambda d: {**d, "coeffs": {"[true]": ["1", "2"]}},
    lambda d: {**d, "coeffs": {"[1,1]": ["1", "2"]}},
    lambda d: {**d, "coeffs": {"[": ["1", "2"]}},
    lambda d: {**d, "coeffs": {"[]": ["1", []]}},
    lambda d: {**d, "coeffs": {"[]": ["1", True]}},
], ids=["empty", "list", "no-object", "no-m", "m-null", "m-text", "m-wrong",
        "m-float", "m-half", "m-numeric-text", "m-bool",
        "coeffs-list", "vector-int", "vector-text", "index-zero", "index-high",
        "index-bool", "not-in-basis", "bad-key", "coeff-list", "coeff-bool"])
def test_micropoint_rejects_malformed(change):
    with pytest.raises(ValidationError):
        micropoint_from_json(change(_point_json()))


def test_micropoint_round_trip():
    p = MicroPoint.from_table(d_cube(2), 2, {
        (): [1, Q(1, 2)], (1,): [2, 0], (1, 2): [Q(-7, 3), 5]})
    data = micropoint_to_json(p)
    assert set(data["coeffs"]) == {"[]", "[1]", "[1,2]"}
    assert micropoint_from_json(json.loads(json.dumps(data))) == p


def test_micropoint_higher_power_keys():
    p = MicroPoint.from_table(D2, 1, {(): [1], (1,): [2], (1, 1): [3]})
    data = micropoint_to_json(p)
    assert data["coeffs"]["[1,1]"] == ["3"]
    assert micropoint_from_json(data) == p


def test_form_round_trip_with_pi_marker():
    x = identity_one_form(2)
    data = form_to_json(x)
    assert data["coeffs"]["[]"] == "pi"
    back = form_from_json(json.loads(json.dumps(data)))
    assert back == x and back.class_tag == "omega123"
    vf = vector_field_form(PolyMap(1, [rpoly(1)]))
    assert form_from_json(form_to_json(vf)) == vf


def test_form_rejects_bad_kernel_dims():
    x = form_from_kernel(Kernel(1, 1, PolyMap(cube_dim(1, 1),
                                              [rpoly(cube_dim(1, 1))])))
    data = form_to_json(x)
    data["coeffs"]["[1]"]["in_dim"] = 5
    data["coeffs"]["[1]"]["components"][0] = []
    with pytest.raises(ValidationError):
        form_from_json(data)


def test_form_rejects_a_repeated_index_in_a_subset_key():
    # "[1,1]" was read as the subset {1}, so pi replaced the principal kernel
    n = cube_dim(1, 1)
    x0 = polymap_to_json(PolyMap(n, [Poly.var(n, 0)]))
    data = {"p": 1, "k": 1, "m": 1, "coeffs": {"[]": "pi", "[1]": x0, "[1,1]": "pi"}}
    with pytest.raises(ValidationError, match=r"subset key '\[1,1\]' repeats an index"):
        form_from_json(data)
    del data["coeffs"]["[1,1]"]
    assert form_from_json(data).principal().body == PolyMap(n, [Poly.var(n, 0)])


def _pi_form(**fields):
    return {"p": 1, "k": 1, "m": 1, "coeffs": {"[]": "pi"}, **fields}


@pytest.mark.parametrize("fields", [
    {"p": -1}, {"p": 1.7}, {"p": True}, {"p": "1"}, {"k": -1},
], ids=["p-negative", "p-float", "p-bool", "p-text", "k-negative"])
def test_form_rejects_non_counting_arities(fields):
    # each was decoded before: -1 leaked a ValueError, 1.7, true and "1"
    # became 1, and k = -1 was kept
    with pytest.raises(ValidationError, match=f"form {next(iter(fields))} must be"):
        form_from_json(_pi_form(**fields))


@pytest.mark.parametrize("p, m", [(7, 1), (6, 2), (0, 128), (7, 0)])
def test_form_at_the_size_bound_decodes(p, m):
    assert max(m, 1) << p == MAX_KERNEL_VARS
    x = form_from_json(_pi_form(p=p, m=m))
    assert (x.p, x.m) == (p, m) and x.coeff(()) == pi_kernel(p, m)


@pytest.mark.parametrize("p, m", [(8, 1), (7, 2), (0, 129), (8, 0)])
def test_form_above_the_size_bound_rejected(p, m):
    # kernels in m * 2^p variables; a form with m = 0 still has 2^p slots
    assert max(m, 1) << p > MAX_KERNEL_VARS
    with pytest.raises(ValidationError, match=rf"p={p}, m={m} is too large"):
        form_from_json(_pi_form(p=p, m=m))


def test_rationals_serialized_as_strings():
    p = MicroPoint.from_table(d_cube(1), 1, {(): [Q(-7, 3)]})
    assert micropoint_to_json(p)["coeffs"]["[]"] == ["-7/3"]


@pytest.mark.parametrize("n, den", [
    (-7, 3), (7, 3), (-1, 2),          # negative and positive, already reduced
    (6, 1), (-6, 3), (12, 4), (0, 5),  # integral, over 1 or not, and zero
    (4, 6), (-10, 4), (9, 12),         # a factor shared with the denominator
    (2 ** 70 + 2, 6),                  # beyond machine integers
])
def test_coefficient_strings_from_numerators(n, den):
    assert serialize._ratio_str(n, den) == rat_str(Q(n, den))


def grlex_key(exps):
    """The graded lexicographic order as a sort key: total degree first, then
    the larger exponent at the first variable where two monomials differ."""
    return (sum(exps), tuple(-e for e in exps))


def test_terms_and_weil_bases_follow_the_grlex_key():
    """Term lists and Weil bases against the reference key, with degree ties.

    Monomials of one degree tie on the first sort key, and a higher-degree
    monomial can be lexicographically smaller than a lower one, so neither a
    descending sort alone nor a degree sort alone passes.
    """
    rng = random.Random(35)
    n = 32
    for _ in range(20):
        pairs = []
        for degree in (1, 1, 2, 2, 2, 3, 3):
            e = [0] * n
            for _ in range(degree):
                e[rng.randrange(4) if rng.random() < 0.5 else rng.randrange(n)] += 1
            pairs.append((Q(rng.randint(-9, 9) or 1, rng.randint(1, 4)), tuple(e)))
        x = Poly.from_terms(n, pairs)
        got = [tuple(t["e"]) for t in poly_to_json(x)]
        assert got == sorted(x.numerators, key=grlex_key)
        assert [t["c"] for t in poly_to_json(x)] == [rat_str(x.terms[e]) for e in got]
        assert repr(x) == repr(Poly(n, dict(x.terms)))
    tie = Poly.from_terms(n, [(Q(1), (0,) * 31 + (2,)), (Q(2), (1,) + (0,) * 31),
                              (Q(3), (0, 1) + (0,) * 30), (Q(4), (1, 1) + (0,) * 30)])
    assert [tuple(t["e"]) for t in poly_to_json(tie)] == sorted(tie.numerators, key=grlex_key) \
        == [(1,) + (0,) * 31, (0, 1) + (0,) * 30, (1, 1) + (0,) * 30, (0,) * 31 + (2,)]
    relation = SimplicialObject(4, frozenset({(1, 2), (2, 3, 4), (1, 4)}), (3, 2, 3, 2))
    for obj in (d_order(2), d_order(4), tensor(d_order(2), d_cube(2)),
                tensor(d_paren(2), d_order(3)), relation, d_paren(3), d_cube(5)):
        basis = make_algebra(obj).basis
        assert list(basis) == sorted(basis, key=grlex_key), obj
        assert len({sum(e) for e in basis}) > 1
        if obj.n > 1:
            assert len(basis) > len({sum(e) for e in basis}), obj


def test_polynomial_terms_written_from_numerators():
    # over the denominator 12, each numerator shares a different factor with it
    x = Poly.from_terms(2, [(Q(1, 12), (0, 0)), (Q(1, 2), (1, 0)), (Q(-4, 3), (0, 1)),
                            (Q(5), (2, 0))])
    assert x.denominator == 12
    assert [t["c"] for t in polymap_to_json(PolyMap(2, [x]))["components"][0]] \
        == [rat_str(x.terms[e]) for e in sorted(x.terms, key=grlex_key)] \
        == ["1/12", "1/2", "-4/3", "5"]


def test_triangle_cubes_serialize_as_micropoints():
    v = [Q(1)]
    t = triangle_from_slots(1, [v, v, v, v], {pair: (v, v) for pair in [(1, 2), (1, 3), (2, 3)]},
                            {label: v for label in TRIANGLE_LABELS})
    assert to_json(t.cubes) == to_json(dict(t.cubes))
    assert to_json(t.cubes)["123"] == micropoint_to_json(t.cubes["123"])


_KERNEL = Kernel(1, 2, PolyMap(4, [Poly.var(4, 2) * Poly.var(4, 0), Poly.var(4, 3, Q(1, 2))]))
_POLY = Poly.from_terms(2, [(Q(-3, 4), (2, 1)), (Q(5), (0, 0))])


@pytest.mark.parametrize("value, expected", [
    (_PSI, morphism_to_json(_PSI)),
    (_KERNEL, polymap_to_json(_KERNEL.body)),
    (_POLY, poly_to_json(_POLY)),
    (None, None),
], ids=["morphism", "kernel", "poly", "none"])
def test_to_json_writes_each_witness_type_in_its_format(value, expected):
    assert to_json(value) == expected


def _point_with(value):
    return {"object": obj_to_json(d_cube(1)), "m": 1, "coeffs": {"[]": [value]}}


@pytest.mark.parametrize("text", ["3/4", "-2", "1.5", " 7 ", "+6/4", "0.125", "1_000", "-0"])
def test_rational_spellings_decode_as_fraction_does(text):
    want = Q(Fraction(text))
    assert micropoint_from_json(_point_with(text)).coeff(()) == (want,)
    assert parse_rational(text) == want


HUGE_EXPONENT = "1e999999999"

_DECODE_IN_CHILD = """
import json, sys
from fnlab.errors import ValidationError
from fnlab.serialize import micropoint_from_json
try:
    micropoint_from_json(json.loads(sys.argv[1]))
except ValidationError as exc:
    print(exc)
"""


def _decode_in_child(data, timeout: float = 5.0) -> str:
    """The ValidationError message of micropoint_from_json(data), read in a
    child interpreter that is killed after timeout seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        out = subprocess.run([sys.executable, "-c", _DECODE_IN_CHILD, json.dumps(data)],
                             env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"decoding did not finish within {timeout} s")
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("text", [HUGE_EXPONENT, "1E5", "2.5e-3", "-3e+2", " 1e1 "])
def test_rational_with_an_exponent_is_refused_at_once(text):
    """Refused before Q reads it.  Without the refusal, the huge exponent
    would make the decoder build 10^999999999 (about 415 MB) for minutes, so
    that case decodes in a child interpreter that a timeout kills."""
    if text == HUGE_EXPONENT:
        assert "bad rational" in _decode_in_child(_point_with(text))
    start = time.perf_counter()
    if text != HUGE_EXPONENT:
        with pytest.raises(ValidationError, match="bad rational"):
            micropoint_from_json(_point_with(text))
    with pytest.raises(ValidationError, match="exponent notation is not accepted"):
        parse_rational(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["x", "", "1/0", "e", "1e", "one"])
def test_malformed_rationals_keep_their_errors(text):
    with pytest.raises(ValidationError, match=re.escape(f"bad rational {text!r}")):
        micropoint_from_json(_point_with(text))
    with pytest.raises((ValueError, ZeroDivisionError)) as direct:
        Q(text)
    with pytest.raises(type(direct.value)) as parsed:
        parse_rational(text)
    assert type(parsed.value) is type(direct.value) and str(parsed.value) == str(direct.value)
