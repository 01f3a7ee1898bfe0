import json
import random

import pytest

from fnlab.errors import ValidationError
from fnlab.forms import Kernel, cube_dim, form_from_kernel, identity_one_form, \
    pi_kernel, vector_field_form
from fnlab.micro import TRIANGLE_LABELS, MicroPoint, triangle_from_slots
from fnlab.morphisms import InfMorphism
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.serialize import (MAX_KERNEL_VARS, MAX_MONOMIALS, form_from_json, form_to_json,
                             micropoint_from_json,
                             micropoint_to_json, morphism_from_json,
                             morphism_to_json, obj_from_json, obj_to_json,
                             polymap_from_json, polymap_to_json, to_json)
from fnlab.simplicial import D2, SimplicialObject, d_cube, d_paren

RNG = random.Random(4)


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


def _psi_json():
    sq = d_cube(2)
    tgt = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    return morphism_to_json(InfMorphism(sq, tgt, [Poly.var(2, 0), Poly.var(2, 1),
                                                  Poly.var(2, 0) * Poly.var(2, 1)]))


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
], ids=["empty", "list", "no-object", "no-m", "m-null", "m-text", "m-wrong",
        "m-float", "m-half", "m-numeric-text", "m-bool",
        "coeffs-list", "vector-int", "vector-text", "index-zero", "index-high",
        "index-bool", "not-in-basis", "bad-key", "coeff-list"])
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


def test_triangle_cubes_serialize_as_micropoints():
    v = [Q(1)]
    t = triangle_from_slots(1, [v, v, v, v], {pair: (v, v) for pair in [(1, 2), (1, 3), (2, 3)]},
                            {label: v for label in TRIANGLE_LABELS})
    assert to_json(t.cubes) == to_json(dict(t.cubes))
    assert to_json(t.cubes)["123"] == micropoint_to_json(t.cubes["123"])
