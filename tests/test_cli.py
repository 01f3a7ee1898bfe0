import json
import sys
from collections import Counter

import pytest

from fnlab import forms, weil
from fnlab.cli import main
from fnlab.forms import (FormElem, Kernel, cube_dim, cube_var, form_from_kernel,
                         identity_one_form, pi_kernel, vector_field_form)
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.serialize import form_to_json, polymap_to_json


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def test_weil_dimensions(capsys):
    assert main(["weil", '{"n":3,"p":[[1,3],[2,3]]}']) == 0
    assert "dim      5" in capsys.readouterr().out
    assert main(["weil", '{"n":2,"p":[[1,2]]}', "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 3 and data["monomials"] == ["1", "d1", "d2"]


def test_weil_rejects_malformed(capsys):
    assert main(["weil", '{"n":2,"p":[[2,1]]}']) == 2
    assert main(["weil", '{"n":2,"p":']) == 2
    assert main(["weil", "no-such-file.json"]) == 2
    capsys.readouterr()
    for text, message in (('{"n":2.7}', "n must be an integer"),
                          ('{"n":"3"}', "n must be an integer"),
                          ('{"n":true}', "n must be an integer"),
                          ('{"n":3,"p":[[1,2.0]]}', "relation index must be an integer"),
                          ('{"n":1,"bounds":[true]}', "power bound must be an integer"),
                          ('{"n":11}', "product of its power bounds exceeds 1024")):
        assert main(["weil", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and message in err


def test_bracket_vector_fields(files, capsys):
    x = files("x.json", form_to_json(vector_field_form(PolyMap(1, [Poly.var(1, 0)]))))
    y = files("y.json", form_to_json(vector_field_form(PolyMap(1, [Poly.one(1)]))))
    assert main(["bracket", x, y, "--level", "L1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 0 and out["coeffs"]["[1]"]["components"] == [[{"c": "1", "e": [0]}]]


def test_bracket_levels_and_preconditions(files, capsys):
    ident = files("id.json", form_to_json(identity_one_form(1)))
    assert main(["bracket", ident, ident, "--level", "FN123"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "omega123" and out["p"] == 2
    # an alternating but non-multilinear form trips FN123's precondition
    n = cube_dim(1, 1)
    sq = form_from_kernel(Kernel(1, 1, PolyMap(n, [
        Poly.var(n, cube_var(1, 1, {1}, 0)) ** 2])))
    bad = files("sq.json", form_to_json(sq))
    assert main(["bracket", bad, ident, "--level", "FN123"]) == 3
    capsys.readouterr()


LEVEL_PREDICATES = {"L1": ("is_omega1",), "L12": ("is_omega12",),
                    "FN13": ("is_omega13",), "FN123": ("is_omega12", "is_omega13")}


def _failing_forms():
    """Forms on R^1, each failing one class predicate and passing the rest."""
    n = cube_dim(2, 1)
    g1, g2 = (Poly.var(n, cube_var(2, 1, {i}, 0)) for i in (1, 2))
    doubled = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1).scale(Q(2)),
                                 frozenset({1}): identity_one_form(1).principal()})
    squared = form_from_kernel(Kernel(1, 1, PolyMap(2, [Poly.var(2, 1) ** 2])))
    symmetric = form_from_kernel(Kernel(2, 1, PolyMap(n, [g1 * g2])))
    return {"is_omega1": doubled, "is_omega12": squared, "is_omega13": symmetric}


@pytest.mark.parametrize("level", sorted(LEVEL_PREDICATES))
def test_bracket_precondition_messages(level, files, capsys):
    good = files("good.json", form_to_json(identity_one_form(1)))
    failing = _failing_forms()
    for name in LEVEL_PREDICATES[level]:
        bad = files(f"{name}.json", form_to_json(failing[name]))
        for label, pair in (("first", (bad, good)), ("second", (good, bad))):
            assert main(["bracket", *pair, "--level", level]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"precondition violated: {label} form fails {name}\n"


def test_bracket_fn123_checks_multilinearity_of_both_forms_first(files, capsys):
    failing = _failing_forms()
    not_alternating = files("x.json", form_to_json(failing["is_omega13"]))
    not_multilinear = files("y.json", form_to_json(failing["is_omega12"]))
    assert main(["bracket", not_alternating, not_multilinear, "--level", "FN123"]) == 3
    assert capsys.readouterr().err == \
        "precondition violated: second form fails is_omega12\n"


# the code of each condition a level checks: the Dirac condition, then
# multilinearity and alternation, however the public predicates reach them
LEVEL_CONDITIONS = {"L1": ("is_omega1",), "L12": ("is_omega1", "_multilinear"),
                    "FN13": ("is_omega1", "_alternating"),
                    "FN123": ("is_omega1", "_multilinear", "_alternating")}


@pytest.mark.parametrize("level", sorted(LEVEL_PREDICATES))
def test_bracket_checks_each_input_condition_once(level, files, capsys):
    # executions of each condition's code are counted, however it is reached
    codes = {getattr(forms, name).__code__: name for name in LEVEL_CONDITIONS[level]}
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code], id(frame.f_locals["x"])] += 1

    x = files("x.json", form_to_json(identity_one_form(1)))
    y = files("y.json", form_to_json(identity_one_form(1)))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = main(["bracket", x, y, "--level", level])
    finally:
        sys.setprofile(previous)
    assert status == 0
    capsys.readouterr()
    assert sorted(name for name, _ in calls) == sorted(LEVEL_CONDITIONS[level] * 2)
    assert set(calls.values()) == {1}


def test_bracket_dimension_mismatch(files, capsys):
    x = files("x.json", form_to_json(vector_field_form(PolyMap(1, [Poly.var(1, 0)]))))
    y2 = files("y2.json", form_to_json(vector_field_form(
        PolyMap(2, [Poly.var(2, 0), Poly.var(2, 1)]))))
    assert main(["bracket", x, y2]) == 2
    capsys.readouterr()


def test_verify_small_pass(capsys):
    assert main(["verify", "--cases", "2", "--suites", "weil,conv", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "--cases", "2", "--suites", "microcalc", "--json", "--seed", "9"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    for report in (first, second):
        for entry in report["properties"]:
            entry.pop("time_s")
    assert first == second


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--config", '{"cases_per_property":0}']) == 2
    assert main(["verify", "--suites", "weil,bogus"]) == 2


def test_jacobi3_fields(files, capsys):
    x = files("vx.json", polymap_to_json(PolyMap(1, [Poly.var(1, 0)])))
    y = files("vy.json", polymap_to_json(PolyMap(1, [Poly.one(1)])))
    z = files("vz.json", polymap_to_json(PolyMap(1, [Poly.zero(1)])))
    assert main(["jacobi3", "--fields", x, y, z, "--point", "1/2"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert main(["jacobi3", "--fields", x, y, z, "--point", "1,2"]) == 2
    capsys.readouterr()


def test_jacobi3_dimension_mismatch(files, capsys):
    x = files("vx.json", polymap_to_json(PolyMap(1, [Poly.var(1, 0)])))
    w = files("vw.json", polymap_to_json(PolyMap(2, [Poly.var(2, 0), Poly.var(2, 1)])))
    assert main(["jacobi3", "--fields", x, x, w]) == 2
    capsys.readouterr()


def test_jacobi3_random(capsys):
    assert main(["jacobi3", "--random", "4", "--seed", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_zero"] and len(data["cases"]) == 4


def _form(coeffs):
    return json.dumps({"p": 0, "k": 1, "m": 1, "coeffs": coeffs})


def _kernel(components):
    return {"in_dim": 1, "out_dim": 1, "components": components}


MALFORMED_FORMS = {
    "coeffs not an object": (_form([1]), "form coeffs must be an object"),
    "kernel a number": (_form({"[1]": 5}), "needs in_dim and components"),
    "kernel a string": (_form({"[1]": "x"}), "needs in_dim and components"),
    "components not a list": (_form({"[1]": _kernel(5)}), "components must be a list"),
    "in_dim not an integer": (_form({"[1]": {"in_dim": [1], "components": []}}),
                              "polynomial map in_dim must be an integer"),
    "out_dim not an integer": (_form({"[1]": {"in_dim": 1, "out_dim": [1], "components": []}}),
                               "polynomial map out_dim must be an integer"),
    "exponents a number": (_form({"[1]": _kernel([[{"c": "1", "e": 5}]])}),
                           "exponent vector must be a list of ints"),
    "exponents not ints": (_form({"[1]": _kernel([[{"c": "1", "e": ["1"]}]])}),
                           "exponent vector must be a list of ints"),
    "exponents a float": (_form({"[1]": _kernel([[{"c": "1", "e": [1.5]}]])}),
                          "exponent vector must be a list of ints"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FORMS))
def test_bracket_malformed_form_is_invalid_input(shape, capsys):
    bad, message = MALFORMED_FORMS[shape]
    good = json.dumps(form_to_json(vector_field_form(PolyMap(1, [Poly.one(1)]))))
    assert main(["bracket", bad, good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err


def test_bracket_negative_arity_is_invalid_input(capsys):
    bad = json.dumps({"p": -1, "k": 1, "m": 1, "coeffs": {"[]": "pi"}})
    good = json.dumps(form_to_json(vector_field_form(PolyMap(1, [Poly.one(1)]))))
    assert main(["bracket", bad, good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "form p must be a non-negative integer" in err


def test_bracket_oversized_form_is_invalid_input(capsys):
    # one kernel variable over the bound: m * 2^p = 129
    bad = json.dumps({"p": 0, "k": 1, "m": 129, "coeffs": {"[]": "pi"}})
    good = json.dumps(form_to_json(vector_field_form(PolyMap(1, [Poly.one(1)]))))
    assert main(["bracket", bad, good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "p=0, m=129 is too large" in err


@pytest.mark.parametrize("field, message", [
    ({"in_dim": 1, "components": 5}, "components must be a list"),
    ({"in_dim": 1, "components": [[{"c": "1", "e": 5}]]},
     "exponent vector must be a list of ints"),
    # dimensions are JSON integers: no float, bool or string is coerced
    ({"in_dim": 1.7, "out_dim": 1, "components": [[]]},
     "polynomial map in_dim must be an integer, got 1.7"),
    ({"in_dim": True, "out_dim": 1, "components": [[]]},
     "polynomial map in_dim must be an integer, got True"),
    ({"in_dim": "1", "out_dim": 1, "components": [[]]},
     "polynomial map in_dim must be an integer, got '1'"),
    ({"in_dim": 1, "out_dim": 1.0, "components": [[]]},
     "polynomial map out_dim must be an integer, got 1.0"),
    ({"in_dim": -1, "out_dim": 1, "components": [[]]},
     "polynomial map in_dim must be >= 0, got -1"),
])
def test_jacobi3_malformed_field_is_invalid_input(field, message, files, capsys):
    x = files("vx.json", polymap_to_json(PolyMap(1, [Poly.var(1, 0)])))
    bad = files("bad.json", field)
    assert main(["jacobi3", "--fields", x, x, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err


# powers by repeated squaring ---------------------------------------------------


def _linear_pow(one_of):
    """self ** k as k products from the unit, the loop squaring replaced."""
    def power(self, k):
        out = one_of(self)
        for _ in range(k):
            out = out * self
        return out
    return power


def _bracket_with_power(files, capsys, k):
    """fnlab bracket of the vector fields x^k and x on R^1, as printed."""
    power = Poly(1, {(k,): Q(1)})
    xk = files("xk.json", form_to_json(vector_field_form(PolyMap(1, [power]))))
    x = files("x.json", form_to_json(vector_field_form(PolyMap(1, [Poly.var(1, 0)]))))
    assert main(["bracket", xk, x, "--level", "L1"]) == 0
    return capsys.readouterr().out


def _closed_form(k):
    # the vector fields x^k and x bracket to (k - 1) x^k
    return [[{"c": str(k - 1), "e": [k]}]]


def test_bracket_of_a_huge_power_takes_logarithmically_many_products(files, capsys,
                                                                       monkeypatch):
    _bracket_with_power(files, capsys, 1)  # builds the shared convolution layouts
    mul = weil.WeilElement.__mul__
    products = Counter()

    def counting_mul(self, other):
        # a linear power chain takes about 2k products: stop it at the bound
        products["weil"] += 1
        assert products["weil"] <= products["bound"], "more products than 4 log2(k)"
        return mul(self, other)

    monkeypatch.setattr(weil.WeilElement, "__mul__", counting_mul)
    for k in (2, 3, 1000, 10 ** 9, 2 ** 30 - 1):
        products.clear()
        products["bound"] = 4 * k.bit_length()
        out = json.loads(_bracket_with_power(files, capsys, k))
        assert out["coeffs"]["[1]"]["components"] == _closed_form(k)


@pytest.mark.parametrize("k", range(2, 13))
def test_bracket_powers_match_the_linear_loop(k, files, capsys, monkeypatch):
    fast = _bracket_with_power(files, capsys, k)
    assert json.loads(fast)["coeffs"]["[1]"]["components"] == _closed_form(k)
    monkeypatch.setattr(weil.WeilElement, "__pow__", _linear_pow(lambda w: w.algebra.one()))
    monkeypatch.setattr(Poly, "__pow__", _linear_pow(lambda p: Poly.one(p.n)))
    assert _bracket_with_power(files, capsys, k) == fast
