"""Every decoder and CLI argument is total over arbitrary JSON.

A JSON value either decodes, and then encoding and decoding it again gives
the same value, or it raises ValidationError; the CLI turns that into exit
code 2.  The strategies mix arbitrary JSON with shapes close to the wire
formats, so that the checks past the first field are reached too.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fnlab.cli import main
from fnlab.errors import ValidationError
from fnlab.forms import BRACKETS
from fnlab.serialize import (MAX_KERNEL_VARS, form_from_json, form_to_json,
                             micropoint_from_json, micropoint_to_json,
                             morphism_from_json, morphism_to_json, obj_from_json,
                             obj_to_json, poly_from_json, poly_to_json,
                             polymap_from_json, polymap_to_json)
from fnlab.verify import SUITES, SuiteConfig

FIELDS = ("n", "p", "bounds", "in_dim", "out_dim", "components", "c", "e", "source",
          "target", "subst", "object", "m", "coeffs", "k", "class", "seed", "m_max",
          "p_max", "q_max", "r_max", "deg_max", "cases_per_property", "suites")
RATIONALS = ("1/2", "-3", "0", "4/6", " 5 ", "1/0", "0.25", "x", "", "pi")
CLASSES = ("omega0", "omega1", "omega12", "omega13", "omega123", "omega2")

leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2, 9)
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
          | st.sampled_from(RATIONALS + ("[]", "[1]", "[1,2]", "[0]", "[1,1]")))
any_json = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=16)


def near(strategy):
    """The given shape, or now and then any JSON value in its place."""
    return st.one_of(strategy, strategy, strategy, any_json)


small = st.integers(-1, 4)
good_rationals = st.sampled_from(("1/2", "-3", "0", "4/6", "7")) | st.integers(-5, 5)
rationals = near(st.sampled_from(RATIONALS) | st.integers(-5, 5))
keys = st.lists(st.integers(0, 4), max_size=3).map(json.dumps) | st.text(max_size=5)


@st.composite
def valid_objects(draw):
    n = draw(st.integers(0, 3))
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    data = {"n": n, "p": draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []}
    if draw(st.booleans()):
        data["bounds"] = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    return data


def valid_polys(n, degree=2):
    exponents = st.lists(st.integers(0, degree), min_size=n, max_size=n)
    return st.lists(st.fixed_dictionaries({"c": good_rationals, "e": exponents}), max_size=3)


def valid_polymaps(n_in, n_out):
    return st.lists(valid_polys(n_in), min_size=n_out, max_size=n_out).map(
        lambda comps: {"in_dim": n_in, "out_dim": n_out, "components": comps})


@st.composite
def valid_morphisms(draw):
    """Maps of cubes sending each target generator to at most one source one."""
    ns, nt = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    subst = []
    for _ in range(nt):
        terms = []
        if ns and draw(st.booleans()):
            i = draw(st.integers(0, ns - 1))
            terms.append([draw(good_rationals), [int(j == i) for j in range(ns)]])
        subst.append(terms)
    return {"source": {"n": ns}, "target": {"n": nt}, "subst": subst}


@st.composite
def valid_points(draw):
    obj = draw(valid_objects())
    m = draw(st.integers(0, 2))
    monomials = [[]] + [[i] for i in range(1, obj["n"] + 1)] + [[1, 2]]
    coeffs = draw(st.dictionaries(st.sampled_from(monomials).map(json.dumps),
                                  st.lists(good_rationals, min_size=m, max_size=m),
                                  max_size=3))
    return {"object": obj, "m": m, "coeffs": coeffs}


@st.composite
def valid_forms(draw):
    """Dirac-normalized forms: the base projection and a principal kernel."""
    p, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeffs = {"[]": "pi", "[1]": draw(valid_polymaps(m << p, m))}
    return {"p": p, "k": draw(st.sampled_from((1, 1, 1, 0, 2))), "m": m,
            "class": draw(st.sampled_from(CLASSES)), "coeffs": coeffs}


def polys(exponent):
    terms = st.fixed_dictionaries({"c": rationals, "e": st.lists(exponent, max_size=4)})
    return st.lists(near(terms), max_size=3)


def polymaps(exponent):
    return st.fixed_dictionaries(
        {"in_dim": near(st.integers(-1, 3)),
         "components": near(st.lists(polys(exponent), max_size=3))},
        optional={"out_dim": near(st.integers(-1, 3))})


objects = valid_objects() | st.fixed_dictionaries(
    {"n": near(small)},
    optional={"p": near(st.lists(st.lists(near(small), max_size=3), max_size=3)),
              "bounds": near(st.lists(near(small), max_size=4))})
subst_terms = st.tuples(rationals, st.lists(near(small), max_size=4)).map(list)
morphisms = valid_morphisms() | st.fixed_dictionaries(
    {"source": near(objects), "target": near(objects),
     "subst": near(st.lists(st.lists(near(subst_terms), max_size=3), max_size=4))})
points = valid_points() | st.fixed_dictionaries(
    {"object": near(objects), "m": near(st.integers(-1, 3))},
    optional={"coeffs": near(st.dictionaries(keys, near(st.lists(rationals, max_size=3)),
                                             max_size=4))})
forms = valid_forms() | st.fixed_dictionaries(
    {"p": near(st.integers(0, 3)), "k": near(st.integers(0, 2)), "m": near(st.integers(0, 2))},
    optional={"class": near(st.sampled_from(CLASSES)),
              "coeffs": near(st.dictionaries(
                  keys, st.just("pi") | near(polymaps(near(small))), max_size=3))})
polymap_shapes = st.integers(0, 3).flatmap(lambda n: valid_polymaps(n, n)) | polymaps(
    near(small))
configs = st.fixed_dictionaries({}, optional={
    "seed": st.integers(), "m_max": st.integers(1, 3), "deg_max": st.integers(0, 2),
    "cases_per_property": st.integers(1, 5),
    "suites": st.lists(st.sampled_from(SUITES), unique=True)}) | st.dictionaries(
    st.sampled_from(("seed", "m_max", "p_max", "q_max", "r_max", "deg_max",
                     "cases_per_property", "suites")) | st.text(max_size=4),
    near(st.integers(-1, 5) | st.lists(st.sampled_from(SUITES + ("nope",)), max_size=3)),
    max_size=4)
# Three vector fields on one R^m, or three maps of any shape.  Exponents stay
# small: a field is evaluated at the rational point, and a rational to a huge
# power is too large to compute, which no decoder can tell from the JSON.
fields = st.integers(1, 2).flatmap(
    lambda m: st.lists(valid_polymaps(m, m), min_size=3, max_size=3)) | st.lists(
    near(polymaps(st.integers(-1, 3))), min_size=3, max_size=3)


SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))


def assert_total(decode, encode, data):
    try:
        value = decode(data)
    except ValidationError:
        return
    assert decode(json.loads(json.dumps(encode(value)))) == value


@SETTINGS
@given(near(objects))
def test_object_decoder_is_total(data):
    assert_total(obj_from_json, obj_to_json, data)


@SETTINGS
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    near(valid_polys(n) | polys(near(small))), st.integers(max(n - 1, 0), n + 1))))
def test_polynomial_decoder_is_total(data_n):
    data, n = data_n
    assert_total(lambda d: poly_from_json(d, n), poly_to_json, data)


@SETTINGS
@given(near(polymap_shapes))
def test_polynomial_map_decoder_is_total(data):
    assert_total(polymap_from_json, polymap_to_json, data)


@SETTINGS
@given(near(morphisms))
def test_morphism_decoder_is_total(data):
    assert_total(morphism_from_json, morphism_to_json, data)


@SETTINGS
@given(near(points))
def test_point_decoder_is_total(data):
    assert_total(micropoint_from_json, micropoint_to_json, data)


@SETTINGS
@given(near(forms))
def test_form_decoder_is_total(data):
    assert_total(form_from_json, form_to_json, data)


@SETTINGS
@given(near(configs))
def test_suite_config_decoder_is_total(data):
    assert_total(SuiteConfig.from_json, SuiteConfig.to_json, data)


@pytest.mark.parametrize("data", [
    {"m_max": None}, {"deg_max": [3]}, {"cases_per_property": "5"}, {"p_max": 1.5},
    {"q_max": True}, {"suites": None}, {"suites": 3}, {"suites": [["weil"]]},
    {"suites": ["weil", 1]},
])
def test_suite_config_rejects_non_integers_and_non_names(data):
    with pytest.raises(ValidationError):
        SuiteConfig.from_json(data)


def test_point_model_dimension_is_bounded():
    """m is checked before the point builds one coordinate per dimension."""
    base = {"object": {"n": 1}, "coeffs": {}}
    assert micropoint_from_json({**base, "m": MAX_KERNEL_VARS}).m == MAX_KERNEL_VARS
    for m in (MAX_KERNEL_VARS + 1, 10 ** 8, 10 ** 100):
        with pytest.raises(ValidationError, match="too large"):
            micropoint_from_json({**base, "m": m})


# --- command-line arguments -----------------------------------------------


def run(argv, capsys):
    """The exit code; 2 comes with the decoders' or argparse's message."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the arguments themselves
        code = exc.code
        assert code == 2 and "error: " in capsys.readouterr().err
        return code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (code == 2) == err.startswith("invalid input: ")
    return code


def decodes(decode, data) -> bool:
    try:
        decode(data)
    except ValidationError:
        return False
    return True


@SETTINGS
@given(data=near(objects), as_json=st.booleans())
def test_weil_arguments(data, as_json, capsys):
    argv = ["weil", json.dumps(data)] + (["--json"] if as_json else [])
    assert run(argv, capsys) == (0 if isinstance(data, (dict, list))
                                 and decodes(obj_from_json, data) else 2)


@settings(SETTINGS, max_examples=60)
@given(x=near(forms), y=near(forms), level=st.sampled_from(sorted(BRACKETS)))
def test_bracket_arguments(x, y, level, capsys):
    code = run(["bracket", json.dumps(x), json.dumps(y), "--level", level], capsys)
    if not all(isinstance(d, (dict, list)) and decodes(form_from_json, d) for d in (x, y)):
        assert code == 2
    assert code != 1


@settings(SETTINGS, max_examples=60)
@given(fields=fields,
       point=st.none() | st.lists(st.sampled_from(RATIONALS), max_size=3).map(",".join))
def test_jacobi3_field_and_point_arguments(fields, point, capsys):
    argv = ["jacobi3", "--fields", *map(json.dumps, fields)]
    if point is not None:
        argv.append(f"--point={point}")
    code = run(argv, capsys)
    if not all(isinstance(f, (dict, list)) and decodes(polymap_from_json, f) for f in fields):
        assert code == 2
    # valid fields always give a zero defect
    assert code in (0, 2)


@pytest.mark.parametrize("argv", [
    ["weil", None], ["bracket", None, "{}"], ["jacobi3", "--fields", None, "{}", "{}"]])
def test_deeply_nested_json_argument_is_invalid_input(argv, capsys):
    nested = "[" * 100000 + "]" * 100000
    code = main([nested if a is None else a for a in argv])
    assert code == 2 and "invalid JSON" in capsys.readouterr().err


def test_jacobi3_point_with_a_zero_denominator_is_invalid_input(capsys):
    field = json.dumps({"in_dim": 1, "components": [[]]})
    assert run(["jacobi3", "--fields", field, field, field, "--point", "1/0"], capsys) == 2


@pytest.mark.parametrize("level", sorted(BRACKETS))
def test_bracket_of_forms_on_r0_succeeds(level, capsys):
    """With m = 0 every kernel is empty: the base is the (empty) projection."""
    x, y = json.dumps({"p": 1, "k": 1, "m": 0}), json.dumps({"p": 2, "k": 1, "m": 0})
    assert main(["bracket", x, y, "--level", level]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["p"], out["k"], out["m"], out["coeffs"]) == (3, 1, 0, {})


@pytest.mark.parametrize("p, q, m, code", [
    (7, 0, 0, 0), (4, 3, 1, 0), (3, 3, 2, 0),
    (7, 1, 0, 2), (4, 4, 1, 2), (6, 1, 2, 2), (3, 4, 2, 2),
])
def test_bracket_is_bounded_as_a_decodable_form(p, q, m, code, capsys):
    """The bracket has arity p + q; past the form bound it is refused first."""
    x = json.dumps({"p": p, "k": 1, "m": m, "coeffs": {"[]": "pi"}})
    y = json.dumps({"p": q, "k": 1, "m": m, "coeffs": {"[]": "pi"}})
    assert run(["bracket", x, y, "--level", "FN13"], capsys) == code
