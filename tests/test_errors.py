"""Each validation branch of the library, met once by a call that trips it.

The calls are the smallest that reach one check each.  Every row names the
exception type and the start of its message, so deleting a check, or letting
a different one fire first, fails its row.
"""

import re

import pytest

from fnlab.errors import PreconditionError, ValidationError
from fnlab.forms import (FormElem, Kernel, Permutation, form_from_kernel,
                         perm_act, perm_kernel, prod_over,
                         vector_field_form, zero_kernel)
from fnlab.micro import (MicroPoint, TriangleConfig, TRIANGLE_LABELS, amalgamate,
                         get_case, strong_diff_i, triangle_from_vector_fields)
from fnlab.morphisms import InfMorphism, inclusion
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import SimplicialObject, d_cube, d_order, d_paren
from fnlab.verify import SuiteConfig
from fnlab.weil import WeilElement, make_algebra


def point(n, m=1):
    """The origin of R^m on D^n."""
    return MicroPoint.from_table(d_cube(n), m, {(): [0] * m})


def form(p, m):
    """The Dirac form of arity p on R^m with the zero principal kernel."""
    return form_from_kernel(zero_kernel(p, m))


def six_cubes(**replaced):
    cubes = {label: point(3) for label in TRIANGLE_LABELS}
    cubes.update(replaced)
    return cubes


CASES = [
    # forms
    (lambda: Kernel(1, 1, PolyMap.zero(1, 1)), ValidationError,
     "kernel body must map 2 -> 1 for arity 1"),
    (lambda: zero_kernel(1, 1) + zero_kernel(2, 1), ValidationError,
     "kernels of different arity or model dimension"),
    (lambda: perm_kernel(zero_kernel(1, 1), Permutation([2, 1])), ValidationError,
     "permutation degree != kernel arity"),
    (lambda: FormElem(1, 1, 1, {(1,): zero_kernel(2, 1)}), ValidationError,
     "kernel arity or dimension mismatch"),
    (lambda: FormElem(1, 2, 1, {}).principal(), PreconditionError,
     "principal part needs expansion arity 1"),
    (lambda: vector_field_form(PolyMap.zero(2, 1)), ValidationError,
     "vector field must map R^m to R^m"),
    (lambda: perm_act(form(1, 1), Permutation([2, 1])), ValidationError,
     "permutation degree != form arity"),
    (lambda: prod_over(form(1, 1), form(1, 2)), ValidationError,
     "forms on different model dimensions"),
    # micro
    (lambda: MicroPoint(make_algebra(d_cube(1)), 2, [make_algebra(d_cube(1)).one()]),
     ValidationError, "coordinate count != m"),
    (lambda: MicroPoint(make_algebra(d_cube(1)), 1, [make_algebra(d_cube(2)).one()]),
     ValidationError, "coordinates on mixed algebras"),
    (lambda: get_case("cube-4"), ValidationError, "unknown amalgamation case 'cube-4'"),
    (lambda: amalgamate(point(3), point(2), "square"), ValidationError,
     "point does not live on"),
    (lambda: amalgamate(point(2), point(2, 2), "square"), ValidationError,
     "points of different model dimension"),
    (lambda: strong_diff_i(point(3), point(3), 4), ValidationError,
     "axis must be 1, 2 or 3"),
    (lambda: TriangleConfig(six_cubes(**{"123": point(3, 2)})), ValidationError,
     "cubes of different model dimension"),
    (lambda: TriangleConfig(six_cubes(**{"123": point(2)})), ValidationError,
     "every cube must live on three square-zero directions"),
    (lambda: triangle_from_vector_fields(PolyMap.zero(1, 1), PolyMap.zero(1, 1),
                                         PolyMap.zero(2, 2), [0]),
     ValidationError, "vector fields on different model dimensions"),
    # morphisms
    (lambda: InfMorphism(d_cube(1), d_cube(1), [Poly.var(2, 0)]), ValidationError,
     "substitution variable count != source generators"),
    (lambda: InfMorphism(d_order(2), d_cube(1), [Poly.var(1, 0)]), ValidationError,
     "ideal not preserved: image of generator 1 has nonzero power 2"),
    (lambda: inclusion(d_paren(2), d_cube(2)).then(inclusion(d_paren(2), d_cube(2))),
     ValidationError, "object mismatch in composition"),
    (lambda: inclusion(d_cube(1), d_cube(2)), ValidationError,
     "inclusion requires equal generator counts"),
    # poly
    (lambda: Poly.from_terms(1, [(Q(1), (-1,))]), ValidationError, "negative exponent"),
    (lambda: Poly.var(1, 0) + Poly.var(2, 0), ValidationError,
     "polynomials in different variable counts"),
    (lambda: PolyMap(2, [Poly.var(1, 0)]), ValidationError,
     "component variable count != in_dim"),
    (lambda: PolyMap.zero(1, 1) + PolyMap.zero(1, 2), ValidationError,
     "maps of different dimensions"),
    # simplicial, verify and weil
    (lambda: SimplicialObject(1, frozenset({()})), ValidationError,
     "empty vanishing product"),
    (lambda: SimplicialObject(2, bounds=(3,)), ValidationError,
     "one power bound per generator required"),
    (lambda: SuiteConfig(m_max=0), ValidationError, "bad scale limits"),
    (lambda: make_algebra(d_cube(1)).one() + make_algebra(d_cube(2)).one(),
     ValidationError, "elements of different algebras"),
]


@pytest.mark.parametrize("call, error, message", CASES,
                         ids=[message for _call, _error, message in CASES])
def test_validation_branch(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


def test_poly_constructor_checks_exponents_as_from_terms():
    # a short key would add as a second x0 in 2 variables, and a negative
    # one would give a polynomial of degree -1
    with pytest.raises(ValidationError,
                       match="^exponent vector length != variable count"):
        Poly(2, {(1,): Q(1)})
    with pytest.raises(ValidationError, match="^negative exponent"):
        Poly(1, {(-1,): Q(2)})


def test_ring_valued_weil_arithmetic_checks_variable_counts():
    # polynomial coefficients in 1 and 2 variables meet at a basis position,
    # in a sum, in a lone product (x * y meets its lone product X * Y first)
    # and in a fused sum of products: the evaluation of 2ab at (x, y) sums
    # 2 * X * Y at position 0
    alg = make_algebra(d_cube(1))
    x = WeilElement(alg, {0: Poly.var(1, 0), 1: Poly.one(1)})
    y = WeilElement(alg, {0: Poly.var(2, 0), 1: Poly.one(2)})
    for call in (lambda: x + y, lambda: x * WeilElement(alg, {0: Poly.var(2, 0)}),
                 lambda: x * y, lambda: Poly.from_terms(2, [(Q(2), (1, 1))]).eval([x, y])):
        with pytest.raises(ValidationError, match="^polynomials in different variable counts"):
            call()


def test_remap_merging_cancelling_terms():
    # x0 - x1 with both variables sent to x0 cancels to zero
    f = Poly.var(2, 0) - Poly.var(2, 1)
    assert f.eval([Poly.var(1, 0), Poly.var(1, 0)]) == Poly.zero(1)


@pytest.mark.parametrize("mapping", [[1, 0], [3, 1, 0, 2], [0, 0, 1], [0, 1, 3]],
                         ids=["short", "long", "repeated", "out-of-range"])
def test_remap_refuses_a_non_permutation(mapping):
    f = Poly.var(3, 0) - Poly.var(3, 2)
    with pytest.raises(ValidationError, match="^not a permutation of the 3 variables"):
        f.remap_variables(mapping)


# Poly.eval takes its unit from the arguments' ring: a rational unit is
# lifted into it, and a unit from any other ring is refused.
UNIT_CASES = [
    # x at a point of W[D_5] with the unit of W[D^1] (dimension 2)
    (lambda: Poly.var(1, 0).eval([make_algebra(d_order(5)).generator(1)],
                                 make_algebra(d_cube(1)).one()),
     "elements of different algebras"),
    # x + 1 at a polynomial in 2 variables with the unit in 3
    (lambda: (Poly.var(1, 0) + Poly.one(1)).eval([Poly.var(2, 0)], Poly.one(3)),
     "polynomials in different variable counts"),
    (lambda: Poly.var(1, 0).eval([Poly.var(1, 0)], make_algebra(d_cube(1)).one()),
     "a WeilElement unit for a Poly argument"),
    # a rational argument beside a Weil unit, given or lifted from a Weil argument
    (lambda: (Poly.var(1, 0) + Poly.one(1)).eval([Q(3)], make_algebra(d_cube(1)).one()),
     f"a WeilElement unit for a {Q.__name__} argument"),
    (lambda: (Poly.var(2, 0) + Poly.var(2, 1)).eval([make_algebra(d_cube(1)).generator(1), Q(3)]),
     f"a WeilElement unit for a {Q.__name__} argument"),
]


@pytest.mark.parametrize("call, message", UNIT_CASES,
                         ids=["weil-algebra", "poly-variables", "weil-unit-poly-argument",
                              "weil-unit-rational-argument", "lifted-unit-rational-argument"])
def test_eval_refuses_a_unit_from_another_ring(call, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        call()


def test_eval_lifts_a_rational_unit_into_the_arguments_ring():
    # x + 2 at d1 with the default unit 1: the constant term is 2 in W[D^1]
    alg = make_algebra(d_cube(1))
    got = Poly.from_terms(1, [(Q(1), (1,)), (Q(2), (0,))]).eval([alg.generator(1)])
    assert isinstance(got, WeilElement) and got == alg.one().scale(2) + alg.generator(1)
    # a rational unit q is q times the ring's unit
    got = Poly.one(1).eval([Poly.var(2, 1)], Q(1, 3))
    assert got == Poly.const(2, Q(1, 3))
