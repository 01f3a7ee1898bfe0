import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fnlab.errors import ValidationError
from fnlab.micro import amalgamation_cases
from fnlab.morphisms import InfMorphism, inclusion
from fnlab.poly import Poly
from fnlab.rationals import Q
from fnlab.simplicial import D2, SimplicialObject, d_cube, d_order, d_paren, oplus, \
    tensor
from fnlab.weil import WeilElement, from_dense, make_algebra


def brute_basis(obj):
    rels = [tuple(s) for s in obj.relations]
    out = [e for e in product(*(range(b) for b in obj.bounds))
           if not any(all(e[i - 1] >= 1 for i in s) for s in rels)]
    if obj.n == 0:
        out = [()]
    return sorted(out, key=lambda e: (sum(e), tuple(-x for x in e)))


def test_square_cube_basis():
    alg = make_algebra(d_cube(2))
    assert [alg.monomial_str(i) for i in range(alg.dim)] == ["1", "d1", "d2", "d1*d2"]
    assert alg.dim == 4


def test_pairwise_vanishing_basis():
    alg = make_algebra(d_paren(2))
    assert alg.dim == 3
    assert [alg.monomial_str(i) for i in range(alg.dim)] == ["1", "d1", "d2"]


def test_relation_bases_match_enumeration():
    obj = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    alg = make_algebra(obj)
    assert alg.dim == 5
    assert list(alg.basis) == brute_basis(obj)
    obj4 = SimplicialObject(4, frozenset({(2, 4), (3, 4)}))
    assert make_algebra(obj4).dim == 10 == len(brute_basis(obj4))


def test_second_order_generator():
    alg = make_algebra(D2)
    assert alg.dim == 3
    d = alg.generator(1)
    assert (d * d).coeff((2,)) == 1
    assert not (d * d) * d


@pytest.mark.parametrize("n", range(7))
def test_cube_dimensions(n):
    assert make_algebra(d_cube(n)).dim == 2 ** n


def test_unit_first_and_divisor_closed():
    alg = make_algebra(SimplicialObject(3, frozenset({(1, 2)})))
    assert alg.basis[0] == (0, 0, 0)
    for exps in alg.basis:
        for i, e in enumerate(exps):
            if e:
                lower = tuple(v - 1 if k == i else v for k, v in enumerate(exps))
                assert lower in alg.index


def test_bad_relations_rejected():
    with pytest.raises(ValidationError):
        SimplicialObject(2, frozenset({(2, 1)}))
    with pytest.raises(ValidationError):
        SimplicialObject(2, frozenset({(0, 1)}))
    with pytest.raises(ValidationError):
        SimplicialObject(1, frozenset(), (1,))


# pairs built separately that name one object
SAME_OBJECT = [
    (SimplicialObject(2), d_cube(2)),
    (SimplicialObject(n=2, relations=[[1, 2]]), d_paren(2)),
    (SimplicialObject(n=1, bounds=[3]), d_order(2)),
    (SimplicialObject(3, frozenset({(2, 3), (1, 3)}), (2, 2, 2)), oplus(d_cube(2), d_cube(1))),
]

# pairs that differ in one field
OTHER_OBJECT = [
    (d_cube(2), d_cube(3)),
    (d_cube(2), d_paren(2)),
    (SimplicialObject(3, frozenset({(1, 2)})), SimplicialObject(3, frozenset({(1, 3)}))),
    (d_order(2), d_order(3)),
    (SimplicialObject(2, frozenset(), (2, 3)), SimplicialObject(2, frozenset(), (3, 2))),
]


@pytest.mark.parametrize("a, b", SAME_OBJECT)
def test_objects_with_equal_fields_are_one_value(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert make_algebra(a) is make_algebra(b)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("a, b", OTHER_OBJECT)
def test_objects_differing_in_a_field_are_unequal(a, b):
    assert a != b and not a == b
    assert make_algebra(a) is not make_algebra(b)


def test_objects_are_immutable():
    obj = d_paren(2)
    for name, value in (("n", 3), ("relations", frozenset()), ("bounds", (3, 3)),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    with pytest.raises(AttributeError):
        del obj.n
    assert obj == d_paren(2) and obj.relations == frozenset({(1, 2)})
    assert obj != (2, frozenset({(1, 2)}), (2, 2))


def test_oplus_examples():
    assert oplus(d_cube(1), d_cube(1)) == d_paren(2)
    assert oplus(d_cube(2), d_cube(1)) == SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    a = d_cube(1)
    assert oplus(oplus(a, a), a) == oplus(a, oplus(a, a))
    with pytest.raises(ValidationError):
        oplus(D2, d_cube(1))


@st.composite
def simplicial_objects(draw, n_max=3):
    n = draw(st.integers(0, n_max))
    rels = set()
    for _ in range(draw(st.integers(0, 3))):
        if n == 0:
            break
        size = draw(st.integers(1, n))
        seq = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:size]))
        rels.add(seq)
    return SimplicialObject(n, frozenset(rels))


@settings(max_examples=40, deadline=None)
@given(simplicial_objects(), simplicial_objects(), simplicial_objects())
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@settings(max_examples=40, deadline=None)
@given(simplicial_objects())
def test_basis_matches_brute_force(obj):
    assert list(make_algebra(obj).basis) == brute_basis(obj)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    obj = data.draw(simplicial_objects(3))
    alg = make_algebra(obj)
    rat = st.fractions(min_value=-5, max_value=5).map(lambda f: Q(f.numerator, f.denominator))
    elems = st.lists(rat, min_size=alg.dim, max_size=alg.dim).map(
        lambda v: from_dense(alg, v))
    x, y, z = data.draw(elems), data.draw(elems), data.draw(elems)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * alg.one() == x


def test_multiplication_examples():
    alg = make_algebra(d_cube(2))
    d1, d2 = alg.generator(1), alg.generator(2)
    assert (d1 * d2).coeff((1, 1)) == 1
    algp = make_algebra(d_paren(2))
    assert not algp.generator(1) * algp.generator(2)


def test_morphism_validation():
    sq = d_cube(2)
    tgt = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    psi = InfMorphism(sq, tgt, [Poly.var(2, 0), Poly.var(2, 1),
                                Poly.var(2, 0) * Poly.var(2, 1)])
    assert psi.subst[2].degree() == 2
    diag = InfMorphism(d_cube(1), sq, [Poly.var(1, 0), Poly.var(1, 0)])
    assert diag.matrix()[0][0] == 1
    with pytest.raises(ValidationError):
        InfMorphism(d_cube(1), d_cube(1), [Poly.one(1) + Poly.var(1, 0)])
    # the twisted leg map into the wrong target must be rejected
    with pytest.raises(ValidationError):
        InfMorphism(sq, d_paren(3), [Poly.var(2, 0), Poly.var(2, 1),
                                     Poly.var(2, 0) * Poly.var(2, 1)])


def test_second_order_square_map():
    f = InfMorphism(D2, d_cube(1), [Poly.var(1, 0) * Poly.var(1, 0)])
    alg = make_algebra(D2)
    x = from_dense(make_algebra(d_cube(1)), [Q(1), Q(5)])
    assert f.pullback_element(x) == from_dense(alg, [Q(1), Q(0), Q(5)])


def test_morphism_composition():
    sq = d_cube(2)
    tgt = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    psi = InfMorphism(sq, tgt, [Poly.var(2, 0), Poly.var(2, 1),
                                Poly.var(2, 0) * Poly.var(2, 1)])
    pad = InfMorphism(d_cube(1), sq, [Poly.var(1, 0), Poly.zero(1)])
    comp = pad.then(psi)
    assert comp.subst == (Poly.var(1, 0), Poly.zero(1), Poly.zero(1))
    ident = inclusion(sq, sq)
    assert ident.then(psi) == psi
    assert pad.then(ident) == pad
    third = inclusion(d_paren(2), sq)
    assert third.then(ident).then(psi) == third.then(ident.then(psi))


def test_pullback_is_algebra_map():
    sq = d_cube(2)
    tgt = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    psi = InfMorphism(sq, tgt, [Poly.var(2, 0), Poly.var(2, 1),
                                Poly.var(2, 0) * Poly.var(2, 1)])
    alg = make_algebra(tgt)
    x = from_dense(alg, [Q(1), Q(2), Q(-1), Q(3), Q(1, 2)])
    y = from_dense(alg, [Q(0), Q(1), Q(1, 3), Q(-2), Q(5)])
    assert psi.pullback_element(x + y) == \
        psi.pullback_element(x) + psi.pullback_element(y)
    assert psi.pullback_element(x * y) == \
        psi.pullback_element(x) * psi.pullback_element(y)
    assert psi.pullback_element(alg.one()) == make_algebra(sq).one()


# products against a naive reference -----------------------------------------


def naive_product(x, y):
    """Add exponent vectors and look the sum up in the basis index.

    The index holds exactly the monomials that survive the quotient, so a
    sum that is missing from it is a product that vanishes.
    """
    alg = x.algebra
    out = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            k = alg.index.get(tuple(a + b for a, b in zip(alg.basis[i], alg.basis[j])))
            if k is not None:
                c = ci * cj
                out[k] = c if k not in out else out[k] + c
    return {k: c for k, c in out.items() if c}


def random_element(rng, alg, terms, max_den=7):
    positions = rng.sample(range(alg.dim), min(terms, alg.dim))
    coeffs = {}
    for k in positions:
        num = rng.choice([n for n in range(-9, 10) if n])
        coeffs[k] = Q(num, rng.randint(1, max_den))
    return WeilElement(alg, coeffs)


def shapes(rng, alg):
    """(x, y) pairs: dense x dense, sparse x dense, 1 x 1, zero x dense, and
    the same with integer coefficients only."""
    dim = alg.dim
    for max_den in (7, 1):
        yield (random_element(rng, alg, dim, max_den),
               random_element(rng, alg, dim, max_den))
        yield (random_element(rng, alg, 2, max_den),
               random_element(rng, alg, dim, max_den))
        yield (random_element(rng, alg, dim, max_den),
               random_element(rng, alg, 3, max_den))
        yield (random_element(rng, alg, 1, max_den),
               random_element(rng, alg, 1, max_den))
        yield alg.zero(), random_element(rng, alg, dim, max_den)


def check_product(x, y):
    out = x * y
    assert out.coeffs == naive_product(x, y)
    assert all(type(c) is Q for c in out.coeffs.values())
    assert all(out.coeffs.values())


# a square-zero object on four generators where d1*d2, d1*d3 and d2*d4 vanish
SPARSE_PAIRS = SimplicialObject(4, frozenset({(1, 2), (1, 3), (2, 4)}))


@pytest.mark.parametrize("obj", [d_order(20), d_cube(5), tensor(d_order(3), d_paren(3)),
                                 SPARSE_PAIRS, D2, d_cube(0)],
                         ids=["order20", "cube5", "tensor", "sparse-pairs", "D2", "point"])
def test_product_matches_reference(obj):
    alg = make_algebra(obj)
    rng = random.Random(repr(obj))
    for _ in range(3):
        for x, y in shapes(rng, alg):
            check_product(x, y)
            check_product(y, x)


@settings(max_examples=40, deadline=None)
@given(simplicial_objects(4), st.integers(0, 2 ** 32))
def test_product_matches_reference_random_objects(obj, seed):
    alg = make_algebra(obj)
    rng = random.Random(seed)
    for x, y in shapes(rng, alg):
        check_product(x, y)
        check_product(y, x)


def test_product_drops_cancelled_sums():
    alg = make_algebra(d_cube(2))
    one, d1, d2 = alg.one(), alg.generator(1), alg.generator(2)
    # (1 + d1/2)(1 - d1/2) = 1: the d1 sums cancel
    x, y = one + d1.scale(Q(1, 2)), one - d1.scale(Q(1, 2))
    assert (x * y).coeffs == {0: Q(1)}
    # (d1 + d2)(d1 - d2) = 0 in D^2: the d1*d2 sum cancels
    assert (d1 + d2) * (d1 - d2) == alg.zero()
    assert ((d1 + d2) * (d1 - d2)).coeffs == {}
    # integer coefficients come back as rationals
    out = (one + d1 + d2) * (one + d1)
    assert out.coeffs == {0: 1, 1: 2, 2: 1, 3: 1}
    assert all(type(c) is Q for c in out.coeffs.values())


def test_polynomial_coefficients_multiply_as_before():
    rng = random.Random(11)
    for obj in (d_cube(3), D2, SPARSE_PAIRS):
        alg = make_algebra(obj)

        def poly_element(terms):
            coeffs = {}
            for k in rng.sample(range(alg.dim), min(terms, alg.dim)):
                c = Poly.var(2, rng.randrange(2)) * Q(rng.randint(1, 5), rng.randint(1, 3)) \
                    + Poly.one(2) * Q(rng.randint(-3, 3))
                coeffs[k] = c
            return WeilElement(alg, coeffs)

        for tx, ty in ((alg.dim, alg.dim), (2, alg.dim), (1, 1)):
            x, y = poly_element(tx), poly_element(ty)
            out = x * y
            assert out.coeffs == naive_product(x, y)
            assert all(isinstance(c, Poly) and c for c in out.coeffs.values())
        # mixed: rational on one side, polynomial on the other
        x = random_element(rng, alg, alg.dim)
        y = poly_element(alg.dim)
        assert (x * y).coeffs == naive_product(x, y)


def test_powers_start_from_the_base():
    alg = make_algebra(d_order(4))
    x = from_dense(alg, [Q(2), Q(1, 3), Q(0), Q(-5, 2), Q(7)])
    assert x ** 0 == alg.one()
    assert x ** 1 == x
    assert x ** 2 == x * x
    assert x ** 3 == x * x * x
    d = alg.generator(1)
    assert d ** 4 == alg.monomial((4,)) and not d ** 5
    # a monomial outside the basis, or a zero coefficient, is zero
    assert alg.monomial((5,)) == alg.zero() == alg.monomial((1,), 0)
    with pytest.raises(ValidationError):
        x ** -1


# fraction-free elements against a naive Fraction-dict reference --------------
#
# Every rational element holds integer numerators over one denominator.  The
# reference below computes with plain {basis index: Fraction} dicts; each
# result must match it and be in reduced form (denominator >= 1, no factor
# common to it and every numerator, and denominator 1 for zero).

def fraction(c):
    return Fraction(c.numerator, c.denominator)


def ref_of(w):
    return {k: fraction(c) for k, c in w.coeffs.items()}


def element(alg, ref, flip_signs=False):
    """An element from a reference dict; flip_signs passes each rational with
    a negative numerator and a negative denominator."""
    if flip_signs:
        return WeilElement(alg, {k: Q(-v.numerator, -v.denominator) for k, v in ref.items()})
    return WeilElement(alg, {k: Q(v.numerator, v.denominator) for k, v in ref.items()})


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_scale(c, a):
    return {k: c * v for k, v in a.items() if c * v}


def ref_mul(alg, a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = alg.index.get(tuple(p + q for p, q in zip(alg.basis[i], alg.basis[j])))
            if k is not None:
                out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def ref_pullback(mor, ref):
    """Substitute the generator images and multiply out, in Fraction dicts."""
    src, tgt = make_algebra(mor.source), make_algebra(mor.target)
    images = []
    for p in mor.subst:
        img = {}
        for e, c in p.terms.items():
            k = src.index.get(e)
            if k is not None:
                img = ref_add(img, {k: Fraction(c.numerator, c.denominator)})
        images.append(img)
    out = {}
    for k, v in ref.items():
        term = {0: Fraction(1)}
        for img, e in zip(images, tgt.basis[k]):
            for _ in range(e):
                term = ref_mul(src, term, img)
        out = ref_add(out, ref_scale(v, term))
    return out


def check(w, ref):
    assert ref_of(w) == ref
    assert all(type(c) is Q for c in w.coeffs.values())
    den = w.denominator
    assert den >= 1 and gcd(den, *w._num.values()) == 1
    if not ref:
        assert den == 1


FIXED_OBJECTS = [d_cube(4), d_order(4), D2, tensor(d_order(2), d_paren(2)), SPARSE_PAIRS]
fractions_1_7 = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def ref_elements(draw, alg):
    """Dense, sparse, single-term or zero reference dicts, denominators 1..7."""
    kind = draw(st.sampled_from(["dense", "sparse", "single", "zero"]))
    if kind == "zero":
        return {}
    if kind == "dense":
        keys = range(alg.dim)
    elif kind == "sparse":
        keys = draw(st.lists(st.integers(0, alg.dim - 1), unique=True, max_size=alg.dim))
    else:
        keys = [draw(st.integers(0, alg.dim - 1))]
    ref = {k: draw(fractions_1_7) for k in keys}
    return {k: v for k, v in ref.items() if v}


@st.composite
def algebras_with(draw, count):
    obj = draw(st.one_of(simplicial_objects(3), st.sampled_from(FIXED_OBJECTS)))
    alg = make_algebra(obj)
    return alg, [draw(ref_elements(alg)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(algebras_with(2), st.booleans())
def test_sum_difference_negation_match_reference(case, flip):
    alg, (a, b) = case
    x, y = element(alg, a, flip), element(alg, b)
    neg_b = ref_scale(Fraction(-1), b)
    check(-y, neg_b)
    for other, other_ref in ((y, b), (-y, neg_b), (x, a), (-x, ref_scale(Fraction(-1), a))):
        check(x + other, ref_add(a, other_ref))
        check(other + x, ref_add(a, other_ref))
        check(x - other, ref_add(a, ref_scale(Fraction(-1), other_ref)))


@settings(max_examples=80, deadline=None)
@given(algebras_with(1), fractions_1_7, st.integers(-6, 6), st.booleans())
def test_scaling_matches_reference(case, c, n, flip):
    alg, (a,) = case
    x = element(alg, a, flip)
    check(x.scale(Q(c.numerator, c.denominator)), ref_scale(c, a))
    check(x.scale(Q(-c.numerator, -c.denominator)), ref_scale(c, a))
    check(x.scale(n), ref_scale(Fraction(n), a))
    check(Q(c.numerator, c.denominator) * x, ref_scale(c, a))
    check(x * n, ref_scale(Fraction(n), a))


@settings(max_examples=80, deadline=None)
@given(algebras_with(2), st.integers(0, 4))
def test_product_and_power_match_reference(case, e):
    alg, (a, b) = case
    x, y = element(alg, a), element(alg, b, True)
    check(x * y, ref_mul(alg, a, b))
    check(y * x, ref_mul(alg, a, b))
    check(x * (-x), ref_scale(Fraction(-1), ref_mul(alg, a, a)))
    power = {0: Fraction(1)}
    for _ in range(e):
        power = ref_mul(alg, power, a)
    check(x ** e, power)


@settings(max_examples=80, deadline=None)
@given(algebras_with(2))
def test_equality_and_truth_match_reference(case):
    alg, (a, b) = case
    x, y = element(alg, a), element(alg, b)
    assert (x == y) == (a == b) and (x != y) == (a != b)
    assert x == element(alg, a, True) and hash(x) == hash(element(alg, a, True))
    assert bool(x) == bool(a) and bool(y) == bool(b)
    assert (x - y == alg.zero()) == (a == b)
    assert x != a and x != make_algebra(d_cube(5)).zero()
    # same numerators over different denominators
    assert element(alg, {0: Fraction(1, 2)}) != element(alg, {0: Fraction(1, 3)})


@settings(max_examples=80, deadline=None)
@given(algebras_with(1))
def test_readers_match_reference(case):
    alg, (a,) = case
    x = element(alg, a)
    for k, exps in enumerate(alg.basis):
        assert fraction(x.coeff(exps)) == a.get(k, 0) and type(x.coeff(exps)) is Q
    if alg.source.n:
        assert x.coeff(tuple(b + 1 for b in alg.source.bounds)) == 0
    assert len(x.coeffs) == len(a) and set(x.coeffs) == set(a)
    assert all(k in x.coeffs and fraction(x.coeffs.get(k)) == v for k, v in a.items())
    assert x.coeffs.get(alg.dim) is None and alg.dim not in x.coeffs


def pullback_morphisms():
    out = []
    for case in amalgamation_cases().values():
        out += [case.twisted, case.flat, case.shared_incl, case.extract]
    out.append(InfMorphism(D2, d_cube(1), [Poly.var(1, 0) * Poly.var(1, 0)]))
    out.append(InfMorphism(d_cube(2), d_cube(2), [Poly.var(2, 0).scale(2),
                                                  Poly.var(2, 1).scale(-3)]))
    out.append(InfMorphism(d_cube(2), d_cube(2), [Poly.var(2, 0).scale(Q(1, 2)),
                                                  Poly.var(2, 1).scale(Q(-3))]))
    out.append(InfMorphism(d_order(2), d_order(3),
                           [Poly.var(1, 0).scale(Q(2, 3)) + Poly.var(1, 0) ** 2]))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pullback_matches_reference(data):
    mor = data.draw(st.sampled_from(pullback_morphisms()))
    tgt = make_algebra(mor.target)
    a = data.draw(ref_elements(tgt))
    check(mor.pullback_element(element(tgt, a)), ref_pullback(mor, a))
    pulled = mor.pullback_element(element(tgt, a, True))
    assert list(pulled.coeffs) == sorted(pulled.coeffs)


@settings(max_examples=60, deadline=None)
@given(algebras_with(2), fractions_1_7.filter(bool))
def test_equal_values_from_different_paths_hash_equal(case, c):
    alg, (a, b) = case
    x, y = element(alg, a), element(alg, b)
    q = Q(c.numerator, c.denominator)
    ref = ref_mul(alg, a, b)
    w = x * y
    paths = [
        element(alg, ref),
        from_dense(alg, [Q(v.numerator, v.denominator)
                         for v in (ref.get(k, Fraction(0)) for k in range(alg.dim))]),
        alg.zero() + w,
        (w + x) - x,
        (w + x.scale(q)) - x.scale(q),
        w.scale(q).scale(1 / q),
        w.scale(2).scale(Q(1, 2)),
        -(-w),
        y * x * alg.one(),
        inclusion(alg.source, alg.source).pullback_element(w),
    ]
    for v in paths:
        assert v == w and hash(v) == hash(w)
        check(v, ref)


@settings(max_examples=60, deadline=None)
@given(algebras_with(1), fractions_1_7.filter(bool))
def test_zero_has_denominator_one(case, c):
    alg, (a,) = case
    x = element(alg, a).scale(Q(c.numerator, c.denominator))
    zeros = [x - x, x.scale(0), x * alg.zero(), alg.zero().scale(Q(1, 3)),
             from_dense(alg, [Q(0)] * alg.dim), WeilElement(alg, {}),
             inclusion(alg.source, alg.source).pullback_element(x - x)]
    if alg.source.n >= 2 and alg.source == d_cube(alg.source.n):
        d1, d2 = alg.generator(1).scale(Q(1, 3)), alg.generator(2).scale(Q(1, 3))
        zeros.append((d1 + d2) * (d1 - d2))
    for z in zeros:
        check(z, {})
        assert z == alg.zero() and hash(z) == hash(alg.zero()) and not z


def test_coefficients_are_read_only():
    alg = make_algebra(d_cube(2))
    source = {0: Q(1, 2), 3: Q(-2, 3)}
    w = WeilElement(alg, source)
    h = hash(w)
    with pytest.raises(TypeError):
        w.coeffs[1] = Q(1)
    with pytest.raises(TypeError):
        del w.coeffs[0]
    # the element does not share the dict it was built from
    source[0], source[1] = Q(7), Q(5)
    assert dict(w.coeffs) == {0: Q(1, 2), 3: Q(-2, 3)}
    assert w == WeilElement(alg, {0: Q(1, 2), 3: Q(-2, 3)}) and hash(w) == h
    ring = WeilElement(alg, {0: Poly.one(1)})
    with pytest.raises(TypeError):
        ring.coeffs[0] = Poly.zero(1)


def test_polynomial_elements_stay_ring_valued():
    alg = make_algebra(d_cube(2))
    x = WeilElement(alg, {0: Poly.var(1, 0), 1: Poly.one(1), 3: Poly.var(1, 0) ** 2})
    r = from_dense(alg, [Q(2), Q(0), Q(1, 3), Q(0)])
    assert x.denominator is None and r.denominator == 3
    assert alg.zero() + x == x and x + alg.zero() == x
    assert (x - x) == alg.zero() and (x - x).denominator == 1
    assert (r * x).coeffs == naive_product(r, x) == (x * r).coeffs
    assert x.scale(Q(1, 2)).coeffs == {k: c.scale(Q(1, 2)) for k, c in x.coeffs.items()}
    assert r.scale(Poly.var(1, 0)).coeffs == {0: Poly.var(1, 0).scale(2),
                                              2: Poly.var(1, 0).scale(Q(1, 3))}
    assert x.coeff((1, 0)) == Poly.one(1) and x.coeff((0, 1)) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_and_polynomial_elements_add_at_a_shared_index(n):
    """A rational coefficient adds to a polynomial one as its constant."""
    alg = make_algebra(d_cube(n))
    k = n + 1  # polynomial variables
    top = alg.dim - 1
    x = WeilElement(alg, {0: Poly.const(k, Q(-3, 2)), top: Poly.var(k, k - 1) + 1})
    r = from_dense(alg, [Q(3, 2)] + [Q(0)] * (alg.dim - 2) + [Q(-1)])
    poly_r = WeilElement(alg, {0: Poly.const(k, Q(3, 2)), top: Poly.const(k, Q(-1))})
    # index 0 cancels and is dropped; the top index keeps a polynomial
    expected = WeilElement(alg, {top: Poly.var(k, k - 1)})
    for total in (x + r, r + x, x + poly_r, poly_r + x):
        assert total == expected
        assert 0 not in total.coeffs
    assert x - r == x - poly_r and r - x == poly_r - x

    # a polynomial with a constant term, evaluated with the rational unit or
    # the polynomial-valued one
    poly_one = WeilElement(alg, {0: Poly.one(k)})
    y = WeilElement(alg, {0: Poly.var(k, 0), 1: Poly.one(k)})
    for f in (Poly.from_terms(1, [(Q(1), (1,)), (Q(2), (0,))]),
              Poly.from_terms(1, [(Q(1, 3), (2,)), (Q(-1), (1,)), (Q(5, 7), (0,))])):
        assert f.eval([y], alg.one()) == f.eval([y], poly_one)
    # the constant term cancels the argument's constant coefficient
    g = Poly.from_terms(1, [(Q(1), (1,)), (Q(3, 2), (0,))])
    assert g.eval([x], alg.one()) == g.eval([x], poly_one) \
        == WeilElement(alg, {top: Poly.var(k, k - 1) + 1})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_coefficients_equal_constant_polynomials(n):
    """Equality does not depend on the unit an evaluation was given."""
    alg = make_algebra(d_cube(n))
    x = WeilElement(alg, {1: Poly.var(1, 0)})
    poly_one = WeilElement(alg, {0: Poly.one(1)})
    f = Poly.from_terms(1, [(Q(1), (1,)), (Q(2), (0,))])
    a, b = f.eval([x], alg.one()), f.eval([x], poly_one)
    assert a.coeffs[0] == Q(2) and b.coeffs[0] == Poly.const(1, Q(2))
    assert a == b and b == a
    assert alg.one() == poly_one and poly_one == alg.one()
    half = from_dense(alg, [Q(0), Q(1, 2)] + [Q(0)] * (alg.dim - 2))
    assert half == WeilElement(alg, {1: Poly.const(1, Q(1, 2))})
    for other in (WeilElement(alg, {0: Poly.const(1, Q(2))}),
                  WeilElement(alg, {0: Poly.var(1, 0)}),
                  WeilElement(alg, {0: Poly.one(1), 1: Poly.one(1)})):
        assert alg.one() != other and other != alg.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_valued_arithmetic_with_rational_results_hashes_as_rational(n):
    """A ring-valued sum or evaluation whose values all come out rational is
    held fraction-free, so it hashes as the equal rational element does."""
    alg = make_algebra(d_cube(n))
    a = WeilElement(alg, {1: Poly.var(1, 0)})
    one = (a + alg.one()) - a
    assert one == alg.one() and hash(one) == hash(alg.one())
    assert one.denominator == 1 and dict(one.coeffs) == {0: Q(1)}
    # 3 + a^2 at a square-zero a
    s = Poly.from_terms(1, [(Q(3), (0,)), (Q(1), (2,))]).eval([a])
    assert s == alg.one().scale(3) and len({s, alg.one().scale(3)}) == 1
    # a product whose polynomial parts vanish, scaled by a rational
    half = from_dense(alg, [Q(1, 2)] + [Q(0)] * (alg.dim - 1))
    p = (a * a + half) * from_dense(alg, [Q(2, 3)] + [Q(0)] * (alg.dim - 1))
    assert hash(p) == hash(alg.one().scale(Q(1, 3))) and p.denominator == 3


def test_ring_valued_element_refuses_hashing():
    """A constant-Poly element equals the rational one, so no hash of its
    values could agree with __eq__: hashing names ring-valued elements."""
    alg = make_algebra(d_cube(2))
    constant = WeilElement(alg, {0: Poly.one(1), 1: Poly.const(1, Q(1, 2))})
    assert constant == alg.one() + alg.generator(1).scale(Q(1, 2))
    for w in (constant, WeilElement(alg, {0: Poly.var(1, 0)})):
        with pytest.raises(TypeError, match="ring-valued WeilElement is unhashable"):
            hash(w)
        with pytest.raises(TypeError, match="ring-valued"):
            {w}


# the packed pair table against a brute-force table ---------------------------


def brute_pairs(obj):
    """For each basis position i, the (j, k) with basis[i] * basis[j] = basis[k].

    The product's exponents are the sums; it survives when every sum is below
    its bound and no vanishing product divides it.  Positions come from the
    brute-force basis.
    """
    basis = brute_basis(obj)
    rels = [tuple(s) for s in obj.relations]
    table = []
    for a in basis:
        row = []
        for j, b in enumerate(basis):
            e = tuple(x + y for x, y in zip(a, b))
            if any(x >= bound for x, bound in zip(e, obj.bounds)):
                continue
            if any(all(e[i - 1] >= 1 for i in seq) for seq in rels):
                continue
            row.append((j, basis.index(e)))
        table.append(tuple(row))
    return tuple(table)


PAIR_TABLE_OBJECTS = (
    [d_cube(n) for n in range(6)] + [d_order(k) for k in range(1, 32)]
    + [d_paren(n) for n in range(2, 7)]
    + [tensor(d_order(3), d_paren(3)), tensor(d_order(2), d_order(4)),
       tensor(d_paren(2), tensor(d_order(5), d_cube(1))),
       tensor(d_cube(2), d_order(7)), tensor(d_order(4), d_order(1)),
       # vanishing products of three generators, also beside higher bounds
       SimplicialObject(3, frozenset({(1, 2, 3)})),
       SimplicialObject(5, frozenset({(1, 2, 3), (2, 4, 5), (1, 5)})),
       SimplicialObject(4, frozenset({(1, 2, 4), (3,)})),
       SimplicialObject(3, frozenset({(1, 2, 3)}), (3, 2, 4)),
       SimplicialObject(4, frozenset({(1, 3, 4), (2, 3)}), (2, 3, 2, 3))])


@pytest.mark.parametrize("obj", PAIR_TABLE_OBJECTS, ids=repr)
def test_pair_table_matches_brute_force(obj):
    alg = make_algebra(obj)
    assert list(alg.basis) == brute_basis(obj)
    assert alg._pairs == brute_pairs(obj)
