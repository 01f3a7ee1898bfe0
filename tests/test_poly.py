from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fnlab.errors import ValidationError
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import D2, SimplicialObject, d_cube, d_order, d_paren, tensor
from fnlab.weil import WeilElement, from_dense, make_algebra


def naive_eval(poly, args):
    """Term-by-term substitution oracle over the rationals."""
    total = Q(0)
    for e, c in poly.terms.items():
        term = c
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * args[i]
        total += term
    return total


def test_eval_square_zero_argument():
    f = PolyMap(1, [Poly.var(1, 0) ** 2])
    alg = make_algebra(d_cube(1))
    val = f.eval([alg.one() + alg.generator(1)], alg.one())[0]
    assert val == from_dense(alg, [Q(1), Q(2)])


def test_eval_second_order_argument():
    f = PolyMap(1, [Poly.var(1, 0) ** 2])
    alg = make_algebra(D2)
    val = f.eval([alg.one() + alg.generator(1)], alg.one())[0]
    assert val == from_dense(alg, [Q(1), Q(2), Q(1)])


def test_eval_pairwise_vanishing():
    f = PolyMap(2, [Poly.var(2, 0) * Poly.var(2, 1)])
    alg = make_algebra(d_paren(2))
    assert not f.eval([alg.generator(1), alg.generator(2)], alg.one())[0]


def test_compose_examples():
    f = PolyMap(1, [Poly.var(1, 0) ** 2])
    g = PolyMap(1, [Poly.var(1, 0) + Poly.one(1)])
    assert f.compose(g).comps[0] == Poly.from_terms(
        1, [(Q(1), (2,)), (Q(2), (1,)), (Q(1), (0,))])
    assert f.compose(PolyMap.identity(1)) == f
    with pytest.raises(ValidationError):
        f.compose(PolyMap(1, [Poly.var(1, 0), Poly.var(1, 0)]))


def test_poly_equal_examples():
    x = Poly.var(1, 0)
    assert PolyMap(1, [x + x]) == PolyMap(1, [x.scale(Q(2))])
    assert PolyMap(1, [x ** 2]) == PolyMap(1, [x * x])
    tiny = x + Poly.const(1, Q(1, 10 ** 9))
    assert PolyMap(1, [x]) != PolyMap(1, [tiny])
    # maps of different dimensions are simply unequal
    assert PolyMap(1, [x]) != PolyMap(2, [Poly.var(2, 0)])
    # a polynomial equals no value that is neither a polynomial nor a rational
    assert x != "x"


@st.composite
def polys(draw, n, deg=3, terms=4):
    pairs = []
    for _ in range(draw(st.integers(0, terms))):
        e = [0] * n
        for _ in range(draw(st.integers(0, deg))):
            e[draw(st.integers(0, n - 1))] += 1
        c = draw(st.integers(-6, 6))
        pairs.append((Q(c, draw(st.integers(1, 3))), tuple(e)))
    return Poly.from_terms(n, pairs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eval_matches_naive_substitution(data):
    p = data.draw(polys(2))
    args = [Q(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
            for _ in range(2)]
    assert p.eval(args) == naive_eval(p, args)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_compose_associative_random_cubics(data):
    f = PolyMap(2, [data.draw(polys(2)), data.draw(polys(2))])
    g = PolyMap(2, [data.draw(polys(2)), data.draw(polys(2))])
    h = PolyMap(2, [data.draw(polys(2)), data.draw(polys(2))])
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_eval_commutes_with_composition(data):
    f = PolyMap(2, [data.draw(polys(2, deg=2)), data.draw(polys(2, deg=2))])
    g = PolyMap(2, [data.draw(polys(2, deg=2)), data.draw(polys(2, deg=2))])
    alg = make_algebra(d_cube(2))
    args = [from_dense(alg, [Q(data.draw(st.integers(-3, 3))) for _ in range(4)])
            for _ in range(2)]
    one = alg.one()
    assert f.compose(g).eval(args, one) == f.eval(g.eval(args, one), one)


def test_eval_identity_is_identity():
    alg = make_algebra(d_cube(2))
    args = [from_dense(alg, [Q(3), Q(1), Q(0), Q(7)]),
            from_dense(alg, [Q(-1), Q(2), Q(5), Q(0)])]
    assert PolyMap.identity(2).eval(args, alg.one()) == args


def test_partial_derivative():
    p = Poly.from_terms(2, [(Q(3), (2, 1)), (Q(1), (0, 2))])
    assert p.partial(0) == Poly.from_terms(2, [(Q(6), (1, 1))])
    assert p.partial(1) == Poly.from_terms(2, [(Q(3), (2, 0)), (Q(2), (0, 1))])


def test_arity_errors():
    f = PolyMap(2, [Poly.var(2, 0)])
    with pytest.raises(ValidationError):
        f.eval([Q(1)])
    with pytest.raises(ValidationError):
        Poly.var(2, 5)


# fraction-free polynomials against a naive Fraction-dict reference -----------
#
# A Poly holds integer numerators over one denominator.  The reference below
# computes with plain {exponents: Fraction} dicts; each result must match it
# and be in reduced form (denominator >= 1, no factor common to it and every
# numerator, and denominator 1 for zero).

N = 3


def ref_of(p):
    return {e: Fraction(c.numerator, c.denominator) for e, c in p.terms.items()}


def poly_of(ref, n=N):
    return Poly(n, {e: Q(v.numerator, v.denominator) for e, v in ref.items()})


def ref_add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def ref_scale(c, a):
    return {e: c * v for e, v in a.items() if c * v}


def ref_mul(a, b):
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            out[e] = out.get(e, 0) + x * y
    return {e: v for e, v in out.items() if v}


def ref_eval(a, args, one, mul, add, scale):
    """Term-by-term substitution with the ring's own operations."""
    total = None
    for e, c in a.items():
        term = scale(c, one)
        for i, k in enumerate(e):
            for _ in range(k):
                term = mul(term, args[i])
        total = term if total is None else add(total, term)
    return total


def check(p, ref):
    assert ref_of(p) == ref
    assert all(type(c) is Q for c in p.terms.values())
    den = p.denominator
    assert den >= 1 and gcd(den, *p.numerators.values()) == 1
    assert all(p.numerators.values())
    if not ref:
        assert den == 1


fractions_1_7 = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def ref_polys(draw, n=N, max_exp=2):
    """Zero, single-term or sparse reference dicts, denominators 1..7."""
    kind = draw(st.sampled_from(["zero", "single", "sparse", "sparse"]))
    if kind == "zero":
        return {}
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    keys = [draw(exps)] if kind == "single" else draw(
        st.lists(exps, unique=True, min_size=1, max_size=5))
    ref = {e: draw(fractions_1_7) for e in keys}
    return {e: v for e, v in ref.items() if v}


@settings(max_examples=80, deadline=None)
@given(ref_polys(), ref_polys())
def test_sum_difference_negation_match_reference(a, b):
    x, y = poly_of(a), poly_of(b)
    neg_b = ref_scale(Fraction(-1), b)
    check(-y, neg_b)
    # half of a's terms, negated: the sum cancels them and keeps the rest
    half = {e: -v for e, v in list(a.items())[: (len(a) + 1) // 2]}
    for other, other_ref in ((y, b), (-y, neg_b), (x, a), (-x, ref_scale(Fraction(-1), a)),
                             (poly_of(half), half)):
        check(x + other, ref_add(a, other_ref))
        check(other + x, ref_add(a, other_ref))
        check(x - other, ref_add(a, ref_scale(Fraction(-1), other_ref)))


@settings(max_examples=80, deadline=None)
@given(ref_polys(), fractions_1_7, st.integers(-6, 6))
def test_rationals_and_ints_add_as_constants(a, c, n):
    x, zero = poly_of(a), (0,) * N
    q = Q(c.numerator, c.denominator)
    for const, ref in ((q, {zero: c}), (n, {zero: Fraction(n)}),
                       # cancels the constant term, if any
                       (-x.constant_term(), {zero: -a.get(zero, Fraction(0))})):
        ref = {e: v for e, v in ref.items() if v}
        check(x + const, ref_add(a, ref))
        check(const + x, ref_add(a, ref))
        check(x - const, ref_add(a, ref_scale(Fraction(-1), ref)))
        check(const - x, ref_add(ref, ref_scale(Fraction(-1), a)))


@settings(max_examples=80, deadline=None)
@given(ref_polys(), fractions_1_7, st.integers(-6, 6))
def test_rationals_and_ints_compare_as_constants(a, c, n):
    x, zero = poly_of(a), (0,) * N
    q = Q(c.numerator, c.denominator)
    for const, ref in ((q, c), (n, Fraction(n)), (x.constant_term(), a.get(zero, 0))):
        expected = a == ({zero: ref} if ref else {})
        assert (x == const) is (const == x) is expected
        assert (x != const) is (const != x) is not expected
        assert Poly.const(N, const) == const and const == Poly.const(N, const)


@settings(max_examples=80, deadline=None)
@given(ref_polys(), fractions_1_7, st.integers(-6, 6))
def test_scaling_matches_reference(a, c, n):
    x = poly_of(a)
    check(x.scale(Q(c.numerator, c.denominator)), ref_scale(c, a))
    check(x.scale(Q(-c.numerator, -c.denominator)), ref_scale(c, a))
    check(x.scale(n), ref_scale(Fraction(n), a))
    check(Q(c.numerator, c.denominator) * x, ref_scale(c, a))
    check(x * n, ref_scale(Fraction(n), a))
    check(Poly.const(N, Q(c.numerator, c.denominator)), {(0,) * N: c} if c else {})
    check(Poly.var(N, 1, Q(c.numerator, c.denominator)), {(0, 1, 0): c} if c else {})
    check(Poly.var(N, 2, n), {(0, 0, 1): Fraction(n)} if n else {})


@settings(max_examples=80, deadline=None)
@given(ref_polys(), ref_polys(), st.integers(0, 3))
def test_product_and_power_match_reference(a, b, k):
    x, y = poly_of(a), poly_of(b)
    check(x * y, ref_mul(a, b))
    check(y * x, ref_mul(a, b))
    check(x * (-x), ref_scale(Fraction(-1), ref_mul(a, a)))
    # the cross terms cancel
    check((x + y) * (x - y), ref_add(ref_mul(a, a), ref_scale(Fraction(-1), ref_mul(b, b))))
    power = {(0,) * N: Fraction(1)}
    for _ in range(k):
        power = ref_mul(power, a)
    check(x ** k, power)


@settings(max_examples=80, deadline=None)
@given(ref_polys(), st.integers(0, N - 1), st.lists(st.integers(0, N - 1), min_size=N,
                                                     max_size=N))
def test_queries_partial_and_remap_match_reference(a, i, mapping):
    x = poly_of(a)
    assert x.degree() == max((sum(e) for e in a), default=-1)
    const = x.constant_term()
    assert type(const) is Q and const == a.get((0,) * N, 0)
    partial = {}
    for e, v in a.items():
        if e[i]:
            partial[e[:i] + (e[i] - 1,) + e[i + 1:]] = v * e[i]
    check(x.partial(i), partial)
    # a mapping into N + 1 variables that may send several variables to one
    # is an evaluation at variables
    remapped = {}
    for e, v in a.items():
        d = [0] * (N + 1)
        for j, k in enumerate(e):
            d[mapping[j]] += k
        remapped = ref_add(remapped, {tuple(d): v})
    check(x.eval([Poly.var(N + 1, j) for j in mapping]), remapped)
    perm = list(range(N))[::-1]
    check(x.remap_variables(perm), {tuple(e[::-1]): v for e, v in a.items()})


def ref_remap(a, mapping, new_n):
    """Summing reference: exponent i of every term adds into slot mapping[i]."""
    out = {}
    for e, v in a.items():
        d = [0] * new_n
        for i, k in enumerate(e):
            d[mapping[i]] += k
        out = ref_add(out, {tuple(d): v})
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_remap_matches_summing_reference(data):
    # permutations (the identity and n = 1 included) by remap_variables, and
    # embeddings into more variables and merging maps by evaluation at
    # variables, on n = 1..8 variables
    n = data.draw(st.integers(1, 8))
    a = data.draw(ref_polys(n))
    x = poly_of(a, n)
    identity = list(range(n))
    perm = data.draw(st.permutations(identity))
    extra = data.draw(st.integers(1, 2))
    embed = data.draw(st.lists(st.integers(0, n + extra - 1), min_size=n, max_size=n,
                               unique=True))
    merge = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    merge[-1] = merge[0]
    substituted = [(mapping, new_n, x.eval([Poly.var(new_n, j) for j in mapping]))
                   for mapping, new_n in ((perm, n), (identity, n), (embed, n + extra),
                                          (merge, n), (merge, n + extra))]
    substituted += [(mapping, n, x.remap_variables(mapping)) for mapping in (perm, identity)]
    for mapping, new_n, y in substituted:
        assert y.n == new_n
        check(y, ref_remap(a, mapping, new_n))
        assert all(type(e) is tuple and len(e) == new_n for e in y.numerators)


def test_remap_merging_terms_reduces():
    # x0/2 + x1/2 -> x0, and x0/6 + x1/3 -> x0/2: merged numerators share a
    # factor with the denominator that the parts did not
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    p = Poly(2, {(1, 0): Q(1, 2), (0, 1): Q(1, 2)})
    check(p.eval([x0, x0]), {(1, 0): Fraction(1)})
    q = Poly(2, {(1, 0): Q(1, 6), (0, 1): Q(1, 3), (1, 1): Q(1, 6)})
    check(q.eval([x1, x1]), {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 6)})
    check(p.remap_variables([1, 0]), {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})


@settings(max_examples=60, deadline=None)
@given(ref_polys(), st.lists(fractions_1_7, min_size=N, max_size=N), st.data())
def test_eval_matches_reference(a, point, data):
    x = poly_of(a)
    # rational arguments
    got = x.eval([Q(v.numerator, v.denominator) for v in point])
    want = ref_eval(a, point, Fraction(1), lambda s, t: s * t, lambda s, t: s + t,
                    lambda c, s: c * s)
    assert type(got) is Q and got == (want or 0)
    # Weil arguments
    alg = make_algebra(d_cube(2))
    args = [from_dense(alg, [Q(v.numerator, v.denominator)
                             for v in data.draw(st.lists(fractions_1_7, min_size=4,
                                                         max_size=4))])
            for _ in range(N)]
    want = ref_eval(a, args, alg.one(), lambda s, t: s * t, lambda s, t: s + t,
                    lambda c, s: s.scale(Q(c.numerator, c.denominator)))
    assert x.eval(args, alg.one()) == (alg.zero() if want is None else want)
    # polynomial arguments, multiplied out in the reference dicts
    refs = [data.draw(ref_polys(2)) for _ in range(N)]
    want = ref_eval(a, refs, {(0, 0): Fraction(1)}, ref_mul, ref_add, ref_scale)
    check(x.eval([poly_of(r, 2) for r in refs], Poly.one(2)), want or {})


# evaluation at fraction-free values against Fraction-dict references ---------
#
# A rational Weil element is a {basis index: Fraction} dict here, multiplied
# by adding basis exponents and keeping the sums the basis holds.  Exponents
# up to 5 exercise powers built by squaring; the algebras keep high powers of
# a unit-like argument alive.

WEIL_OBJECTS = [d_cube(2), d_order(6), tensor(d_order(3), d_paren(2))]


def weil_ref_mul(alg):
    def mul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                k = alg.index.get(tuple(p + q for p, q in zip(alg.basis[i], alg.basis[j])))
                if k is not None:
                    out[k] = out.get(k, 0) + x * y
        return {k: v for k, v in out.items() if v}
    return mul


def weil_of(alg, ref):
    return WeilElement(alg, {k: Q(v.numerator, v.denominator) for k, v in ref.items()})


def check_weil(w, ref):
    """w equals the reference and is reduced; zero has denominator 1."""
    assert {k: Fraction(c.numerator, c.denominator) for k, c in w.coeffs.items()} == ref
    assert all(type(c) is Q for c in w.coeffs.values())
    den = w.denominator
    assert den >= 1 and gcd(den, *w._num.values()) == 1
    if not ref:
        assert den == 1


@st.composite
def weil_refs(draw, alg):
    """Dense or sparse {basis index: Fraction} dicts, denominators 1..7."""
    keys = range(alg.dim) if draw(st.booleans()) else draw(
        st.lists(st.integers(0, alg.dim - 1), unique=True, max_size=alg.dim))
    ref = {k: draw(fractions_1_7) for k in keys}
    return {k: v for k, v in ref.items() if v}


@settings(max_examples=80, deadline=None)
@given(ref_polys(max_exp=5), st.sampled_from(WEIL_OBJECTS), st.data())
def test_eval_at_rational_weil_matches_fraction_reference(a, obj, data):
    alg = make_algebra(obj)
    refs = [data.draw(weil_refs(alg)) for _ in range(N)]
    want = ref_eval(a, refs, {0: Fraction(1)}, weil_ref_mul(alg), ref_add, ref_scale)
    check_weil(poly_of(a).eval([weil_of(alg, r) for r in refs], alg.one()), want or {})


@settings(max_examples=60, deadline=None)
@given(ref_polys(max_exp=4), st.data())
def test_eval_at_polynomials_matches_fraction_reference(a, data):
    refs = [data.draw(ref_polys(2)) for _ in range(N)]
    want = ref_eval(a, refs, {(0, 0): Fraction(1)}, ref_mul, ref_add, ref_scale)
    check(poly_of(a).eval([poly_of(r, 2) for r in refs], Poly.one(2)), want or {})


# The fused step: a term's last power is multiplied straight into the sum,
# over the lcm of the terms' prefix-times-last denominators.  Every term below
# is a product of two or three variables, and argument i scales its
# coefficients by a denominator of its own, so a prefix and its last factor
# never share one.  Points may be sparse or lack the unit coefficient; the
# algebras are truncated polynomial rings and algebras with relations.

FUSED_OBJECTS = [d_order(2), d_order(5), d_paren(3), tensor(d_order(2), d_paren(2)),
                 SimplicialObject(3, frozenset({(1, 2)})),
                 SimplicialObject(2, frozenset({(1, 2)}), (3, 4))]
ARG_DENOMINATORS = (2, 3, 5)


@st.composite
def mixed_terms(draw, n):
    """A reference dict whose every term has two or more variables."""
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda e: sum(1 for k in e if k) >= 2).map(tuple)
    keys = draw(st.lists(exps, unique=True, min_size=1, max_size=4))
    ref = {e: draw(fractions_1_7) for e in keys}
    return {e: v for e, v in ref.items() if v}


@st.composite
def scaled_points(draw, alg, i):
    """Sparse or dense points over denominators times ARG_DENOMINATORS[i]; unit maybe zero."""
    ref = draw(weil_refs(alg))
    if draw(st.booleans()):
        ref.pop(0, None)
    return {k: v / ARG_DENOMINATORS[i] for k, v in ref.items()}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.sampled_from(FUSED_OBJECTS), st.data())
def test_fused_sum_matches_fraction_reference(n, obj, data):
    alg = make_algebra(obj)
    a = data.draw(mixed_terms(n))
    if data.draw(st.booleans()):
        a[(0,) * n] = data.draw(fractions_1_7.filter(bool))
    refs = [data.draw(scaled_points(alg, i)) for i in range(n)]
    want = ref_eval(a, refs, {0: Fraction(1)}, weil_ref_mul(alg), ref_add, ref_scale)
    check_weil(poly_of(a, n).eval([weil_of(alg, r) for r in refs], alg.one()), want or {})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FUSED_OBJECTS), fractions_1_7.filter(bool), st.data())
def test_fused_sums_that_cancel_come_out_over_denominator_one(obj, c, data):
    # c * (x0 * x1 - 7 * x2) at x2 = x0 * x1 / 7, and c * (x0 * x1^2 - x1 *
    # x0^2) at x0 = x1: the terms' prefixes and last factors have different
    # denominators, and the sum is zero over denominator 1
    alg = make_algebra(obj)
    u, v = (weil_of(alg, data.draw(scaled_points(alg, i))) for i in range(2))
    q = Q(c.numerator, c.denominator)
    x0, x1, x2 = (Poly.var(3, i) for i in range(3))
    check_weil((x0 * x1 - x2 * 7).scale(q).eval([u, v, (u * v).scale(Q(1, 7))], alg.one()),
               {})
    check_weil((x0 * x1 ** 2 - x1 * x0 ** 2).scale(q).eval([u, u, v], alg.one()), {})
    # a three-variable term, prefix x0 * x1 and last factor x2, against the
    # product built in the other order
    w = weil_of(alg, data.draw(scaled_points(alg, 2)))
    f = Poly.from_terms(4, [(q, (1, 1, 1, 0)), (-q, (0, 0, 0, 1))])
    check_weil(f.eval([u, v, w, u * (v * w)], alg.one()), {})


def test_eval_cancelling_terms_reduce():
    alg = make_algebra(d_cube(2))
    d1, d2 = alg.generator(1), alg.generator(2)
    w = alg.one().scale(Q(2, 3)) + d1.scale(Q(1, 5)) + (d1 * d2).scale(Q(-3, 7))
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    q = Poly.var(2, 0) * Q(2, 3) + Poly.var(2, 1) * Q(-1, 5)
    # every term cancels: zero, over denominator 1
    for f, make in (((x0 - x1).scale(Q(1, 6)), lambda v: [v, v]),
                    (x0 ** 2 * Q(1, 3) - x1 * Q(1, 6), lambda v: [v, (v * v).scale(2)]),
                    (x0 ** 3 - x0 * x1, lambda v: [v, v * v])):
        check_weil(f.eval(make(w), alg.one()), {})
        check(f.eval(make(q), Poly.one(2)), {})
    # the sum shares a factor with the denominators: (1 + d1)/2 + (1 - d1)/2 = 1
    half = (x0 + x1).scale(Q(1, 2))
    check_weil(half.eval([alg.one() + d1, alg.one() - d1], alg.one()), {0: Fraction(1)})
    # x0/6 + x1/3 at x0 = 2 + d2/5 and x1 = 1/2: numerators 10, 1 and 5 over
    # 30 give 1/2 + d2/30, reduced by the final gcd pass
    f = x0 * Q(1, 6) + x1 * Q(1, 3)
    check_weil(f.eval([alg.one().scale(2) + d2.scale(Q(1, 5)), alg.one().scale(Q(1, 2))],
                      alg.one()),
               {0: Fraction(1, 2), 2: Fraction(1, 30)})
    p = Poly.from_terms(2, [(Q(1, 2), (1, 0)), (Q(1, 2), (0, 1))])
    check(p.eval([Poly.var(1, 0) + Poly.one(1), Poly.one(1) - Poly.var(1, 0)], Poly.one(1)),
          {(0,): Fraction(1)})


def test_eval_constant_and_zero_polynomials():
    alg = make_algebra(d_order(3))
    args = [from_dense(alg, [Q(1, 2), Q(3), Q(0), Q(-1, 7)])] * 2
    poly_args = [Poly.var(2, 0) * Q(1, 3), Poly.one(2) * Q(2, 5)]
    for c in (Q(5, 3), Q(-4), Q(1, 7)):
        want = Fraction(c.numerator, c.denominator)
        check_weil(Poly.const(2, c).eval(args, alg.one()), {0: want})
        check(Poly.const(2, c).eval(poly_args, Poly.one(2)), {(0, 0): want})
        assert Poly.const(2, c).eval([Q(1), Q(2)]) == c
    check_weil(Poly.zero(2).eval(args, alg.one()), {})
    check(Poly.zero(2).eval(poly_args, Poly.one(2)), {})
    assert Poly.zero(2).eval([Q(1), Q(2)]) == 0


def test_eval_at_ring_valued_weil_sums_by_position():
    # Weil elements with polynomial coefficients, as the bracket tower's
    # convolutions use: the result is ring-valued and equals the term-by-term
    # sum
    alg = make_algebra(d_cube(2))
    one = WeilElement(alg, {0: Poly.one(2)})
    args = [WeilElement(alg, {0: Poly.var(2, 0) * Q(1, 3), 1: Poly.one(2) * Q(2, 5)}),
            WeilElement(alg, {0: Poly.var(2, 1), 2: Poly.var(2, 0) * Q(-1, 7)}),
            WeilElement(alg, {3: Poly.one(2) * Q(3, 2)})]
    a = {(2, 1, 0): Fraction(1, 2), (0, 3, 1): Fraction(-5, 6), (1, 0, 0): Fraction(7),
         (0, 0, 0): Fraction(2, 3)}
    want = ref_eval(a, args, one, lambda s, t: s * t, lambda s, t: s + t,
                    lambda c, s: s.scale(Q(c.numerator, c.denominator)))
    got = poly_of(a).eval(args, one)
    assert got == want and got.denominator is None
    assert all(isinstance(c, Poly) and c for c in got.coeffs.values())
    # a rational unit does not make ring-valued arguments fraction-free
    del a[(0, 0, 0)]
    got = poly_of(a).eval(args, alg.one())
    assert got == want - one.scale(Q(2, 3)) and got.denominator is None
    # a lone term with numerator 1 is still divided by the denominator
    got = Poly.var(3, 0, Q(1, 2)).eval(args, one)
    assert got == args[0].scale(Q(1, 2)) and parts(got) == parts(args[0].scale(Q(1, 2)))
    # positions that cancel are dropped, and with none left the result is zero
    diff = Poly.var(3, 0) - Poly.var(3, 1)
    assert parts(diff.eval([args[0], args[0] + args[2], args[2]], one)) == parts(-args[2])
    assert parts(diff.eval([args[0], args[0], args[2]], one)) == ({}, 1)


@st.composite
def poly_weil(draw, alg, n=2):
    """A Weil element with Poly coefficients in n variables; now and then a rational one."""
    if draw(st.integers(0, 4)) == 0:
        return weil_of(alg, draw(weil_refs(alg)))
    keys = draw(st.lists(st.integers(0, alg.dim - 1), unique=True, max_size=alg.dim))
    return WeilElement(alg, {k: c for k in keys
                             if (c := poly_of(draw(ref_polys(n, max_exp=1)), n))})


@settings(max_examples=80, deadline=None)
@given(ref_polys(max_exp=3), st.one_of(st.just(0), fractions_1_7),
       st.sampled_from([d_cube(1), d_cube(2), d_order(3)]), st.booleans(), st.data())
def test_eval_at_poly_valued_weil_matches_term_by_term_reference(a, c, obj, poly_unit, data):
    # the reference scales, multiplies and adds Weil elements term by term; a
    # constant term c adds c times the unit, a rational one or a Poly-valued one
    a = {e: v for e, v in {**a, (0,) * N: c}.items() if v} if c else a
    alg = make_algebra(obj)
    one = WeilElement(alg, {0: Poly.one(2)}) if poly_unit else alg.one()
    args = [data.draw(poly_weil(alg)) for _ in range(N)]
    got = poly_of(a).eval(args, one)
    want = ref_eval(a, args, one, lambda s, t: s * t, lambda s, t: s + t, scale_by) \
        if a else alg.zero()
    assert got == want
    assert all(got.coeffs.values())
    if poly_unit and all(arg.denominator is None for arg in args):
        assert parts(got) == parts(want)


# fused sums at polynomial values against term-by-term references ------------
#
# Weil elements with polynomial coefficients add, multiply and evaluate
# polynomials by one sum of products per basis position, each product's
# last factor multiplied straight into the sum; polynomial arguments fuse
# the same way.  The references work on Fraction dicts: a polynomial is
# {exponents: Fraction}, a ring-valued Weil element {basis index: polynomial},
# and every product and sum is built term by term.  Each argument scales its
# coefficients by a denominator of its own, so the products that meet at a
# position or a monomial never share one.  Now and then a coefficient is
# held as a rational rather than as a constant polynomial.


def ring_ref_mul(alg):
    def mul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                k = alg.index.get(tuple(p + q for p, q in zip(alg.basis[i], alg.basis[j])))
                if k is not None:
                    out[k] = ref_add(out.get(k, {}), ref_mul(x, y))
        return {k: v for k, v in out.items() if v}
    return mul


def ring_ref_add(a, b):
    out = {k: ref_add(a.get(k, {}), b.get(k, {})) for k in a.keys() | b.keys()}
    return {k: v for k, v in out.items() if v}


def ring_ref_scale(c, a):
    return {k: ref_scale(c, v) for k, v in a.items() if c}


def ring_ref_of(w, n=2):
    """A ring-valued (or rational) Weil element's coefficients as Fraction dicts."""
    out = {}
    for k, c in w.coeffs.items():
        assert c
        if isinstance(c, Poly):
            out[k] = ref_of(c)
        else:
            out[k] = {(0,) * n: Fraction(c.numerator, c.denominator)}
    return out


@st.composite
def ring_refs(draw, alg, den, n=2):
    """{basis index: polynomial ref} over denominators times den, max 4 positions."""
    keys = draw(st.lists(st.integers(0, alg.dim - 1), unique=True, max_size=min(4, alg.dim)))
    out = {}
    for k in keys:
        ref = ref_scale(Fraction(1, den), draw(ref_polys(n, max_exp=1)))
        if ref:
            out[k] = ref
    return out


def ring_of(alg, ref, data, n=2):
    """The element of a ring ref; a constant coefficient may be held as a rational."""
    coeffs = {}
    for k, v in ref.items():
        if set(v) == {(0,) * n} and data.draw(st.booleans()):
            c = v[(0,) * n]
            coeffs[k] = Q(c.numerator, c.denominator)
        else:
            coeffs[k] = poly_of(v, n)
    return WeilElement(alg, coeffs)


RING_OBJECTS = [d_cube(2), d_order(3), d_paren(3), SimplicialObject(3, frozenset({(1, 2)}))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RING_OBJECTS), st.data())
def test_ring_valued_sums_and_products_match_term_by_term_reference(obj, data):
    alg = make_algebra(obj)
    a, b = (data.draw(ring_refs(alg, d)) for d in (3, 5))
    x, y = ring_of(alg, a, data), ring_of(alg, b, data)
    assert ring_ref_of(x * y) == ring_ref_mul(alg)(a, b)
    assert ring_ref_of(y * x) == ring_ref_mul(alg)(b, a)
    assert ring_ref_of(x + y) == ring_ref_add(a, b)
    assert ring_ref_of(x - y) == ring_ref_add(a, ring_ref_scale(-1, b))
    assert ring_ref_of(x * x) == ring_ref_of(x ** 2) == ring_ref_mul(alg)(a, a)
    # a sum that cancels is the zero, over denominator 1
    z = x * y - y * x
    assert z == alg.zero() and z.denominator == 1 and not z.coeffs


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.sampled_from(RING_OBJECTS), st.booleans(), st.data())
def test_eval_at_ring_valued_weil_fuses_last_factors_as_the_reference(n, obj, poly_unit,
                                                                       data):
    alg = make_algebra(obj)
    a = data.draw(mixed_terms(n))
    if data.draw(st.booleans()):
        a[(0,) * n] = data.draw(fractions_1_7.filter(bool))
    refs = [data.draw(ring_refs(alg, d)) for d in ARG_DENOMINATORS[:n]]
    one = WeilElement(alg, {0: Poly.one(2)}) if poly_unit else alg.one()
    want = ref_eval(a, refs, {0: {(0, 0): Fraction(1)}}, ring_ref_mul(alg), ring_ref_add,
                    ring_ref_scale) or {}
    got = poly_of(a, n).eval([ring_of(alg, r, data) for r in refs], one)
    assert ring_ref_of(got) == want
    # x0 * x1 evaluates to the product of its arguments; the difference of
    # the two is the zero, over denominator 1
    args = [ring_of(alg, r, data) for r in refs]
    zero = (Poly.var(n, 0) * Poly.var(n, 1)).eval(args, one) - args[0] * args[1]
    assert zero == alg.zero() and zero.denominator == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.data())
def test_eval_at_polynomials_fuses_last_factors_as_the_reference(n, data):
    comps = [data.draw(mixed_terms(n)) for _ in range(2)]
    if data.draw(st.booleans()):
        comps[0][(0,) * n] = data.draw(fractions_1_7.filter(bool))
    refs = [ref_scale(Fraction(1, ARG_DENOMINATORS[i]), data.draw(ref_polys(2)))
            for i in range(n)]
    args = [poly_of(r, 2) for r in refs]
    want = [ref_eval(a, refs, {(0, 0): Fraction(1)}, ref_mul, ref_add, ref_scale) or {}
            for a in comps]
    f = PolyMap(n, [poly_of(a, n) for a in comps])
    for got, ref in zip(f.eval(args, Poly.one(2)), want):
        check(got, ref)
    # composition against the terms multiplied out one product at a time
    unfused = [ref_eval(a, args, Poly.one(2), lambda s, t: s * t, lambda s, t: s + t,
                        scale_by) or Poly.zero(2) for a in comps]
    comp = f.compose(PolyMap(2, args)).comps
    assert [parts(v) for v in comp] == [parts(v) for v in unfused]
    # terms that cancel, x0 * x1 - x2 at x2 = x0 * x1, come out over denominator 1
    x0, x1, x2 = (Poly.var(3, i) for i in range(3))
    check((x0 * x1 - x2).eval(args[:2] + [args[0] * args[1]], Poly.one(2)), {})


# one power table per map evaluation ------------------------------------------
#
# PolyMap.eval and PolyMap.compose build each power args[i] ** k once and
# share it across the terms and components of the call.  The maps below draw
# every exponent from one small pool, so components repeat powers of an
# argument and different arguments carry the same exponents.  The reference
# evaluates each component term by term, builds every power by repeated
# multiplication and shares nothing.


@st.composite
def shared_power_maps(draw):
    """(in_dim, [reference component dicts]) with exponents from one pool."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    exps = st.tuples(*[st.sampled_from(pool)] * n)
    comps = [{e: draw(fractions_1_7.filter(bool))
              for e in draw(st.lists(exps, unique=True, min_size=1, max_size=3))}
             for _ in range(draw(st.integers(1, 3)))]
    return n, comps


def unshared_eval(comps, args, one, scale):
    return [ref_eval(a, args, one, lambda s, t: s * t, lambda s, t: s + t, scale)
            for a in comps]


def parts(v):
    """Numerators and denominator; a ring-valued element gives its coefficients' parts."""
    if isinstance(v, Poly):
        return dict(v.numerators), v.denominator
    if isinstance(v, WeilElement):
        if v.denominator is None:
            return {k: parts(c) for k, c in v.coeffs.items()}, None
        return dict(v._num), v.denominator
    assert type(v) is Q
    return v.numerator, v.denominator


def scale_by(c, s):
    return s.scale(Q(c.numerator, c.denominator))


@settings(max_examples=40, deadline=None)
@given(shared_power_maps(), st.sampled_from([d_order(4), d_cube(2)]), st.data())
def test_map_evaluation_with_shared_powers_matches_unshared_reference(fm, obj, data):
    n, comps = fm
    f = PolyMap(n, [poly_of(a, n) for a in comps])

    def same(got, want):
        assert [parts(v) for v in got] == [parts(v) for v in want]

    # rational Weil elements
    alg = make_algebra(obj)
    args = [weil_of(alg, data.draw(weil_refs(alg))) for _ in range(n)]
    same(f.eval(args, alg.one()), unshared_eval(comps, args, alg.one(), scale_by))
    # plain rationals
    args = [Q(v.numerator, v.denominator)
            for v in data.draw(st.lists(fractions_1_7, min_size=n, max_size=n))]
    same(f.eval(args),
         unshared_eval(comps, args, Q(1), lambda c, s: Q(c.numerator, c.denominator) * s))
    # Weil elements with polynomial coefficients
    alg = make_algebra(d_cube(1))
    one = WeilElement(alg, {0: Poly.one(1)})
    args = [WeilElement(alg, {k: poly_of(r, 1) for k, r in enumerate(
        data.draw(st.lists(ref_polys(1, max_exp=1), min_size=2, max_size=2))) if r})
        for _ in range(n)]
    same(f.eval(args, one), unshared_eval(comps, args, one, scale_by))
    # composition: evaluation at the components of a map from R^2
    g = PolyMap(2, [poly_of(data.draw(ref_polys(2, max_exp=1)), 2) for _ in range(n)])
    same(f.compose(g).comps, unshared_eval(comps, g.comps, Poly.one(2), scale_by))


def test_map_evaluation_builds_each_power_once(monkeypatch):
    # x^9 builds x^2, x^4, x^8 and x^9; x^8 * y reads x^8 and x^3 reads x^2
    # from the same table, so the map takes 4 + 1 + 1 + 1 products (y^2 is
    # the last); building each component's powers alone takes 11.  Every
    # product runs the pair-table loop `_mul_into` once: six through
    # `__mul__` (the powers) and one, x^8 times y, fused into the sum
    alg = make_algebra(d_order(4))
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    f = PolyMap(2, [x ** 9, x ** 8 * y, x ** 3 + y ** 2])
    args = [from_dense(alg, [Q(k + 2, 3) for k in range(alg.dim)]),
            from_dense(alg, [Q(-k - 1, 5) for k in range(alg.dim)])]
    want = unshared_eval([ref_of(c) for c in f.comps], args, alg.one(), scale_by)
    mul, mul_into = WeilElement.__mul__, WeilElement._mul_into
    products = Counter()

    def counting_mul(self, other):
        products["mul"] += 1
        return mul(self, other)

    def counting_mul_into(self, acc, f, other):
        products["loop"] += 1
        return mul_into(self, acc, f, other)

    monkeypatch.setattr(WeilElement, "__mul__", counting_mul)
    monkeypatch.setattr(WeilElement, "_mul_into", counting_mul_into)
    got = f.eval(args, alg.one())
    assert products == {"loop": 7, "mul": 6}
    monkeypatch.undo()
    assert [parts(v) for v in got] == [parts(v) for v in want]


@settings(max_examples=60, deadline=None)
@given(ref_polys(), ref_polys(), fractions_1_7.filter(bool))
def test_equal_values_from_different_paths_compare_equal(a, b, c):
    x, y = poly_of(a), poly_of(b)
    q = Q(c.numerator, c.denominator)
    ref = ref_mul(a, b)
    w = x * y
    paths = [
        poly_of(ref),
        Poly.from_terms(N, [(Q(v.numerator, v.denominator), e) for e, v in ref.items()]),
        Poly.from_terms(N, [(Q(v.numerator, 2 * v.denominator), e) for e, v in ref.items()]
                        + [(Q(v.numerator, 2 * v.denominator), e) for e, v in ref.items()]),
        Poly.from_numerators(N, {e: 6 * v for e, v in w.numerators.items()},
                             6 * w.denominator),
        Poly.zero(N) + w,
        (w + x) - x,
        (w + x.scale(q)) - x.scale(q),
        w.scale(q).scale(1 / q),
        w.scale(2).scale(Q(1, 2)),
        -(-w),
        y * x * Poly.one(N),
        w.remap_variables(list(range(N))),
        w.eval([Poly.var(N, i) for i in range(N)], Poly.one(N)),
    ]
    for v in paths:
        assert v == w
        check(v, ref)
    assert (x == y) == (a == b)
    assert poly_of({(1, 0, 0): Fraction(1, 2)}) != poly_of({(1, 0, 0): Fraction(1, 3)})


def test_zero_has_denominator_one():
    x = Poly.from_terms(2, [(Q(1, 3), (1, 0)), (Q(-5, 6), (0, 2))])
    e = (1, 1)
    zeros = [x - x, x.scale(0), x * Poly.zero(2), Poly.zero(2).scale(Q(1, 3)),
             Poly(2, {e: Q(0)}), Poly(2, {}), Poly.const(2, Q(0)),
             Poly.from_terms(2, [(Q(1, 3), e), (Q(-1, 3), e)]),
             Poly.from_numerators(2, {e: 0}, 5), x.partial(0).partial(0),
             (x - x).eval([Q(1, 2), Q(1, 3)]) * Poly.one(2)]
    for z in zeros:
        check(z, {})
        assert z == Poly.zero(2) and not z
    # a zero coefficient is dropped: the polynomial is zero, not truthy
    assert Poly(2, {e: Q(0)}) == Poly.zero(2) and not Poly(2, {e: Q(0)})


def test_terms_and_numerators_are_read_only():
    source = {(1, 0): Q(1, 2), (0, 1): Q(-2, 3)}
    p = Poly(2, source)
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = Q(1)
    with pytest.raises(TypeError):
        del p.terms[(1, 0)]
    with pytest.raises(TypeError):
        p.numerators[(1, 0)] = 7
    # the polynomial does not share the dict it was built from
    source[(1, 0)] = Q(7)
    assert dict(p.terms) == {(1, 0): Q(1, 2), (0, 1): Q(-2, 3)}
    assert dict(p.numerators) == {(1, 0): 3, (0, 1): -4} and p.denominator == 6
    num = {(1, 0): 3}
    q = Poly.from_numerators(2, num, 6)
    num[(1, 0)] = 5
    assert q == Poly(2, {(1, 0): Q(1, 2)})
