import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from fnlab import forms
from fnlab.errors import PreconditionError, ValidationError
from fnlab.forms import (FormElem, Kernel, OMEGA1, OMEGA12, OMEGA123,
                         Permutation, antisymmetrize, antisymmetrize_scaled,
                         bracket_fn13, bracket_fn123, bracket_l1, bracket_l12,
                         conv_over, conv_under, cube_dim, cube_var,
                         form_from_kernel, identity_one_form, is_omega1,
                         is_omega12, is_omega13, is_omega123, perm_act,
                         perm_kernel, pi_kernel, prod_over, prod_under,
                         shuffle_sigma, subset_position, transpose_views,
                         vector_field_form, verify_class, zero_kernel)
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import d_cube
from fnlab.weil import make_algebra

RNG = random.Random(41)


def rpoly(n, deg=2, terms=3):
    pairs = []
    for _ in range(terms):
        e = [0] * n
        for _ in range(RNG.randint(0, deg)):
            e[RNG.randrange(n)] += 1
        pairs.append((Q(RNG.randint(-9, 9), RNG.choice([1, 2, 3])), tuple(e)))
    return Poly.from_terms(n, pairs)


def rkernel(p, m, deg=2, terms=3):
    n = cube_dim(p, m)
    return Kernel(p, m, PolyMap(n, [rpoly(n, deg, terms) for _ in range(m)]))


def rform(p, m, deg=2):
    return form_from_kernel(rkernel(p, m, deg))


def axis_var(p, m, subset, j=0):
    n = cube_dim(p, m)
    return Poly.var(n, cube_var(p, m, subset, j))


# --- predicates -------------------------------------------------------------


def test_dirac_condition():
    x = rform(1, 1)
    assert is_omega1(x)
    doubled = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1).scale(Q(2)),
                                 frozenset({1}): rkernel(1, 1)})
    assert not is_omega1(doubled)
    vf = vector_field_form(PolyMap(1, [Poly.var(1, 0)]))
    assert is_omega1(vf)


def test_multilinearity_predicate():
    ident = identity_one_form(1)
    assert is_omega12(ident)
    sq = form_from_kernel(Kernel(1, 1, PolyMap(2, [axis_var(1, 1, {1}) ** 2])))
    assert not is_omega12(sq)
    corner = form_from_kernel(Kernel(2, 1, PolyMap(4, [axis_var(2, 1, {1, 2})])))
    assert is_omega12(corner)


def test_alternation_predicate():
    any1 = rform(1, 1)
    assert is_omega13(any1)
    n = cube_dim(2, 1)
    alt = form_from_kernel(Kernel(2, 1, PolyMap(
        n, [axis_var(2, 1, {1}) - axis_var(2, 1, {2})])))
    assert is_omega13(alt)
    one_sided = form_from_kernel(Kernel(2, 1, PolyMap(n, [axis_var(2, 1, {1})])))
    assert not is_omega13(one_sided)


def test_class_tags_and_predicate_stack():
    ident = identity_one_form(2)
    assert verify_class(ident)  # claims omega123
    assert is_omega123(ident)
    with pytest.raises(ValidationError):
        FormElem(1, 1, 1, {}, class_tag="omega9000")


def test_transpose_views_round_trip():
    x = rform(1, 2)
    t = transpose_views(x)
    assert t.view != x.view
    assert transpose_views(t) == x and transpose_views(t).view == x.view
    assert t == x  # coefficient data is identical


def test_form_coeffs_are_read_only():
    x = rform(2, 2)
    subset = next(iter(x.coeffs))
    with pytest.raises(TypeError):
        x.coeffs[subset] = x.coeffs[subset]
    with pytest.raises(TypeError):
        x.coeffs[frozenset({1, 2})] = zero_kernel(2, x.m)
    with pytest.raises(TypeError):
        del x.coeffs[subset]
    # the forms built from another's coefficients equal it, kernel by kernel
    for y in (x.with_tag(OMEGA12), transpose_views(x),
              perm_act(x, Permutation.identity(2))):
        assert y == x and dict(y.coeffs) == dict(x.coeffs)
    # the view is of the form's own copy: changing the dict it came from
    # changes nothing
    source = {frozenset({1}): rkernel(1, 1)}
    y = FormElem(1, 1, 1, source)
    source[frozenset()] = rkernel(1, 1)
    assert set(y.coeffs) == {frozenset({1})}


# --- permutations -----------------------------------------------------------


def test_shuffle_examples():
    assert shuffle_sigma(1, 1).images == (2, 1)
    assert shuffle_sigma(1, 1).sign == -1
    assert shuffle_sigma(2, 1).images == (2, 3, 1)
    assert shuffle_sigma(2, 1).sign == 1
    assert shuffle_sigma(3, 0) == Permutation.identity(3)


def test_perm_act_examples():
    x = form_from_kernel(Kernel(1, 1, PolyMap(2, [axis_var(1, 1, {1})])))
    assert perm_act(x, Permutation.identity(1)) == x
    two = form_from_kernel(Kernel(2, 1, PolyMap(4, [axis_var(2, 1, {1})])))
    swapped = perm_act(two, Permutation((2, 1)))
    assert swapped.principal().body.comps[0] == axis_var(2, 1, {2})
    assert perm_act(swapped, Permutation((2, 1))) == two


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(1, 4)), st.permutations(range(1, 4)))
def test_perm_action_composition_law(s_img, t_img):
    sigma, tau = Permutation(s_img), Permutation(t_img)
    k = rkernel(3, 1, deg=2, terms=2)
    lhs = perm_kernel(perm_kernel(k, sigma), tau)
    assert lhs == perm_kernel(k, tau.after(sigma))


def test_permutation_sign_and_inverse():
    sigma = Permutation((2, 3, 1))
    assert sigma.sign == 1
    assert sigma.after(sigma.inverse()) == Permutation.identity(3)
    assert Permutation((2, 1, 3)).sign == -1
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))


def test_cube_slots_reject_out_of_range_subsets_and_coordinates():
    assert subset_position(2, {1, 2}) == 3
    assert cube_var(2, 2, {2}, 1) == 5
    with pytest.raises(ValidationError):
        cube_var(2, 1, {2, 5}, 0)
    with pytest.raises(ValidationError):
        subset_position(2, {3})
    with pytest.raises(ValidationError):
        subset_position(0, {1})
    with pytest.raises(ValidationError):
        cube_var(2, 1, {1}, 1)
    with pytest.raises(ValidationError):
        cube_var(2, 2, (), -1)


# --- naive references: one scaled kernel per permutation ---------------------


def naive_perm_kernel(k, sigma):
    """Substitute gamma_S -> gamma_sigma(S) by evaluating each component."""
    alg = make_algebra(d_cube(k.p))
    slot = {frozenset(i + 1 for i, e in enumerate(exps) if e): pos
            for pos, exps in enumerate(alg.basis)}
    n = cube_dim(k.p, k.m)
    args = [None] * n
    for subset, pos in slot.items():
        tgt = slot[frozenset(sigma(i) for i in subset)]
        for j in range(k.m):
            args[pos * k.m + j] = Poly.var(n, tgt * k.m + j)
    return Kernel(k.p, k.m, PolyMap(n, [c.eval(args, Poly.one(n)) for c in k.body.comps]))


def naive_antisymmetrize(x, factor=Q(1)):
    ker = x.principal()
    total = None
    for sigma in Permutation.all(x.p):
        term = naive_perm_kernel(ker, sigma).scale(Q(sigma.sign))
        total = term if total is None else total + term
    return FormElem(x.p, 1, x.m, {frozenset(): x.coeff(()),
                                  frozenset({1}): total.scale(factor)},
                    x.class_tag, x.view)


def naive_is_omega13(x):
    if not is_omega1(x):
        return False
    ker = x.principal()
    if x.p <= 3:
        sigmas = Permutation.all(x.p)
    else:
        sigmas = [Permutation([*range(1, i), i + 1, i, *range(i + 2, x.p + 1)])
                  for i in range(1, x.p)]
    return all(naive_perm_kernel(ker, s) == ker.scale(Q(s.sign)) for s in sigmas)


def assert_same_form(a, b):
    assert a == b
    assert (a.class_tag, a.view) == (b.class_tag, b.view)
    assert {s: k.body for s, k in a.coeffs.items()} == \
        {s: k.body for s, k in b.coeffs.items()}


def test_permutation_machinery_matches_naive_reference():
    rng = random.Random(2024)
    for p in range(5):
        for m in (1, 2):
            n = cube_dim(p, m)
            sigmas = Permutation.all(p)
            for _ in range(2):
                ker = Kernel(p, m, PolyMap(n, [
                    Poly.from_terms(n, [
                        (Q(rng.randint(-5, 5), rng.randint(1, 7)),
                         [int(rng.random() < 0.3) for _ in range(n)]) for _ in range(3)])
                    for _ in range(m)]))
                for sigma in rng.sample(sigmas, min(len(sigmas), 6)):
                    assert perm_kernel(ker, sigma) == naive_perm_kernel(ker, sigma)
                x = form_from_kernel(ker)
                assert_same_form(antisymmetrize(x), naive_antisymmetrize(x))
                for factor in (Q(-3, 4), Q(6), Q(10, 9)):
                    assert_same_form(antisymmetrize(x, factor),
                                     naive_antisymmetrize(x, factor))
                for parts in ((p, 0), (1, p - 1) if p else (0, 0)):
                    denom = factorial(parts[0]) * factorial(parts[1])
                    assert_same_form(antisymmetrize_scaled(x, parts),
                                     naive_antisymmetrize(x, Q(1, denom)))
                alt = antisymmetrize(x)
                for y in (x, alt, transpose_views(alt), alt.with_tag(OMEGA12)):
                    assert is_omega13(y) == naive_is_omega13(y)
                assert is_omega13(alt)


def test_alternation_kept_under_exactly_one_transposition():
    """Kernels alternating under one transposition of three axes only.

    Alternation under both (1 2) and (2 3) forces it under (1 3) =
    (1 2)(2 3)(1 2), so no kernel breaks it under the non-adjacent
    transposition alone; the nearest case keeps it under (1 3) alone, or
    under (1 2) alone while breaking it under (1 3).
    """
    n = cube_dim(3, 1)
    for i, j in ((1, 2), (2, 3), (1, 3)):
        k = 6 - i - j
        body = (axis_var(3, 1, {i}) - axis_var(3, 1, {j})) * axis_var(3, 1, {k})
        x = form_from_kernel(Kernel(3, 1, PolyMap(n, [body])))
        tau = Permutation([j if a == i else i if a == j else a for a in (1, 2, 3)])
        assert perm_kernel(x.principal(), tau) == -x.principal()
        assert not is_omega13(x) and not naive_is_omega13(x)
        assert is_omega13(antisymmetrize(x))
    symmetric = form_from_kernel(Kernel(3, 1, PolyMap(n, [
        axis_var(3, 1, {1}) + axis_var(3, 1, {2}) + axis_var(3, 1, {3})])))
    assert not is_omega13(symmetric) and not naive_is_omega13(symmetric)
    assert not antisymmetrize(symmetric).principal()


# --- convolution ------------------------------------------------------------


def test_arity_zero_reductions():
    f = Kernel(0, 1, PolyMap(1, [Poly.var(1, 0) ** 2]))
    g = Kernel(0, 1, PolyMap(1, [Poly.var(1, 0) + Poly.one(1)]))
    assert conv_under(f, g).body == f.body.compose(g.body)
    assert conv_over(f, g).body == g.body.compose(f.body)


def test_conv_unit_behavior():
    f = rkernel(1, 1)
    ident = Kernel(0, 1, PolyMap.identity(1))
    assert conv_under(f, ident) == f
    assert conv_over(f, ident) == f


def test_shuffle_relation_random():
    for p, q in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]:
        f, g = rkernel(p, 1, terms=2), rkernel(q, 1, terms=2)
        assert perm_kernel(conv_under(f, g), shuffle_sigma(p, q)) == conv_over(g, f)


def test_conv_projection_side_independence():
    for p, q in [(1, 1), (2, 1), (0, 2)]:
        g = rkernel(q, 1, terms=2)
        assert conv_under(pi_kernel(p, 1), g) == conv_over(pi_kernel(p, 1), g)
        f = rkernel(p, 1, terms=2)
        assert conv_under(f, pi_kernel(q, 1)) == conv_over(f, pi_kernel(q, 1))


def test_conv_associativity_random():
    for _ in range(5):
        p, q, r = (RNG.randint(0, 1) for _ in range(3))
        f, g, h = rkernel(p, 1, terms=2), rkernel(q, 1, terms=2), rkernel(r, 1, terms=2)
        assert conv_under(conv_under(f, g), h) == conv_under(f, conv_under(g, h))
        assert conv_over(conv_over(f, g), h) == conv_over(f, conv_over(g, h))


def test_conv_and_prod_do_not_depend_on_the_layout_cache():
    # shapes that share arities but differ in axes, roles or expansion count
    kernels = [rkernel(p, m, terms=2) for p, m in ((0, 1), (1, 1), (2, 1), (1, 2), (0, 2))]
    form_list = [rform(p, m) for p, m in ((0, 1), (1, 1), (2, 1), (1, 2), (0, 2))]
    calls = [(fn, a, b) for fn in (conv_under, conv_over) for a in kernels for b in kernels
             if a.m == b.m]
    calls += [(fn, a, b) for fn in (prod_under, prod_over) for a in form_list
              for b in form_list if a.m == b.m]
    cold = []
    for fn, a, b in calls:
        forms._conv_layout.cache_clear()
        cold.append(fn(a, b))
    forms._conv_layout.cache_clear()
    assert [fn(a, b) for fn, a, b in calls] == cold
    forms._conv_layout.cache_clear()
    assert [fn(a, b) for fn, a, b in calls[::-1]] == cold[::-1]


def test_cached_conv_layout_is_read_only():
    layout = forms._conv_layout((1,), (2,), 2, 1, 2)
    assert forms._conv_layout((1,), (2,), 2, 1, 2) is layout
    with pytest.raises(AttributeError):
        layout.args = ()
    for container, key in ((layout.args, 0), (layout.split, 0),
                           (layout.inner_pos, frozenset()), (layout.ext_pos, frozenset()),
                           (layout.ext_subsets, 0)):
        with pytest.raises(TypeError):
            container[key] = None


@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
def test_conv_with_a_zero_kernel(p, q):
    """A zero outer kernel gives zero; a zero inner one, the outer constant term."""
    for m in (1, 2):
        f = rkernel(p, m)
        n = cube_dim(p, m)
        f = Kernel(p, m, PolyMap(n, [c + Q(j + 1, 3) for j, c in enumerate(f.body.comps)]))
        g = rkernel(q, m)
        zero_f, zero_g = forms.zero_kernel(p, m), forms.zero_kernel(q, m)
        total = cube_dim(p + q, m)
        const = Kernel(p + q, m, PolyMap(total, [Poly.const(total, c.constant_term())
                                                 for c in f.body.comps]))
        assert conv_under(f, zero_g) == const == conv_over(zero_g, f)
        assert conv_under(zero_f, g) == forms.zero_kernel(p + q, m) == conv_over(g, zero_f)


def test_conv_dimension_mismatch():
    with pytest.raises(ValidationError):
        conv_under(rkernel(1, 1), rkernel(1, 2))


# --- expanded products ------------------------------------------------------


def test_prod_vector_field_corner():
    x = PolyMap(1, [rpoly(1)])
    y = PolyMap(1, [rpoly(1)])
    a = prod_under(vector_field_form(x), vector_field_form(y))
    corner = a.coeff({1, 2}).body.comps[0]
    expected = x.comps[0].partial(0) * y.comps[0]
    assert corner == expected
    b = prod_over(vector_field_form(x), vector_field_form(y))
    assert b.coeff({1, 2}).body.comps[0] == y.comps[0].partial(0) * x.comps[0]


def test_prod_zero_principals():
    x = FormElem(0, 1, 1, {frozenset(): pi_kernel(0, 1)}, OMEGA1)
    out = prod_under(x, x)
    assert set(out.coeffs) == {frozenset()}
    assert out.coeff(()) == pi_kernel(0, 1)


def test_prod_low_order_agreement():
    for p, q in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        x, y = rform(p, 1), rform(q, 1)
        a, b = prod_under(x, y), prod_over(x, y)
        for subset in [(), (1,), (2,)]:
            assert a.coeff(subset) == b.coeff(subset)


def test_prod_associative_instance():
    forms = [rform(RNG.randint(0, 1), 1) for _ in range(3)]
    x, y, z = forms
    assert prod_under(prod_under(x, y), z) == prod_under(x, prod_under(y, z))
    assert prod_over(prod_over(x, y), z) == prod_over(x, prod_over(y, z))


# --- antisymmetrizers -------------------------------------------------------


def test_antisymmetrize_symmetric_kernel_dies():
    n = cube_dim(2, 1)
    sym = form_from_kernel(Kernel(2, 1, PolyMap(
        n, [axis_var(2, 1, {1}) + axis_var(2, 1, {2})])))
    assert not antisymmetrize(sym).principal()


def test_antisymmetrize_two_term_sum():
    x = form_from_kernel(Kernel(2, 1, PolyMap(cube_dim(2, 1), [axis_var(2, 1, {1})])))
    out = antisymmetrize(x)
    assert out.principal().body.comps[0] == \
        axis_var(2, 1, {1}) - axis_var(2, 1, {2})
    assert is_omega13(out)


def test_antisymmetrize_arity_one_is_identity():
    x = rform(1, 1)
    assert antisymmetrize(x) == x
    assert antisymmetrize_scaled(x, (1, 0)) == x


def test_antisymmetrizer_perm_equivariance():
    x = rform(2, 1)
    ax = antisymmetrize(x)
    for sigma in Permutation.all(2):
        expected = FormElem(2, 1, 1, {
            frozenset(): ax.coeff(()),
            frozenset({1}): ax.principal().scale(Q(sigma.sign))})
        assert antisymmetrize(perm_act(x, sigma)) == expected
        assert perm_act(ax, sigma) == expected


# The antisymmetrizer sums once per orbit of monomials under the axis
# permutations; these compare it with the full S_p sum of naive_antisymmetrize.


def monomial_images(p, m, e):
    """The exponent tuples g_sigma(e) of one monomial, one per permutation."""
    n = cube_dim(p, m)
    ker = Kernel(p, m, PolyMap(n, [Poly(n, {e: Q(1)})] * m))
    return [next(iter(naive_perm_kernel(ker, s).body.comps[0].numerators))
            for s in Permutation.all(p)]


def orbit_kernel(rng, p, m, terms=3):
    """A kernel whose support meets some orbits more than once.

    Exponents up to 3 and denominators up to 7; some monomials come with a
    random image, some with every image at one coefficient (a symmetric
    orbit, whose sum cancels).
    """
    n = cube_dim(p, m)
    comps = []
    for _ in range(m):
        pairs = []
        for _ in range(terms):
            e = tuple(rng.choice((0, 0, 0, 1, 2, 3)) if rng.random() < 3 / n else 0
                      for _ in range(n))
            c = Q(rng.randint(-9, 9), rng.randint(1, 7))
            pairs.append((c, e))
            shape = rng.random()
            if shape < 0.4:
                pairs.append((Q(rng.randint(-9, 9), rng.randint(1, 7)),
                              rng.choice(monomial_images(p, m, e))))
            elif shape < 0.6:
                pairs += [(c, g) for g in set(monomial_images(p, m, e))]
        comps.append(Poly.from_terms(n, pairs))
    return Kernel(p, m, PolyMap(n, comps))


def assert_matches_full_sum(x, factors=(Q(-3, 4), Q(6), Q(10, 9))):
    full = naive_antisymmetrize(x)
    assert_same_form(antisymmetrize(x), full)
    for factor in factors:
        scaled = FormElem(x.p, 1, x.m, {frozenset(): x.coeff(()),
                                        frozenset({1}): full.principal().scale(factor)},
                          x.class_tag, x.view)
        assert_same_form(antisymmetrize(x, factor), scaled)


@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_orbit_sum_matches_full_sum(p, m):
    rng = random.Random(f"orbit-{p}-{m}")
    for _ in range(3 if p < 5 else 1):
        x = form_from_kernel(orbit_kernel(rng, p, m, terms=3 if p < 5 else 2))
        assert_matches_full_sum(x)
        assert_matches_full_sum(transpose_views(x.with_tag(OMEGA12)), (Q(1, 7),))


def test_orbit_fixed_by_an_odd_permutation_vanishes():
    # gamma_1 * gamma_2 is fixed by (1 2); gamma_12 * gamma_3 by (1 2) of three
    # axes.  At p = 3 a monomial fixed by the 3-cycle takes the same exponent
    # on every subset of one size, so the whole of S_3 fixes it.
    for p, m, subsets in ((2, 1, ({1}, {2})), (2, 2, ({1}, {2})),
                          (3, 1, ({1, 2}, {3})), (3, 1, ({1}, {2}, {3})),
                          (3, 2, ({1}, {2}, {3}, {1, 2}, {2, 3}, {1, 3}))):
        n = cube_dim(p, m)
        fixed = Poly.one(n)
        for subset in subsets:
            fixed = fixed * axis_var(p, m, subset)
        e = next(iter(fixed.numerators))
        assert any(g == e for g, s in zip(monomial_images(p, m, e), Permutation.all(p))
                   if s.sign == -1)
        other = axis_var(p, m, {1}) * axis_var(p, m, (), m - 1) ** 3
        x = form_from_kernel(Kernel(p, m, PolyMap(n, [
            fixed.scale(Q(5, 3)) + other.scale(Q(2, 7))] * m)))
        assert_matches_full_sum(x)
        out = antisymmetrize(x, Q(5)).principal().body.comps[0].numerators
        assert not set(monomial_images(p, m, e)) & set(out)


def test_orbit_fixed_only_by_even_permutations():
    """gamma_13 gamma_24 gamma_12^2 gamma_34^2: its stabilizer is the Klein group.

    A permutation fixing it keeps both pairings {13, 24} and {12, 34}, and
    only the double transpositions do; so the sum at the monomial is 4 times
    its coefficient, and the orbit has 6 monomials.
    """
    p = 4
    for m in (1, 2):
        n = cube_dim(p, m)
        f = (axis_var(p, m, {1, 3}) * axis_var(p, m, {2, 4})
             * axis_var(p, m, {1, 2}) ** 2 * axis_var(p, m, {3, 4}) ** 2)
        e = next(iter(f.numerators))
        images = monomial_images(p, m, e)
        stabilizer = [s for g, s in zip(images, Permutation.all(p)) if g == e]
        assert sorted(s.images for s in stabilizer) == [
            (1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
        assert len(set(images)) == 6
        x = form_from_kernel(Kernel(p, m, PolyMap(n, [f.scale(Q(3, 7))] * m)))
        assert_matches_full_sum(x)
        comp = antisymmetrize(x, Q(-5, 2)).principal().body.comps[0]
        assert comp.terms[e] == Q(3, 7) * 4 * Q(-5, 2)
        assert len(comp.numerators) == 6


def alternating_form(rng, p, m, multilinear):
    """An alternating input of FN13, or of FN123 when multilinear.

    Each term has a slot on every single axis, so that no transposition fixes
    it and the alternating sum keeps it.  A multilinear term takes axis i at
    coordinate j_i, the j_i distinct, for the same reason.
    """
    n = cube_dim(p, m)
    comps = []
    for _ in range(m):
        pairs = []
        for _ in range(3):
            e = [0] * n
            if multilinear:
                for i, j in enumerate(rng.sample(range(m), p), 1):
                    e[cube_var(p, m, {i}, j)] += 1
            else:
                for i in range(1, p + 1):
                    e[cube_var(p, m, {i}, rng.randrange(m))] += rng.randint(1, 2)
                e[rng.randrange(n)] += 1
            e[cube_var(p, m, (), rng.randrange(m))] += rng.randint(0, 2)
            pairs.append((Q(rng.randint(-9, 9), rng.randint(1, 7)), e))
        comps.append(Poly.from_terms(n, pairs))
    tag = OMEGA123 if multilinear else "omega13"
    return antisymmetrize(form_from_kernel(Kernel(p, m, PolyMap(n, comps)))).with_tag(tag)


@pytest.mark.parametrize("multilinear, p, q, m", [
    (False, 0, 2, 2), (False, 1, 1, 2), (False, 2, 1, 2), (False, 1, 2, 2),
    (False, 2, 2, 2), (False, 3, 1, 2),
    # alternating multilinear forms of arity above m vanish
    (True, 0, 2, 2), (True, 1, 1, 2), (True, 2, 1, 3), (True, 1, 2, 3),
    (True, 2, 2, 4), (True, 3, 1, 4)])
def test_orbit_sum_on_raw_bracket_kernels(multilinear, p, q, m):
    """The kernels that `_bracket_core` hands to FN13 and FN123.

    They alternate within x's axes and within y's axes, so each orbit meets
    the support in up to C(p+q, p) shuffled copies.
    """
    rng = random.Random(f"raw-{multilinear}-{p}-{q}-{m}")
    bracket = bracket_fn123 if multilinear else bracket_fn13
    x, y = alternating_form(rng, p, m, multilinear), alternating_form(rng, q, m, multilinear)
    raw = forms._bracket_core(x, y)
    full = naive_antisymmetrize(raw, Q(1, factorial(p) * factorial(q)))
    assert_same_form(antisymmetrize_scaled(raw, (p, q)), full)
    assert bracket(x, y).principal() == full.principal()
    assert x.principal() and y.principal() and full.principal()


def test_orbit_sum_builds_no_permuted_kernel(monkeypatch):
    """Each orbit meeting the support costs p! gathers, and nothing else.

    `_alternating` still checks alternation through `perm_kernel`.
    """
    calls = {"perm_kernel": 0, "remap": 0, "gather": 0}
    perm_kernel_real, remap_real = forms.perm_kernel, Poly.remap_variables
    table_real = forms._perm_table

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counting_table(p, m):
        t = table_real(p, m)
        return t._replace(even=tuple(counting("gather", g) for g in t.even),
                          odd=tuple(counting("gather", g) for g in t.odd))

    monkeypatch.setattr(forms, "perm_kernel", counting("perm_kernel", perm_kernel_real))
    monkeypatch.setattr(Poly, "remap_variables", counting("remap", remap_real))
    monkeypatch.setattr(forms, "_perm_table", counting_table)

    rng = random.Random(77)
    for p, m in ((0, 2), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        n = cube_dim(p, m)
        ker = orbit_kernel(rng, p, m)
        sym = sum((axis_var(p, m, {i}) for i in range(1, p + 1)), Poly.zero(n))
        ker = Kernel(p, m, PolyMap(n, [c + sym for c in ker.body.comps]))
        orbits = sum(len({frozenset(monomial_images(p, m, e)) for e in comp.numerators})
                     for comp in ker.body.comps)
        x = form_from_kernel(ker)
        for key in calls:
            calls[key] = 0
        ax = antisymmetrize(x, Q(2, 3))
        assert calls == {"perm_kernel": 0, "remap": 0,
                         "gather": factorial(p) * orbits}, (p, m)
        assert is_omega13(ax)
        checks = max(p - 1, 0)
        assert calls["perm_kernel"] == checks == calls["remap"] / m
        assert calls["gather"] == factorial(p) * orbits


@pytest.mark.parametrize("p", [2, 3, 4])
def test_alternation_needs_every_adjacent_transposition(p):
    """A kernel negated by every adjacent transposition but one is rejected.

    Summing a monomial with a free orbit over the Young subgroup S_i x S_(p-i)
    with signs gives a kernel that each transposition (j, j+1), j != i,
    negates and that (i, i+1) does not.
    """
    n = cube_dim(p, 1)
    f = Poly.one(n)
    for j in range(1, p + 1):
        f = f * axis_var(p, 1, {j}) ** j
    ker = Kernel(p, 1, PolyMap(n, [f]))
    for i in range(1, p):
        young = [s for s in Permutation.all(p)
                 if all((s(j) <= i) == (j <= i) for j in range(1, p + 1))]
        total = Kernel(p, 1, PolyMap.zero(n, 1))
        for s in young:
            total = total + naive_perm_kernel(ker, s).scale(s.sign)
        assert not forms._alternating(form_from_kernel(total)), (p, i)
    assert forms._alternating(antisymmetrize(form_from_kernel(ker)))


# --- brackets ---------------------------------------------------------------


def jacobian_bracket(x: PolyMap, y: PolyMap) -> PolyMap:
    """Classical coordinate commutator, used only as an oracle."""
    m = x.in_dim
    comps = []
    for i in range(m):
        acc = Poly.zero(m)
        for j in range(m):
            acc = acc + y.comps[i].partial(j) * x.comps[j] \
                - x.comps[i].partial(j) * y.comps[j]
        comps.append(acc)
    return PolyMap(m, comps)


def test_bracket_basic_example():
    x = vector_field_form(PolyMap(1, [Poly.var(1, 0)]))
    y = vector_field_form(PolyMap(1, [Poly.one(1)]))
    out = bracket_l1(x, y)
    assert out.principal().body == PolyMap(1, [Poly.one(1)])


def test_bracket_matches_negated_commutator():
    for _ in range(5):
        m = RNG.randint(1, 2)
        x = PolyMap(m, [rpoly(m) for _ in range(m)])
        y = PolyMap(m, [rpoly(m) for _ in range(m)])
        got = bracket_l1(vector_field_form(x), vector_field_form(y)).principal().body
        assert got == jacobian_bracket(x, y).scale(Q(-1))


def test_bracket_self_vanishes_arity_zero():
    x = vector_field_form(PolyMap(1, [rpoly(1)]))
    assert not bracket_l1(x, x).principal()


def test_bracket_zero_input():
    x = rform(1, 1)
    zero = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1)}, OMEGA1)
    assert not bracket_l1(x, zero).principal()
    assert not bracket_l1(zero, x).principal()


def test_bracket_antisymmetry_shuffled():
    for p, q in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
        x, y = rform(p, 1), rform(q, 1)
        total = bracket_l1(x, y).principal() + \
            perm_kernel(bracket_l1(y, x).principal(), shuffle_sigma(q, p))
        assert not total


def test_bracket_jacobi_small():
    for combo in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)]:
        p, q, r = combo
        x, y, z = rform(p, 1), rform(q, 1), rform(r, 1)
        total = bracket_l1(x, bracket_l1(y, z)).principal() \
            + perm_kernel(bracket_l1(y, bracket_l1(z, x)).principal(),
                          shuffle_sigma(q + r, p)) \
            + perm_kernel(bracket_l1(z, bracket_l1(x, y)).principal(),
                          shuffle_sigma(r, p + q))
        assert not total, combo


def test_bracket_requires_dirac():
    bad = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1).scale(Q(2)),
                             frozenset({1}): rkernel(1, 1)})
    with pytest.raises(PreconditionError):
        bracket_l1(bad, rform(1, 1))


def test_multilinear_bracket_closure():
    ident = identity_one_form(1)
    out = bracket_l12(ident, ident)
    assert is_omega12(out) and out.class_tag == OMEGA12
    x = vector_field_form(PolyMap(1, [rpoly(1)]))
    out2 = bracket_l12(x, ident)
    assert is_omega12(out2)
    zero = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1)}, OMEGA12)
    assert not bracket_l12(zero, zero).principal()
    with pytest.raises(PreconditionError):
        bracket_l12(form_from_kernel(
            Kernel(1, 1, PolyMap(2, [axis_var(1, 1, {1}) ** 2]))), ident)


def test_graded_bracket_reduces_at_arity_zero():
    x = vector_field_form(PolyMap(2, [rpoly(2), rpoly(2)]))
    y = vector_field_form(PolyMap(2, [rpoly(2), rpoly(2)]))
    l1 = bracket_l1(x, y)
    assert bracket_fn13(x, y) == l1
    assert bracket_fn123(x, y) == l1
    assert bracket_l12(x, y) == l1


def test_graded_bracket_identity_form_on_line():
    ident = identity_one_form(1)
    out = bracket_fn123(ident, ident)
    assert not out.principal()
    assert out.class_tag == OMEGA123


def lie_derivative_matrix(x: PolyMap, kmat):
    m = x.in_dim
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for l in range(m):
            acc = Poly.zero(m)
            for k in range(m):
                acc = acc + x.comps[k] * kmat[i][l].partial(k) \
                    - kmat[k][l] * x.comps[i].partial(k) \
                    + kmat[i][k] * x.comps[k].partial(l)
            out[i][l] = acc
    return out


def matrix_one_form(kmat, m):
    n = cube_dim(1, m)
    comps = []
    for i in range(m):
        acc = Poly.zero(n)
        for l in range(m):
            lifted = kmat[i][l].remap_variables(list(range(m)), n)
            acc = acc + lifted * Poly.var(n, cube_var(1, m, {1}, l))
        comps.append(acc)
    return form_from_kernel(Kernel(1, m, PolyMap(n, comps)), class_tag=OMEGA123)


def test_mixed_bracket_is_negated_lie_derivative():
    m = 2
    x = PolyMap(m, [rpoly(m), rpoly(m)])
    kmat = [[rpoly(m) for _ in range(m)] for _ in range(m)]
    kform = matrix_one_form(kmat, m)
    assert is_omega123(kform)
    out = bracket_fn123(vector_field_form(x), kform)
    assert out.p == 1 and is_omega123(out)
    expected = matrix_one_form(
        [[c.scale(Q(-1)) for c in row] for row in lie_derivative_matrix(x, kmat)], m)
    assert out.principal() == expected.principal()


def test_graded_antisymmetry_instance():
    x = antisymmetrize(rform(1, 2)).with_tag("omega13")
    y = antisymmetrize(rform(1, 2)).with_tag("omega13")
    total = bracket_fn13(x, y).principal() + \
        bracket_fn13(y, x).principal().scale(Q(-1))
    assert not total


def test_zero_principal_fn_bracket():
    zero = FormElem(1, 1, 1, {frozenset(): pi_kernel(1, 1)}, OMEGA123)
    x = antisymmetrize(rform(1, 1))
    assert not bracket_fn13(zero, x).principal()


def _constant_direction(m, a):
    return [Poly.const(m, Q(1) if i == a else Q(0)) for i in range(m)]


def _classical_lie(u, v, m):
    out = []
    for i in range(m):
        acc = Poly.zero(m)
        for j in range(m):
            acc = acc + v[i].partial(j) * u[j] - u[i].partial(j) * v[j]
        out.append(acc)
    return out


def _apply_matrix(kmat, vec, m):
    return [sum((kmat[i][l] * vec[l] for l in range(m)), Poly.zero(m))
            for i in range(m)]


def torsion_tensor(kmat, m):
    """N_K(u,v) = [Ku,Kv] - K[Ku,v] - K[u,Kv] + K^2[u,v] on basis directions.

    Constant directions make the final term vanish; the tensor is determined
    by its values there.  Independent of the bracket machinery: only matrix
    algebra and formal partials.
    """
    torsion = {}
    for a in range(m):
        for b in range(m):
            u, v = _constant_direction(m, a), _constant_direction(m, b)
            ku, kv = _apply_matrix(kmat, u, m), _apply_matrix(kmat, v, m)
            first = _classical_lie(ku, kv, m)
            second = _apply_matrix(kmat, _classical_lie(ku, v, m), m)
            third = _apply_matrix(kmat, _classical_lie(u, kv, m), m)
            torsion[(a, b)] = [first[i] - second[i] - third[i] for i in range(m)]
    return torsion


def _eval_two_form_on_basis(ker, m, a, b):
    n = cube_dim(2, m)
    subs = [Poly.zero(m)] * n
    for j in range(m):
        subs[cube_var(2, m, (), j)] = Poly.var(m, j)
        subs[cube_var(2, m, {1}, j)] = Poly.const(m, Q(1) if j == a else Q(0))
        subs[cube_var(2, m, {2}, j)] = Poly.const(m, Q(1) if j == b else Q(0))
    return [c.eval(subs, Poly.one(m)) for c in ker.body.comps]


def test_self_bracket_is_negated_double_torsion():
    m = 2
    kmat = [[rpoly(m) for _ in range(m)] for _ in range(m)]
    kform = matrix_one_form(kmat, m)
    out = bracket_fn123(kform, kform)
    torsion = torsion_tensor(kmat, m)
    for a in range(m):
        for b in range(m):
            got = _eval_two_form_on_basis(out.principal(), m, a, b)
            assert got == [p.scale(Q(-2)) for p in torsion[(a, b)]], (a, b)
