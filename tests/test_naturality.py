"""Naturality: every bracket commutes with polynomial changes of coordinates.

The brackets are built from the microlinear structure of R^m alone, which a
polynomial automorphism phi (with polynomial inverse psi) preserves.  So at
every level, pulling back by phi commutes with the bracket:

    pullback(bracket(x, y)) == bracket(pullback(x), pullback(y)).

The pullback of a Dirac-normalized p-form with principal kernel K pushes the
microcube gamma(eps) = sum_S gamma_S eps_S through phi, applies K, and maps
the tangent phi(gamma_()) + eps K(phi o gamma) back through psi.  Its base
stays gamma_(), so the pulled-back form is Dirac-normalized again, with
principal kernel Dpsi(phi(gamma_())) . K(phi o gamma).

Both steps are written here in plain `Poly` arithmetic: the cube
generators are extra variables e_1..e_p, and a term of degree 2 or more in
any e_i is dropped (eps_i^2 = 0).  Nothing here reads how the library
computes a convolution.
"""

import random
from itertools import combinations

import pytest

from fnlab.forms import BRACKETS, Kernel, cube_dim, cube_var, form_from_kernel
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.verify import Sampler


def widen(f: Poly, extra: int) -> Poly:
    """f in `extra` more variables, which it does not use."""
    return Poly.from_terms(f.n + extra, [(c, e + (0,) * extra) for e, c in f.terms.items()])


def coefficient(f: Poly, n: int, exps: tuple) -> Poly:
    """The coefficient of e^exps in f, whose variables n, n+1, .. are the e's."""
    return Poly.from_terms(n, [(c, e[:n]) for e, c in f.terms.items() if e[n:] == exps])


def automorphism(m: int, rng: random.Random):
    """(phi, psi) with psi = phi^-1: a lower-triangular linear map with
    diagonal 2 after the shear x_0 -> x_0 + b, x_i -> x_i + c_i x_0^2."""
    x = [Poly.var(m, j) for j in range(m)]
    r = lambda: Q(rng.randint(-5, 5), rng.randint(1, 3))
    b, c = r(), [r() for _ in range(m)]
    low = [[r() for _ in range(i)] for i in range(m)]
    shear = PolyMap(m, [x[0] + b] + [x[i] + c[i] * x[0] * x[0] for i in range(1, m)])
    unshear = PolyMap(m, [x[0] - b] + [x[i] - c[i] * (x[0] - b) * (x[0] - b)
                                       for i in range(1, m)])
    linear = PolyMap(m, [2 * x[i] + sum((a * x[k] for k, a in enumerate(low[i])), Poly.zero(m))
                         for i in range(m)])
    # forward substitution through the triangle
    solved = []
    for i in range(m):
        rest = sum((a * solved[k] for k, a in enumerate(low[i])), Poly.zero(m))
        solved.append(Q(1, 2) * (x[i] - rest))
    phi, psi = linear.compose(shear), unshear.compose(PolyMap(m, solved))
    assert psi.compose(phi) == PolyMap.identity(m) == phi.compose(psi)
    return phi, psi


def pushed_cube(phi: PolyMap, p: int, m: int) -> PolyMap:
    """gamma -> phi o gamma on the p-cube coefficient space."""
    n = cube_dim(p, m)
    subsets = [s for k in range(p + 1) for s in combinations(range(1, p + 1), k)]
    eps = {s: Poly.one(n + p) for s in subsets}
    for s in subsets:
        for i in s:
            eps[s] = eps[s] * Poly.var(n + p, n + i - 1)
    cube = [sum((Poly.var(n + p, cube_var(p, m, s, j)) * eps[s] for s in subsets),
                Poly.zero(n + p)) for j in range(m)]
    image = phi.eval(cube, Poly.one(n + p))
    slots = [None] * n
    for s in subsets:
        exps = tuple(int(i in s) for i in range(1, p + 1))
        for j in range(m):
            slots[cube_var(p, m, s, j)] = coefficient(image[j], n, exps)
    return PolyMap(n, slots)


def pullback(x, phi: PolyMap, psi: PolyMap):
    """phi^* x: principal kernel Dpsi(phi(gamma_())) . K(phi o gamma)."""
    p, m = x.p, x.m
    n = cube_dim(p, m)
    moved = x.principal().body.compose(pushed_cube(phi, p, m))
    # the tangent phi(gamma_()) + e K(phi o gamma), mapped back through psi
    base = phi.eval([Poly.var(n + 1, j) for j in range(m)], Poly.one(n + 1))
    e = Poly.var(n + 1, n)
    back = psi.eval([b + e * widen(v, 1) for b, v in zip(base, moved.comps)],
                    Poly.one(n + 1))
    assert [coefficient(f, n, (0,)) for f in back] == [Poly.var(n, j) for j in range(m)]
    principal = [coefficient(f, n, (1,)) for f in back]
    return form_from_kernel(Kernel(p, m, PolyMap(n, principal)), x.class_tag)


FORMS = {
    "L1": Sampler.omega1_form,
    "L12": Sampler.multilinear_form,
    "FN13": Sampler.omega13_form,
    "FN123": Sampler.omega123_form,
}

# (p, q, m): every arity pair of total at most 3 on R^1..R^3, so the graded
# levels also run at m >= p + q, where their brackets are not zero by degree
SHAPES = [(p, q, m) for p in range(4) for q in range(4 - p) for m in (1, 2, 3)]


@pytest.mark.parametrize("level", sorted(BRACKETS))
def test_every_bracket_commutes_with_a_change_of_coordinates(level):
    bracket, draw = BRACKETS[level], FORMS[level]
    sampler, rng = Sampler(f"naturality/{level}"), random.Random(f"naturality/{level}")
    nonzero = 0
    for p, q, m in SHAPES:
        x, y = draw(sampler, p, m, 2), draw(sampler, q, m, 2)
        phi, psi = automorphism(m, rng)
        z = bracket(x, y)
        assert pullback(z, phi, psi) == bracket(pullback(x, phi, psi), pullback(y, phi, psi)), \
            (level, p, q, m)
        nonzero += bool(z.principal())
    # 30 cases a level: 29 (L1), 27 (L12), 20 (FN13) and 14 (FN123) nonzero
    assert nonzero >= 10
