"""The FN123 bracket against the classical Frölicher–Nijenhuis formula.

A principal kernel that is multilinear and alternating has no monomial with
a gamma_S for |S| >= 2: a transposition inside S fixes the monomial, so its
coefficient is its own negative.  So an omega123 form is a classical
vector-valued form, K(X_1, ..., X_k) being its principal kernel at
gamma_() = x, gamma_{a} = X_a and every other slot 0.

The oracle is the classical three-term formula for [K, L] (Kolář, Michor &
Slovák, Natural Operations in Differential Geometry, 1993, §8; Frölicher &
Nijenhuis, Indag. Math. 18, 1956), evaluated on constant fields X_a whose
components are free variables.  The X's commute, so the terms with brackets
of two X's vanish.  It is checked on its own against two special cases, the
Lie derivative (k = 0) and twice the Nijenhuis torsion ((1, 1) at K = L),
and `bracket_fn123` is -1 times it, the sign the vector-field commutator
suite finds too.  The FN123 identities, graded antisymmetry and the graded
Jacobi sum, are checked at m = p + q + r, where they are not zero by degree.
"""

import random
from itertools import permutations, product
from math import factorial

import pytest

from fnlab.forms import (OMEGA123, Kernel, antisymmetrize, bracket_fn123, cube_dim,
                         cube_var, form_from_kernel, identity_one_form, is_omega123)
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q


def sign(sigma):
    inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    return -1 if inversions % 2 else 1


class Ring:
    """Polynomials in x_1..x_m and the components u_(a, j) of the fields X_a."""

    def __init__(self, m, fields):
        self.m = m
        self.n = m * (1 + fields)
        self.x = [Poly.var(self.n, j) for j in range(m)]
        self.X = [[Poly.var(self.n, m * (1 + a) + j) for j in range(m)]
                  for a in range(fields)]

    def zero(self):
        return [Poly.zero(self.n)] * self.m

    def lie(self, u, v):
        """[u, v] = u(v) - v(u) of polynomial vector fields in x."""
        return [sum((u[j] * v[i].partial(j) - v[j] * u[i].partial(j)
                     for j in range(self.m)), Poly.zero(self.n))
                for i in range(self.m)]

    def apply(self, ker, vectors):
        """The classical form of ker at the base point x, on these vectors."""
        assert len(vectors) == ker.p
        args = [Poly.zero(self.n)] * cube_dim(ker.p, self.m)
        for j in range(self.m):
            args[cube_var(ker.p, self.m, (), j)] = self.x[j]
            for i, vec in enumerate(vectors, 1):
                args[cube_var(ker.p, self.m, {i}, j)] = vec[j]
        return [c.eval(args, Poly.one(self.n)) for c in ker.body.comps]


def add(total, vec, c):
    return [t + v.scale(c) for t, v in zip(total, vec)]


def classical_fn(ring, K, L):
    """[K, L](X_1, ..., X_(k+l)) by the three-term formula, written out naively.

    - (1/(k! l!)) sum_s sgn s [K(X_s1, ...), L(X_s(k+1), ...)];
    - (1/(k! (l-1)!)) sum_s sgn s L([X_s(k+1), K(X_s1, ..., X_sk)], X_s(k+2), ...),
      dropped at l = 0;
    - -((-1)^(kl)/((k-1)! l!)) sum_s sgn s K([X_s(l+1), L(X_s1, ..., X_sl)], X_s(l+2), ...),
      dropped at k = 0.
    """
    k, l = K.p, L.p
    total = ring.zero()
    for sigma in permutations(range(k + l)):
        sgn = sign(sigma)
        X = [ring.X[a] for a in sigma]
        kx = ring.apply(K, X[:k])
        total = add(total, ring.lie(kx, ring.apply(L, X[k:])),
                    Q(sgn, factorial(k) * factorial(l)))
        if l:
            total = add(total, ring.apply(L, [ring.lie(X[k], kx)] + X[k + 1:]),
                        Q(sgn, factorial(k) * factorial(l - 1)))
        if k:
            lx = ring.apply(L, X[:l])
            total = add(total, ring.apply(K, [ring.lie(X[l], lx)] + X[l + 1:]),
                        Q(-(-1) ** (k * l) * sgn, factorial(k - 1) * factorial(l)))
    return total


def classical_form(rng, p, m, terms=(1, 3), x_degree=(1, 2)):
    """A random omega123 form: x-polynomial coefficients on distinct slot coordinates.

    Each component has terms[0] to terms[1] terms, each of x-degree
    x_degree[0] to x_degree[1].
    """
    n = cube_dim(p, m)
    comps = []
    for _ in range(m):
        pairs = []
        for _ in range(rng.randint(*terms)):
            e = [0] * n
            for i, j in enumerate(rng.sample(range(m), p), 1):
                e[cube_var(p, m, {i}, j)] += 1
            for _ in range(rng.randint(*x_degree)):
                e[cube_var(p, m, (), rng.randrange(m))] += 1
            pairs.append((Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)), e))
        comps.append(Poly.from_terms(n, pairs))
    form = antisymmetrize(form_from_kernel(Kernel(p, m, PolyMap(n, comps)), class_tag=OMEGA123))
    assert is_omega123(form)
    return form


def bracket_values(ring, x, y):
    out = bracket_fn123(x, y)
    assert is_omega123(out)
    return ring.apply(out.principal(), ring.X)


# (k, l, m): every pair with k, l <= 2 at m >= k + l, so that no case is zero
# by degree; arity 3 makes the (k-1)! and (l-1)! factors differ from 1
SHAPES = [(k, l, m) for k in range(3) for l in range(3)
          for m in sorted({max(k + l, 1), min(max(k + l, 1) + 1, 4)})]
SHAPES += [(3, 0, 3), (0, 3, 3), (3, 1, 4), (1, 3, 4)]


@pytest.mark.parametrize("k, l, m", SHAPES)
def test_fn123_is_negated_classical_bracket(k, l, m):
    rng = random.Random(f"classical-{k}-{l}-{m}")
    ring = Ring(m, k + l)
    x, y = classical_form(rng, k, m), classical_form(rng, l, m)
    want = classical_fn(ring, x.principal(), y.principal())
    assert any(want)
    assert bracket_values(ring, x, y) == [c.scale(Q(-1)) for c in want]


@pytest.mark.parametrize("l, m", [(0, 1), (0, 2), (1, 2), (2, 2), (2, 3)])
def test_arity_zero_is_the_lie_derivative(l, m):
    """At k = 0: (L_K L)(X_1, ..., X_l) = [K, L(X...)] - sum_i L(..., [K, X_i], ...)."""
    rng = random.Random(f"lie-{l}-{m}")
    ring = Ring(m, l)
    field, y = classical_form(rng, 0, m), classical_form(rng, l, m)
    K, L = field.principal(), y.principal()
    kx = ring.apply(K, [])
    want = ring.lie(kx, ring.apply(L, ring.X))
    for i in range(l):
        moved = ring.X[:i] + [ring.lie(kx, ring.X[i])] + ring.X[i + 1:]
        want = add(want, ring.apply(L, moved), Q(-1))
    assert any(want)
    assert classical_fn(ring, K, L) == want
    assert bracket_values(ring, field, y) == [c.scale(Q(-1)) for c in want]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_form_self_bracket_is_twice_the_nijenhuis_torsion(m):
    """At (1, 1) and K = L: N_K(X, Y) = [KX, KY] - K[KX, Y] - K[X, KY], as [X, Y] = 0."""
    rng = random.Random(f"torsion-{m}")
    ring = Ring(m, 2)
    x = classical_form(rng, 1, m)
    K = x.principal()
    X, Y = ring.X
    kx, ky = ring.apply(K, [X]), ring.apply(K, [Y])
    torsion = ring.lie(kx, ky)
    torsion = add(torsion, ring.apply(K, [ring.lie(kx, Y)]), Q(-1))
    torsion = add(torsion, ring.apply(K, [ring.lie(X, ky)]), Q(-1))
    want = [c.scale(Q(2)) for c in torsion]
    assert m == 1 or any(want)
    assert classical_fn(ring, K, K) == want
    assert bracket_values(ring, x, x) == [c.scale(Q(-1)) for c in want]


@pytest.mark.parametrize("k, m", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
def test_identity_form_is_central(k, m):
    """[Id, K] = 0 = [K, Id]: L_Id = d commutes with every L_K.

    At m >= k + 1 the (k+1)-form need not vanish by degree, and at each of
    these shapes either expanded product's corner alone is nonzero after
    antisymmetrizing, so the zero is their cancellation.
    """
    rng = random.Random(f"central-{k}-{m}")
    ident = identity_one_form(m)
    for _ in range(3):
        K = classical_form(rng, k, m, terms=(1, 2))
        assert not bracket_fn123(ident, K).principal()
        assert not bracket_fn123(K, ident).principal()


# (p, q, r): every arity triple with entries at most 2 and total arity 2 to 4
JACOBI_TRIPLES = [t for t in product(range(3), repeat=3) if 2 <= sum(t) <= 4]


@pytest.mark.parametrize("p, q, r", JACOBI_TRIPLES)
def test_fn123_identities_at_nonzero_values(p, q, r):
    """Graded antisymmetry and the graded Jacobi sum, exactly, at m = p + q + r.

    A (p+q+r)-form on R^m vanishes when p + q + r > m, so at m = p + q + r
    the outer brackets need not be zero, and one draw at least must show it.
    Small forms (one or two terms of x-degree at most 1) keep the outer
    brackets at total arity 4 on R^4 cheap.
    """
    m = p + q + r
    rng = random.Random(f"fn123-identities-{p}-{q}-{r}")
    nonzero = 0
    for _ in range(4):
        x, y, z = (classical_form(rng, a, m, terms=(1, 2), x_degree=(0, 1)) for a in (p, q, r))
        outer = []
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            inner = bracket_fn123(b, c)
            assert not (inner.principal()
                        + bracket_fn123(c, b).principal().scale(Q((-1) ** (b.p * c.p))))
            outer.append(bracket_fn123(a, inner).principal())
        assert not (outer[0] + outer[1].scale(Q((-1) ** (p * (q + r))))
                    + outer[2].scale(Q((-1) ** (r * (p + q)))))
        nonzero += any(outer)
    assert nonzero

