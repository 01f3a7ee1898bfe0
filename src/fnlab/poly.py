"""Multivariate polynomials with rational coefficients, and polynomial maps.

A Poly is held fraction-free, in the format of `rationals` (FLINT's fmpq_poly
representation): a dict from dense exponent tuples to nonzero integer
numerators over one positive denominator, reduced so that no factor divides
the denominator and every numerator.  The reduced form is canonical, so two
polynomials are equal iff their numerators and denominators are; an int or
rational equals, and adds as, the constant polynomial.  `FractionFree` owns
negation, difference, rational scaling and powers by repeated squaring; Poly
keeps its sum, product, equality, evaluation and variable maps.  All work on
the integers and reduce once, by one gcd pass; rationals are built only for
readers, by the read-only `terms` view, `constant_term` and the 1/denominator
scaling that ends an evaluation in a ring outside the format.  Nilpotency of
Weil scalars performs all truncation of degree during evaluation.

Evaluation builds each power of an argument once, so an exponent k costs
about 2 log2(k) products.  At fraction-free arguments
(polynomials, as in `PolyMap.compose`, and rational Weil elements) the terms
combine as one integer linear combination, reduced once.

PolyMap bundles out_dim component polynomials in in_dim variables.  Its
eval() is the single entry point for extending a map to exotic scalars: feed
it Weil-valued arguments and it computes the jet the corresponding functor
would produce.
"""

from functools import lru_cache
from math import lcm
from operator import add, itemgetter
from types import MappingProxyType

from .errors import ValidationError
from .rationals import (ONE, Q, FractionFree, RationalCoeffs, add_numerators,
                        combine, fraction_free, rational, reduce_numerators,
                        to_numerators)

_new = object.__new__


def _poly(n, num, den):
    """A polynomial from its parts, already reduced."""
    f = _new(Poly)
    f.n = n
    f._num = num
    f._den = den
    return f


def _reduced(n, num, den):
    """A polynomial from nonzero integer numerators over den > 0."""
    if den != 1:
        num, den = reduce_numerators(num, den)
    return _poly(n, num, den)


def _monomial(n, e, c):
    """c * x^e for a rational or an int c."""
    return _poly(n, {e: c.numerator}, c.denominator) if c else _poly(n, {}, 1)


class Poly(FractionFree):
    """Polynomial in n variables with rational coefficients; immutable."""

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, terms: dict):
        """From a dict of exponent tuples to rationals (ints included)."""
        self.n = n
        self._num, self._den = to_numerators(terms)

    # construction ---------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        return _poly(n, {}, 1)

    @staticmethod
    def const(n: int, c) -> "Poly":
        return _monomial(n, (0,) * n, c)

    @staticmethod
    def one(n: int) -> "Poly":
        return _poly(n, {(0,) * n: 1}, 1)

    @staticmethod
    def var(n: int, i: int, c=ONE) -> "Poly":
        """c * x_i with 0-based variable index."""
        if not 0 <= i < n:
            raise ValidationError(f"variable index {i} out of range for {n} variables")
        e = [0] * n
        e[i] = 1
        return _monomial(n, tuple(e), c)

    @staticmethod
    def from_terms(n: int, pairs) -> "Poly":
        """Sum of (rational, exponents) pairs; repeated exponents add up."""
        pairs = list(pairs)
        den = lcm(*[c.denominator for c, _ in pairs])
        out = {}
        for c, e in pairs:
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise ValidationError("exponent vector length != variable count")
            if any(x < 0 for x in e):
                raise ValidationError("negative exponent")
            if not c:
                continue
            s = out.get(e, 0) + c.numerator * (den // c.denominator)
            if s:
                out[e] = s
            else:
                del out[e]
        return _reduced(n, out, den)

    @staticmethod
    def from_numerators(n: int, num, den) -> "Poly":
        """From integer numerators by exponent tuple over a positive denominator."""
        return _reduced(n, {e: v for e, v in num.items() if v}, den)

    # the fraction-free parts ----------------------------------------------

    def _from_reduced(self, num, den):
        return _poly(self.n, num, den)

    def _unit(self):
        return Poly.one(self.n)

    @property
    def terms(self):
        """Read-only mapping from exponent tuple to nonzero rational coefficient."""
        return RationalCoeffs(self._num, self._den)

    @property
    def numerators(self):
        """Read-only mapping from exponent tuple to nonzero integer numerator."""
        return MappingProxyType(self._num)

    # ring operations ------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValidationError("polynomials in different variable counts")

    def __add__(self, other):
        """Sum with a polynomial, or with an int or rational as a constant."""
        if isinstance(other, (int, Q)):
            other = Poly.const(self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other._num:
            return self
        if not self._num:
            return other
        num, den = add_numerators(self._num, self._den, other._num, other._den)
        return _poly(self.n, num, den)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = {}
        get = out.get
        b = other._num.items()
        for e1, x in self._num.items():
            for e2, y in b:
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + x * y
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _reduced(self.n, out, self._den * other._den)

    def __eq__(self, other):
        """Equality with a polynomial, or with an int or rational as a constant."""
        if isinstance(other, (int, Q)):
            other = Poly.const(self.n, other)
        elif not isinstance(other, Poly):
            return False
        return (self.n == other.n and self._den == other._den
                and self._num == other._num)

    # queries ----------------------------------------------------------------

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._num), default=-1)

    def constant_term(self):
        c = self._num.get((0,) * self.n)
        return Q(0) if c is None else rational(c, self._den)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative in variable i."""
        # lowering e[i] by one is injective on the monomials with e[i] > 0,
        # so no two terms meet
        out = {}
        for e, c in self._num.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _reduced(self.n, out, self._den)

    def eval(self, args, one=ONE):
        """Evaluate at ring elements; `one` is the ring unit for empty products.

        Each power args[i] ** k is built once per call, by repeated squaring.
        At fraction-free values (`Poly` arguments, rational `WeilElement`s)
        the terms combine fraction-free: each term's integer numerator times
        its monomial's numerators, over the lcm of the monomial
        denominators, reduced once (`rationals.combine`).  Any other ring
        (plain rationals, ring-valued Weil elements) scales each monomial by
        its numerator from the left, adds, and scales the sum by
        1/denominator once.
        """
        if len(args) != self.n:
            raise ValidationError(f"expected {self.n} arguments, got {len(args)}")
        if not self._num:
            return c_zero_like(one)
        combined = fraction_free((one, *args))
        pow_cache = {}
        terms = []
        total = None
        for e, c in self._num.items():
            prod = None
            for i, k in enumerate(e):
                if k == 0:
                    continue
                p = args[i] if k == 1 else pow_cache.get((i, k))
                if p is None:
                    p = pow_cache[(i, k)] = args[i] ** k
                prod = p if prod is None else prod * p
            if prod is None:
                prod = one
            if combined:
                terms.append((c, prod))
            else:
                term = prod if c == 1 else c * prod
                total = term if total is None else total + term
        if combined:
            return combine(terms, self._den, one)
        return total if self._den == 1 else rational(1, self._den) * total

    def remap_variables(self, mapping, new_n=None) -> "Poly":
        """Substitute x_i -> x_mapping[i]; mapping is a 0-based index list.

        A permutation of this polynomial's own variables (new_n absent or
        equal to n) moves every exponent to its new slot with one cached
        gather and keeps the numerators and the denominator: distinct
        monomials stay distinct, so nothing merges and the form stays
        reduced.  Any other map, an embedding into more variables or a map
        sending several variables to one, sums exponents term by term and
        reduces once.
        """
        m = self.n if new_n is None else new_n
        if m == self.n == len(mapping):
            gather = _permutation_gather(tuple(mapping))
            if gather is not None:
                return _poly(m, {gather(e): c for e, c in self._num.items()}, self._den)
        out = {}
        for e, c in self._num.items():
            d = [0] * m
            for i, k in enumerate(e):
                if k:
                    d[mapping[i]] += k
            d = tuple(d)
            s = out.get(d, 0) + c
            if s:
                out[d] = s
            else:
                del out[d]
        return _reduced(m, out, self._den)

    def __repr__(self):
        if not self._num:
            return "0"
        terms = self.terms
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), tuple(-x for x in t))):
            c = terms[e]
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(str(c) if not mono else f"{c}*{mono}")
        return " + ".join(bits)


@lru_cache(maxsize=1024)
def _permutation_gather(mapping: tuple):
    """Exponent-tuple gather of the permutation x_i -> x_mapping[i], or None.

    None when mapping is not a permutation of range(len(mapping)).  Slot j of
    the result reads slot i of the source, where mapping[i] = j.  With fewer
    than two variables the only permutation is the identity, and `tuple`
    returns a tuple unchanged (a one-index itemgetter would return a scalar).
    """
    n = len(mapping)
    if sorted(mapping) != list(range(n)):
        return None
    if n < 2:
        return tuple
    inverse = [0] * n
    for i, j in enumerate(mapping):
        inverse[j] = i
    return itemgetter(*inverse)


def c_zero_like(one):
    """Zero of the ring whose unit is `one` (rationals give Q(0))."""
    return one - one


class PolyMap:
    """A tuple of polynomials read as a map between coordinate spaces."""

    __slots__ = ("in_dim", "out_dim", "comps")

    def __init__(self, in_dim: int, comps):
        comps = tuple(comps)
        for c in comps:
            if c.n != in_dim:
                raise ValidationError("component variable count != in_dim")
        self.in_dim = in_dim
        self.out_dim = len(comps)
        self.comps = comps

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap(n, [Poly.var(n, i) for i in range(n)])

    @staticmethod
    def zero(in_dim: int, out_dim: int) -> "PolyMap":
        return PolyMap(in_dim, [Poly.zero(in_dim)] * out_dim)

    def eval(self, args, one=ONE):
        """Evaluate all components at ring-valued arguments."""
        return [c.eval(args, one) for c in self.comps]

    def __call__(self, args, one=ONE):
        return self.eval(args, one)

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other, expanded and normalized."""
        if other.out_dim != self.in_dim:
            raise ValidationError(
                f"cannot compose: inner map yields {other.out_dim}, outer expects {self.in_dim}")
        args = list(other.comps)
        one = Poly.one(other.in_dim)
        return PolyMap(other.in_dim, [c.eval(args, one) for c in self.comps])

    # linear-space structure (used when maps act as coefficient slots) -------

    def _check(self, other):
        if self.in_dim != other.in_dim or self.out_dim != other.out_dim:
            raise ValidationError("maps of different dimensions")

    def __add__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        self._check(other)
        return PolyMap(self.in_dim, [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return PolyMap(self.in_dim, [-a for a in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PolyMap":
        return PolyMap(self.in_dim, [a.scale(c) for a in self.comps])

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.in_dim == other.in_dim
                and self.comps == other.comps)

    def __bool__(self):
        return any(self.comps)

    def degree(self) -> int:
        return max((c.degree() for c in self.comps), default=-1)

    def __repr__(self):
        return "PolyMap(%d -> %d: %s)" % (
            self.in_dim, self.out_dim, "; ".join(repr(c) for c in self.comps))


def poly_equal(f: PolyMap, g: PolyMap) -> bool:
    """Exact coefficient-wise equality of two maps of matching dimensions."""
    if f.in_dim != g.in_dim or f.out_dim != g.out_dim:
        raise ValidationError("maps of different dimensions")
    return f.comps == g.comps
