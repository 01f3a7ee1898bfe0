"""Multivariate polynomials with rational coefficients, and polynomial maps.

A Poly is held fraction-free, in the format of `rationals` (FLINT's fmpq_poly
representation): a dict from dense exponent tuples to nonzero integer
numerators over one positive denominator, reduced so that no factor divides
the denominator and every numerator.  The reduced form is canonical, so two
polynomials are equal iff their numerators and denominators are; an int or
rational equals, and adds as, the constant polynomial.  `FractionFree` owns
negation, difference, rational scaling and powers by repeated squaring; Poly
keeps its sum, product, equality, evaluation and variable permutations, and
any other substitution of variables is an evaluation at `Poly.var`
arguments.  A permutation moves each exponent by one cached gather and
keeps the numerators and the denominator as they are.  The product is one
loop, `_mul_into`, that adds products of numerators by exponent into a dict:
a fresh one for `*`, the evaluation sum of `rationals.combine` for `eval`.
All work on the integers and reduce at most once, by one gcd pass;
rationals are built only for readers, by the read-only `terms` view,
`constant_term` and the 1/denominator scaling that ends an evaluation in a
ring outside the format.  Nilpotency of Weil scalars performs all truncation
of degree during evaluation.

Evaluation builds each power of an argument once per map evaluation, shared
by every term and component, by the walk of `**` (`rationals._power`) over
one table, so an exponent k costs at most about 2 log2(k) products.  At
fraction-free arguments (polynomials, as in `PolyMap.compose`, and rational
Weil elements) the terms combine as one integer linear combination in one
accumulator, reduced once, into which the arguments' product loop
multiplies each term's last power straight.  At Weil elements
with polynomial coefficients (the bracket tower's convolutions) each basis
position's products of coefficients combine the same way; only plain
rationals are summed term by term.  A rational unit is lifted into the
arguments' ring, and a unit from another ring is refused.

PolyMap bundles out_dim component polynomials in in_dim variables.  Its
eval() is the only way to evaluate a map, at rationals or at exotic scalars:
feed it Weil-valued arguments and it computes the jet the corresponding
functor would produce.  Beyond evaluation a map has composition, and the sum,
negation and scaling that a form's kernels are built from.
"""

from collections import defaultdict
from functools import lru_cache
from math import lcm
from operator import add, itemgetter
from types import MappingProxyType

from .errors import ValidationError
from .rationals import (ONE, Q, FractionFree, RationalCoeffs, _power,
                        add_numerators, combine, fraction_free, rational,
                        reduce_numerators)

_new = object.__new__


def grlex_sorted(monomials) -> list:
    """Exponent tuples of one length in graded lexicographic order.

    Total degree first, then earlier variables first: of two monomials of
    one degree, the one with the larger exponent at the first variable where
    they differ comes first.  Weil bases, Poly reprs and the JSON term lists
    all list monomials in this order.  Two stable sorts in C, with no key
    function in Python: descending tuple order, then by degree.
    """
    return sorted(sorted(monomials, reverse=True), key=sum)


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
        """From a dict of exponent tuples to rationals (ints included),
        checked as `from_terms` checks its pairs."""
        f = Poly.from_terms(n, [(c, e) for e, c in terms.items()])
        self.n, self._num, self._den = n, f._num, f._den

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
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Q)):
                return NotImplemented
            other = Poly.const(self.n, other)
        self._check(other)
        if not other._num:
            return self
        if not self._num:
            return other
        num, den = add_numerators(self._num, self._den, other._num, other._den)
        return _poly(self.n, num, den)

    __radd__ = __add__

    def __rsub__(self, other):
        """other - self, for an int or rational other read as a constant."""
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = {}
        self._mul_into(out, 1, other)
        return _reduced(self.n, out, self._den * other._den)

    def _accumulator(self):
        """Zero numerators by exponent tuple for `_mul_into` (`rationals.combine`)."""
        return defaultdict(int)

    def _mul_into(self, acc, f, other):
        """Add f times self * other's numerators into the dict acc, unchecked;
        a sum that cancels is dropped."""
        get = acc.get
        b = other._num.items()
        for e1, x in self._num.items():
            if f != 1:
                x *= f
            for e2, y in b:
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + x * y
                if s:
                    acc[e] = s
                else:
                    del acc[e]

    def __eq__(self, other):
        """Equality with a polynomial, or with an int or rational as a constant."""
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Q)):
                return False
            other = Poly.const(self.n, other)
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

    def eval(self, args, one=ONE, *, _powers=None):
        """Evaluate at ring elements; `one` is the ring unit for empty products.

        A rational unit is lifted into the ring of fraction-free arguments;
        then every argument must share the unit's type and ring (variable
        count, algebra), else ValidationError.  Each power args[i] ** k is
        built once per map evaluation and shared by every term and component:
        `_powers`, private, is the power table of one `PolyMap` call, which
        has settled the unit (a direct call makes its own), keyed by (i, k).
        A term's powers but the last are multiplied in order, and the terms,
        each with its last power apart, combine in one of three ways:
        - at fraction-free values (`Poly` arguments, rational `WeilElement`s)
          `rationals.combine` adds each term's integer numerator times its
          monomial's numerators into one accumulator, over the lcm of the
          monomial denominators, reduced once; the type's `_mul_into`
          multiplies the last power straight into it;
        - at Weil elements of which some hold ring values (rational ones may
          join them, the unit too) `WeilElement._ring_sum` sums the terms
          the same way at each basis position;
        - in any other ring (plain rationals) each monomial is scaled by its
          numerator from the left, the terms are added and the sum is scaled
          by 1/denominator once.
        """
        if len(args) != self.n:
            raise ValidationError(f"expected {self.n} arguments, got {len(args)}")
        if _powers is None:
            one, _powers = _unit_of(args, one), {}
        if not self._num:
            return one - one
        terms = []
        for e, c in self._num.items():
            prod = last = None
            for i, k in enumerate(e):
                if k:
                    if last is not None:
                        prod = last if prod is None else prod * last
                    last = _power(args, i, k, _powers)
            if prod is None:
                prod, last = one if last is None else last, None
            terms.append((c, prod, last))
        if fraction_free((one, *args)):
            return combine(terms, self._den, one)
        if isinstance(one, FractionFree):
            return one._ring_sum(terms, self._den)
        total = None
        for c, prod, last in terms:
            term = prod if last is None else prod * last
            term = term if c == 1 else c * term
            total = term if total is None else total + term
        return total if self._den == 1 else rational(1, self._den) * total

    def remap_variables(self, mapping) -> "Poly":
        """Substitute x_i -> x_mapping[i] for a permutation mapping of range(n).

        Every exponent moves to its new slot by one cached gather, and the
        numerators and the denominator stay: distinct monomials stay
        distinct, so nothing merges and the form stays reduced.  Any other
        mapping is a ValidationError; `eval` at `Poly.var` arguments
        substitutes any map.
        """
        gather = _permutation_gather(tuple(mapping))
        if gather is None or len(mapping) != self.n:
            raise ValidationError(f"not a permutation of the {self.n} variables: {list(mapping)}")
        return _poly(self.n, {gather(e): c for e, c in self._num.items()}, self._den)

    def __repr__(self):
        if not self._num:
            return "0"
        terms = self.terms
        bits = []
        for e in grlex_sorted(terms):
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


def _unit_of(args, one):
    """`one` lifted into the ring of fraction-free arguments, or checked against all arguments."""
    if not isinstance(one, FractionFree):
        a = next((a for a in args if isinstance(a, FractionFree)), None)
        if a is None:
            return one
        one = a._unit().scale(one)
    ring = type(one)
    for a in args:
        if type(a) is not ring:
            raise ValidationError(f"a {ring.__name__} unit for a {type(a).__name__} argument")
        one._check(a)
    return one


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
        """Evaluate all components at ring-valued arguments, sharing powers and a unit."""
        one = _unit_of(args, one)
        powers = {}
        return [c.eval(args, one, _powers=powers) for c in self.comps]

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other, expanded and normalized."""
        if other.out_dim != self.in_dim:
            raise ValidationError(
                f"cannot compose: inner map yields {other.out_dim}, outer expects {self.in_dim}")
        args = list(other.comps)
        return PolyMap(other.in_dim, self.eval(args, Poly.one(other.in_dim)))

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

    def scale(self, c) -> "PolyMap":
        return PolyMap(self.in_dim, [a.scale(c) for a in self.comps])

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.in_dim == other.in_dim
                and self.comps == other.comps)

    def __bool__(self):
        return any(self.comps)

    def __repr__(self):
        return "PolyMap(%d -> %d: %s)" % (
            self.in_dim, self.out_dim, "; ".join(repr(c) for c in self.comps))

