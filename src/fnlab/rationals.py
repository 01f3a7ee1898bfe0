"""Exact rational scalars.

Everything in this package computes over the rationals; there is no floating
point anywhere.  The scalar type is gmpy2's mpq when available (much faster),
falling back to fractions.Fraction.  Both print as "num/den" and parse back.

Rational polynomials and Weil elements share one fraction-free format, the
representation of FLINT's fmpq_poly: a dict of nonzero integer numerators over
one positive denominator, reduced so that no factor divides the denominator
and every numerator.  The reduced form is canonical, so equality compares
integers.  This module owns that format: conversion from rationals, the gcd
reduction, the sum, linear combinations, and the read-only view that builds
rationals for readers.

`FractionFree` is the base of the types held in the format (`Poly` and
`WeilElement`): `_num` holds the numerators, `_den` the denominator (None for
a `WeilElement` with ring-valued coefficients).  It owns the arithmetic the
types share: `denominator`, truth, negation, difference, left scaling,
rational `scale` and powers by repeated squaring, one walk down k's bits
(`_power`) that `Poly.eval` runs over a shared table.  Each type supplies its
`_from_reduced` constructor, its `_unit` and a multiply-accumulate pair (a
sum of products into one result, Monagan & Pearce, CASC 2007):
`_accumulator()` gives zero numerators keyed as the type's, and
`_mul_into(acc, f, y)` adds f times the numerators of self * y into them,
unchecked.  Its product runs `_mul_into` on a fresh accumulator; it keeps
its own sum, equality and evaluation.  `combine` sums products of any of
them through that pair.
"""

import re
from collections.abc import Mapping
from math import gcd, lcm

from .errors import ValidationError

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ONE = Q(1)

# the exact types of values held as rationals as they are, with no conversion
RATIONAL_TYPES = frozenset({Q, int})


def rat_str(value) -> str:
    """Serialize a rational as a decimal string, "num/den" or "num"."""
    return str(value)


_EXPONENT = re.compile(r"[eE][-+]?\d")


def parse_rational(text: str):
    """The rational a string spells, as Q(text) reads it, exponents refused.

    "3/4", "-2", "1.5" and " 7 " read as Q reads them.  An exponent part
    ("1e9") raises ValidationError: Q builds the power of ten in full, so a
    ten-byte string could ask for a numerator of hundreds of megabytes.
    Other malformed text raises Q's own ValueError or ZeroDivisionError.
    """
    if _EXPONENT.search(text):
        raise ValidationError(f"exponent notation is not accepted: {text!r}")
    return Q(text)


def as_rational(v):
    """v as a rational: ints and rationals as they are, strings through
    parse_rational (exponent notation refused), anything else through Q.

    A value that is no rational raises ValidationError ("bad rational ...").
    """
    if type(v) in RATIONAL_TYPES:
        return v
    try:
        return parse_rational(v) if isinstance(v, str) else Q(v)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad rational {v!r}") from exc


# fraction-free coefficient dicts ---------------------------------------------


def rational(n, den):
    """The rational n/den from a numerator and a coprime positive denominator."""
    return Q(n) if den == 1 else Q(n, den)


def to_numerators(coeffs) -> tuple:
    """(numerators, denominator) of a dict of rationals (ints included).

    Zero values are dropped.  Over the lcm of reduced denominators the
    numerators share no factor with it, so the form is already reduced.
    """
    den = lcm(*[c.denominator for c in coeffs.values()])
    return {k: c.numerator * (den // c.denominator)
            for k, c in coeffs.items() if c}, den


def reduce_numerators(num: dict, den) -> tuple:
    """Divide nonzero numerators over den > 0 by their common factor.

    One gcd pass over the denominator and the numerators; with no numerators
    left the denominator becomes 1.
    """
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: n // g for k, n in num.items()}
            den //= g
    return num, den


def add_numerators(a: dict, da, b: dict, db) -> tuple:
    """The reduced sum of a/da and b/db, both nonzero and reduced."""
    if da == db:
        out, fb = dict(a), 1
    else:
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = {k: x * fa for k, x in a.items()}
        da *= fa
    for k, y in b.items():
        s = out.get(k, 0) + y * fb
        if s:
            out[k] = s
        else:
            del out[k]
    return reduce_numerators(out, da)


class FractionFree:
    """Base of the fraction-free types; see the module docstring."""

    __slots__ = ()

    _NEGATIVE_POWER = "negative power"

    def _from_reduced(self, num: dict, den):
        """An element of this one's ring from reduced numerators over den."""
        raise NotImplementedError

    def _unit(self):
        """The unit of this one's ring."""
        raise NotImplementedError

    @property
    def denominator(self):
        """The positive common denominator (1 for zero); None for ring values."""
        return self._den

    def __bool__(self):
        return bool(self._num)

    def __neg__(self):
        return self._from_reduced({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """c times self, for a rational or an int c."""
        if not c:
            return self._from_reduced({}, 1)
        p = c.numerator
        return self._from_reduced(*reduce_numerators(
            {k: n * p for k, n in self._num.items()}, self._den * c.denominator))

    def __pow__(self, k: int):
        """self ** k by repeated squaring (`_power`)."""
        if k < 0:
            raise ValidationError(self._NEGATIVE_POWER)
        if k == 0:
            return self._unit()
        return _power((self,), 0, k, {})


def _power(args, i, k, powers):
    """args[i] ** k for k >= 1, read from or stored in the table `powers`.

    Walks k's bits from the top: square, and at a set bit times args[i],
    each step read from the table first: a lone power costs bitlen(k) - 1
    squarings and popcount(k) - 1 products, a shared one is built once.
    """
    p = powers.get((i, k))
    if p is not None:
        return p
    x = p = args[i]
    j = 1
    for bit in bin(k)[3:]:
        j *= 2
        q = powers.get((i, j))
        p = powers[(i, j)] = p * p if q is None else q
        if bit == "1":
            j += 1
            q = powers.get((i, j))
            p = powers[(i, j)] = p * x if q is None else q
    return p


def fraction_free(values) -> bool:
    """Whether every value is held in the fraction-free format."""
    for v in values:
        if not isinstance(v, FractionFree) or v._den is None:
            return False
    return True


def combine(terms, den, like):
    """sum(c * x * y for c, x, y in terms) / den, as an element of like's ring.

    terms holds (integer, fraction-free element, last factor or None for 1)
    triples, at least one, all of like's ring; den is a positive integer.
    Each term is brought over the lcm L of the terms' denominators (x's times
    y's) and added, by integer multiply-adds, into like's `_accumulator()`,
    into which `_mul_into` multiplies a last factor straight.  The sum, over
    L * den, is reduced once.
    """
    big = lcm(*[x._den if y is None else x._den * y._den for _c, x, y in terms])
    acc = like._accumulator()
    for c, x, y in terms:
        if y is None:
            f = c * (big // x._den)
            for k, n in x._num.items():
                acc[k] += f * n
        else:
            x._mul_into(acc, c * (big // (x._den * y._den)), y)
    items = acc.items() if isinstance(acc, dict) else enumerate(acc)
    num, den = reduce_numerators({k: n for k, n in items if n}, big * den)
    return like._from_reduced(num, den)


class RationalCoeffs(Mapping):
    """Read-only view of fraction-free coefficients as rationals.

    A lookup builds the rational from its numerator and the denominator;
    iterating and sizing touch only the numerators.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, k):
        return rational(self._num[k], self._den)

    def get(self, k, default=None):
        n = self._num.get(k)
        return default if n is None else rational(n, self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __repr__(self):
        return repr(dict(self))
