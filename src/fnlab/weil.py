"""Finite-dimensional nilpotent quotient algebras and their elements.

WeilAlgebra materializes a SimplicialObject as a quotient of a polynomial
ring by a monomial ideal: the basis is every monomial below the power bounds
and not divisible by a vanishing product.  Monomial ideals make normal forms
a divisibility test, so no Groebner machinery is needed anywhere.

Basis order is graded lexicographic (total degree first, then earlier
generators first; `poly.grlex_sorted`) and is part of the serialization
contract.

Each algebra tabulates, once, the pairs of basis monomials whose product
survives, with the product's position.  The table is built from packed
exponent codes (Monagan & Pearce, CASC 2007): each basis monomial is one
integer in mixed radix 2*bound - 1, so that adding codes adds exponents, and
a pair survives exactly when its code sum is a basis code.  The basis index
holds only the surviving monomials, so looking a monomial up in it is its
normal form.

A WeilElement is an immutable sparse coefficient vector over the basis; a
missing index means zero.  Coefficients live in any commutative ring
containing the rationals: plain rationals for jets of numbers, polynomials
for jets of symbolic expressions.

A rational element is held in the fraction-free format of `rationals`
(FLINT's fmpq_poly representation): integer numerators over one positive
denominator, reduced so that no factor divides the denominator and every
numerator.  The reduced form is canonical, so equality and hashing compare
integers.  Sums, scaling and products work on the integers and reduce once,
by one gcd pass.  `rationals.FractionFree` owns negation, difference,
rational scaling and powers by repeated squaring, for rational and
ring-valued elements alike; WeilElement keeps its sum, product, ring-valued
scaling and equality.  Rationals are built only for readers:
`coeffs` is a read-only view that builds each one on lookup, and `coeff`
builds its own.

The rational product is one loop, `_mul_into`, that adds products of
numerators along the pair table into a dense list by basis position: on a
fresh list for `*`, and on the evaluation sum in `Poly.eval` (through
`rationals.combine`), which so accumulates a sum of products straight into
one result (Monagan & Pearce): no term's last product is built or reduced.

Elements with ring-valued coefficients keep one value per basis position
in a plain dict.  Their sum adds the values at each shared position with
their own `+` and drops a sum that cancels.  Their products, and
`Poly.eval` at them, are one sum of products, `_ring_sum`: each product of
coefficients is grouped by the position the pair table sends it to, and
each position's polynomials are summed by `rationals.combine` with the last
factor fused into `Poly._mul_into`, as a polynomial evaluation sums its
terms.  A result whose values are all rational is held fraction-free, as
the constructor holds it.
"""

from functools import lru_cache
from types import MappingProxyType

from .errors import ValidationError
from .poly import Poly, grlex_sorted
from .rationals import (ONE, RATIONAL_TYPES, Q, FractionFree, RationalCoeffs,
                        add_numerators, combine, rational, reduce_numerators,
                        to_numerators)
from .simplicial import SimplicialObject


class WeilAlgebra:
    """Quotient algebra attached to a SimplicialObject; build via make_algebra."""

    __slots__ = ("source", "basis", "index", "_pairs", "_gen_elems")

    def __init__(self, source: SimplicialObject):
        self.source = source
        # Monomials grow one generator at a time, with their supports as bit
        # masks.  A vanishing product is tested when its last generator
        # enters the support, so no dead monomial is ever extended.
        closing = [[] for _ in source.bounds]
        for seq in source.relations:
            closing[seq[-1] - 1].append(sum(1 << (i - 1) for i in seq))
        grown = [((), 0)]
        for i, b in enumerate(source.bounds):
            longer = [(exps + (0,), s) for exps, s in grown]
            for exps, s in grown:
                t = s | 1 << i
                if not any(t & m == m for m in closing[i]):
                    longer.extend((exps + (e,), t) for e in range(1, b))
            grown = longer
        self.basis = tuple(grlex_sorted(exps for exps, _s in grown))
        self.index = {e: i for i, e in enumerate(self.basis)}
        # Each basis monomial as one integer, with mixed radix 2*bound - 1
        # per generator.  A basis exponent is below its bound, so the digits
        # of a sum of two stay below 2*bound - 1 and never carry: the code of
        # a product is the sum of the codes, and the product survives exactly
        # when that sum is a basis code.
        place, places = 1, []
        for b in source.bounds:
            places.append(place)
            place *= 2 * b - 1
        codes = [sum(e * p for e, p in zip(exps, places)) for exps in self.basis]
        at = {c: k for k, c in enumerate(codes)}.get
        # _pairs[i] lists, by increasing j, the (j, k) with basis[i] * basis[j]
        # = basis[k]: only the pairs whose product survives the quotient.
        pairs = tuple([] for _ in codes)
        for i, a in enumerate(codes):
            for j in range(i, len(codes)):
                k = at(a + codes[j])
                if k is not None:
                    pairs[i].append((j, k))
                    if j != i:
                        pairs[j].append((i, k))
        self._pairs = tuple(tuple(r) for r in pairs)
        self._gen_elems = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> "WeilElement":
        return from_reduced(self, {}, 1)

    def one(self) -> "WeilElement":
        return from_reduced(self, {0: 1}, 1)

    def generator(self, i: int) -> "WeilElement":
        """The class of d_i (1-indexed)."""
        if self._gen_elems is None:
            gens = []
            for g in range(self.source.n):
                exps = tuple(1 if j == g else 0 for j in range(self.source.n))
                k = self.index.get(exps)
                gens.append(from_reduced(self, {} if k is None else {k: 1}, 1))
            self._gen_elems = tuple(gens)
        return self._gen_elems[i - 1]

    def monomial(self, exps, coeff=ONE) -> "WeilElement":
        k = self.index.get(tuple(exps))
        if k is None or not coeff:
            return self.zero()
        return WeilElement(self, {k: coeff})

    def monomial_str(self, pos: int) -> str:
        exps = self.basis[pos]
        if not any(exps):
            return "1"
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"d{i + 1}")
            elif e > 1:
                parts.append(f"d{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"W[{self.source!r}]"


@lru_cache(maxsize=None)
def make_algebra(obj: SimplicialObject) -> WeilAlgebra:
    """Cached constructor; identical objects share one algebra instance.

    Nothing clears the cache, so an algebra held from an earlier call (a
    gluing case's, a morphism's) is the one a new call returns.
    """
    return WeilAlgebra(obj)


_new = object.__new__


def from_reduced(algebra: WeilAlgebra, num, den) -> "WeilElement":
    """Element from numerators already reduced over den > 0: no gcd pass."""
    w = _new(WeilElement)
    w.algebra = algebra
    w._num = num
    w._den = den
    return w


class WeilElement(FractionFree):
    """Sparse coefficient vector over a WeilAlgebra basis; immutable.

    Coefficients may be rationals or any ring value supporting +, -, * and
    truth-testing (zero is falsy).  A coefficient dict of rationals (ints
    included) makes a rational element, held as reduced integer numerators
    over one positive denominator; any other dict is kept as given.
    Mixed-algebra arithmetic is rejected.
    """

    __slots__ = ("algebra", "_num", "_den")

    _NEGATIVE_POWER = "nilpotent elements have no negative powers"

    def __init__(self, algebra: WeilAlgebra, coeffs: dict):
        self.algebra = algebra
        for c in coeffs.values():
            if type(c) not in RATIONAL_TYPES:
                self._num, self._den = coeffs, None
                return
        self._num, self._den = to_numerators(coeffs)

    def _from_reduced(self, num, den):
        """From reduced numerators over den, or from ring values (den None)."""
        if den is None:
            return WeilElement(self.algebra, num)
        return from_reduced(self.algebra, num, den)

    def _unit(self):
        return self.algebra.one()

    @property
    def coeffs(self):
        """Read-only mapping from basis index to nonzero coefficient."""
        if self._den is None:
            return MappingProxyType(self._num)
        return RationalCoeffs(self._num, self._den)

    def _values(self) -> dict:
        """Coefficient dict, rationals built from numerators."""
        if self._den is None:
            return self._num
        den = self._den
        return {k: rational(n, den) for k, n in self._num.items()}

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValidationError("elements of different algebras")

    def __add__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._check(other)
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        if da is None or db is None:
            # shared positions add by the values' own +
            out = dict(self._values())
            for k, w in other._values().items():
                out[k] = out[k] + w if k in out else w
            return WeilElement(self.algebra, {k: v for k, v in out.items() if v})
        num, den = add_numerators(self._num, da, other._num, db)
        return from_reduced(self.algebra, num, den)

    def __mul__(self, other):
        if not isinstance(other, WeilElement):
            return self.scale(other)
        self._check(other)
        if self._den is None or other._den is None:
            return self._ring_sum(((1, self, other),), 1)
        acc = [0] * self.algebra.dim
        self._mul_into(acc, 1, other)
        return from_numerators(self.algebra, {k: s for k, s in enumerate(acc) if s},
                               self._den * other._den)

    def _ring_sum(self, terms, den):
        """sum(c * x * y for c, x, y in terms) / den, summed by basis position.

        terms holds (integer, element, element or None for 1) triples of
        this algebra, at least one; den is a positive integer.  A lone term
        x at c = 1 over den = 1 is x; otherwise each product of coefficients
        joins the group of the position it lands at (`_position_sum`).
        """
        c, x, y = terms[0]
        if den == 1 and len(terms) == 1 and c == 1 and y is None:
            return x
        pairs = self.algebra._pairs
        groups = {}
        for c, x, y in terms:
            if y is None:
                for k, v in x._values().items():
                    groups.setdefault(k, []).append((c, v, None))
                continue
            b = y._values()
            for i, v in x._values().items():
                for j, k in pairs[i]:
                    w = b.get(j)
                    if w is not None:
                        groups.setdefault(k, []).append((c, v, w))
        return WeilElement(self.algebra, {
            k: s for k, group in groups.items() if (s := _position_sum(group, den))})

    def _accumulator(self):
        """Zero numerators by basis position for `_mul_into` (`rationals.combine`)."""
        return [0] * self.algebra.dim

    def _mul_into(self, acc, f, other):
        """Add f times self * other's numerators into the dense list acc, unchecked.

        other is spread densely by position, and each of self's numerators,
        times f, meets it along its row's surviving pairs.
        """
        pairs = self.algebra._pairs
        b = [0] * len(acc)
        for j, y in other._num.items():
            b[j] = y
        for i, x in self._num.items():
            if f != 1:
                x *= f
            for j, k in pairs[i]:
                acc[k] += x * b[j]

    def scale(self, c) -> "WeilElement":
        """c times self; a ring-valued element or c scales each coefficient."""
        if self._den is not None and type(c) in RATIONAL_TYPES:
            return FractionFree.scale(self, c)
        out = {}
        for k, v in self._values().items():
            s = c * v
            if s:
                out[k] = s
        return WeilElement(self.algebra, out)

    def __eq__(self, other):
        if not isinstance(other, WeilElement) or self.algebra is not other.algebra:
            return False
        if self._den is None or other._den is None:
            return self._values() == other._values()
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._den is None:  # it may equal a rational element: no hash agrees
            raise TypeError("ring-valued WeilElement is unhashable")
        return hash((id(self.algebra), self._den, frozenset(self._num.items())))

    def coeff(self, exps):
        """Coefficient of the (reduced) monomial with the given exponents."""
        c = self._num.get(self.algebra.index.get(tuple(exps)))
        if c is None:
            return Q(0)
        return c if self._den is None else rational(c, self._den)

    def __repr__(self):
        if not self._num:
            return "0"
        coeffs = self.coeffs
        bits = []
        for k in sorted(coeffs):
            mono = self.algebra.monomial_str(k)
            c = coeffs[k]
            bits.append(f"{c}" if mono == "1" else f"{c}*{mono}")
        return " + ".join(bits)


def _position_sum(group, den):
    """sum(c * v * w for c, v, w in group) / den at one basis position.

    A lone product at c = 1 over den = 1 is multiplied directly (w None for
    1).  Polynomials, which must share a variable count, are summed by
    `combine` with the last factor fused; other values (rationals) are
    multiplied and added with their own operations and scaled once.
    """
    c, v, w = group[0]
    if len(group) == 1 and c == 1 and den == 1:
        return v if w is None else v * w
    fused, rest = [], None
    for t in group:
        c, v, w = t
        if type(v) is Poly and (w is None or type(w) is Poly):
            fused.append(t)
        else:
            p = c * v if w is None else c * v * w
            rest = p if rest is None else rest + p
    if rest is not None and den != 1:
        rest = rational(1, den) * rest
    if not fused:
        return rest
    n = fused[0][1].n
    if any(v.n != n or w is not None and w.n != n for _c, v, w in fused):
        raise ValidationError("polynomials in different variable counts")
    s = combine(fused, den, fused[0][1])
    return s if rest is None else s + rest


def from_dense(algebra: WeilAlgebra, values) -> WeilElement:
    return WeilElement(algebra, {k: v for k, v in enumerate(values) if v})


def from_numerators(algebra: WeilAlgebra, num, den) -> WeilElement:
    """Element from nonzero integer numerators by basis index over den > 0."""
    if den != 1:
        num, den = reduce_numerators(num, den)
    return from_reduced(algebra, num, den)
