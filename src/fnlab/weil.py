"""Finite-dimensional nilpotent quotient algebras and their elements.

WeilAlgebra materializes a SimplicialObject as a quotient of a polynomial
ring by a monomial ideal: the basis is every monomial below the power bounds
and not divisible by a vanishing product.  Monomial ideals make normal forms
a divisibility test, so no Groebner machinery is needed anywhere.

Basis order is graded lexicographic (total degree first, then earlier
generators first) and is part of the serialization contract.

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
scaling, equality and `times_basis`.  Rationals are built only for readers:
`coeffs` is a read-only view that builds each one on lookup, and `coeff`
and `dense` build theirs.  Elements with ring-valued coefficients keep a
plain dict and the generic loops.

Multiplying by a basis monomial with coefficient 1 needs no arithmetic:
`times_basis` moves each coefficient along that monomial's surviving pairs,
for rational and ring-valued elements alike.
"""

from functools import lru_cache
from types import MappingProxyType

from .errors import ValidationError
from .rationals import (ONE, Q, FractionFree, RationalCoeffs, add_numerators,
                        rational, reduce_numerators, to_numerators)
from .simplicial import SimplicialObject


def _grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


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
        self.basis = tuple(sorted((exps for exps, _s in grown), key=_grlex_key))
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
        return _element(self, {}, 1)

    def one(self) -> "WeilElement":
        return _element(self, {0: 1}, 1)

    def generator(self, i: int) -> "WeilElement":
        """The class of d_i (1-indexed)."""
        if self._gen_elems is None:
            gens = []
            for g in range(self.source.n):
                exps = tuple(1 if j == g else 0 for j in range(self.source.n))
                k = self.index.get(exps)
                gens.append(_element(self, {} if k is None else {k: 1}, 1))
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
    """Cached constructor; identical objects share one algebra instance."""
    return WeilAlgebra(obj)


_RATIONAL = frozenset({Q, int})
_new = object.__new__


def _element(algebra, num, den):
    """An element from its parts: den is None when num holds ring values."""
    w = _new(WeilElement)
    w.algebra = algebra
    w._num = num
    w._den = den
    return w


def _ring(algebra, coeffs):
    """An element from ring values; with no terms left it is the zero."""
    return _element(algebra, coeffs, None) if coeffs else _element(algebra, {}, 1)


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
            if type(c) not in _RATIONAL:
                self._num, self._den = coeffs, None
                return
        self._num, self._den = to_numerators(coeffs)

    def _from_reduced(self, num, den):
        return _element(self.algebra, num, den)

    def _unit(self):
        return self.algebra.one()

    @property
    def coeffs(self):
        """Read-only mapping from basis index to nonzero coefficient."""
        if self._den is None:
            return MappingProxyType(self._num)
        return RationalCoeffs(self._num, self._den)

    def numerators(self, den) -> list:
        """Dense integer numerators over den, a multiple of the denominator."""
        f = den // self._den
        num = self._num
        return [num.get(k, 0) * f for k in range(self.algebra.dim)]

    def _values(self) -> dict:
        """Coefficient dict for the generic ring loops."""
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
            out = dict(self._values())
            for k, c in other._values().items():
                s = out.get(k)
                s = c if s is None else s + c
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
            return _ring(self.algebra, out)
        num, den = add_numerators(self._num, da, other._num, db)
        return _element(self.algebra, num, den)

    def __mul__(self, other):
        if not isinstance(other, WeilElement):
            return self.scale(other)
        self._check(other)
        if self._den is not None and other._den is not None:
            # numerators accumulate densely along each row's surviving pairs
            dim = self.algebra.dim
            pairs = self.algebra._pairs
            b = [0] * dim
            for j, y in other._num.items():
                b[j] = y
            acc = [0] * dim
            for i, x in self._num.items():
                for j, k in pairs[i]:
                    acc[k] += x * b[j]
            return from_numerators(self.algebra, {k: s for k, s in enumerate(acc) if s},
                                   self._den * other._den)
        out = {}
        pairs = self.algebra._pairs
        b = other._values()
        for i, ci in self._values().items():
            for j, k in pairs[i]:
                cj = b.get(j)
                if cj is None:
                    continue
                c = ci * cj
                if not c:
                    continue
                s = out.get(k)
                s = c if s is None else s + c
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return _ring(self.algebra, out)

    def times_basis(self, pos: int) -> "WeilElement":
        """self times the basis monomial at index pos, with coefficient 1.

        The coefficient at j moves to k along pos's surviving pairs (j, k)
        and is otherwise dropped.  In a monomial algebra basis[j] is
        basis[k] / basis[pos], so j -> k is injective and no two
        coefficients add: rational and ring-valued elements alike move
        without arithmetic.  A rational result keeps the denominator and is
        reduced once, since the dropped terms may leave a common factor.
        """
        num = self._num
        out = {k: num[j] for j, k in self.algebra._pairs[pos] if j in num}
        if self._den is None:
            return _ring(self.algebra, out)
        return from_numerators(self.algebra, out, self._den)

    def scale(self, c) -> "WeilElement":
        """c times self; a ring-valued element or c scales each coefficient."""
        if self._den is not None and type(c) in _RATIONAL:
            return FractionFree.scale(self, c)
        out = {}
        for k, v in self._values().items():
            s = c * v
            if s:
                out[k] = s
        return _ring(self.algebra, out)

    def __eq__(self, other):
        if not isinstance(other, WeilElement) or self.algebra is not other.algebra:
            return False
        if self._den is None or other._den is None:
            return self._values() == other._values()
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((id(self.algebra), self._den, frozenset(self._num.items())))

    def coeff(self, exps):
        """Coefficient of the (reduced) monomial with the given exponents."""
        c = self._num.get(self.algebra.index.get(tuple(exps)))
        if c is None:
            return Q(0)
        return c if self._den is None else rational(c, self._den)

    def dense(self):
        values, zero = self._values(), Q(0)
        return [values.get(k, zero) for k in range(self.algebra.dim)]

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


def from_dense(algebra: WeilAlgebra, values) -> WeilElement:
    return WeilElement(algebra, {k: v for k, v in enumerate(values) if v})


def from_numerators(algebra: WeilAlgebra, num, den) -> WeilElement:
    """Element from nonzero integer numerators by basis index over den > 0."""
    if den != 1:
        num, den = reduce_numerators(num, den)
    return _element(algebra, num, den)
