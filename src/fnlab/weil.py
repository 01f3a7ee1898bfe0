"""Finite-dimensional nilpotent quotient algebras and their elements.

WeilAlgebra materializes a SimplicialObject as a quotient of a polynomial
ring by a monomial ideal: the basis is every monomial below the power bounds
and not divisible by a vanishing product.  Monomial ideals make normal forms
a divisibility test, so no Groebner machinery is needed anywhere.

Basis order is graded lexicographic (total degree first, then earlier
generators first) and is part of the serialization contract.

WeilElement coefficients live in any commutative ring containing the
rationals: plain rationals for jets of numbers, polynomials for jets of
symbolic expressions.  Coefficients are stored sparsely, as rationals or
ring values; a missing index means zero.  The product of two rational
elements with at least two terms each is computed over one common
denominator: integer numerators are accumulated and each output coefficient
becomes a rational once.
"""

from functools import lru_cache
from itertools import product as iter_product
from math import lcm

from .errors import ValidationError
from .rationals import ONE, Q
from .simplicial import SimplicialObject


def _grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class WeilAlgebra:
    """Quotient algebra attached to a SimplicialObject; build via make_algebra."""

    __slots__ = ("source", "basis", "index", "_rows", "_gen_elems")

    def __init__(self, source: SimplicialObject):
        self.source = source
        n = source.n
        rel_list = [tuple(seq) for seq in sorted(source.relations)]
        monomials = []
        for exps in iter_product(*(range(b) for b in source.bounds)):
            if any(all(exps[i - 1] >= 1 for i in seq) for seq in rel_list):
                continue
            monomials.append(exps)
        if n == 0:
            monomials = [()]
        monomials.sort(key=_grlex_key)
        self.basis = tuple(monomials)
        self.index = {e: i for i, e in enumerate(self.basis)}
        # _rows[i] maps j to the basis index of basis[i] * basis[j], holding
        # only the pairs whose product survives the quotient.
        rows = tuple({} for _ in self.basis)
        for i, a in enumerate(self.basis):
            for j, b in enumerate(self.basis[i:], i):
                k = self._reduce_exponents(tuple(x + y for x, y in zip(a, b)))
                if k is not None:
                    rows[i][j] = k
                    rows[j][i] = k
        self._rows = rows
        self._gen_elems = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce_exponents(self, exps):
        """Normal form of a raw monomial: its basis index, or None if it dies."""
        if any(e >= b for e, b in zip(exps, self.source.bounds)):
            return None
        return self.index.get(tuple(exps))

    def zero(self) -> "WeilElement":
        return WeilElement(self, {})

    def one(self) -> "WeilElement":
        return WeilElement(self, {0: ONE})

    def generator(self, i: int) -> "WeilElement":
        """The class of d_i (1-indexed)."""
        if self._gen_elems is None:
            gens = []
            for g in range(self.source.n):
                exps = tuple(1 if j == g else 0 for j in range(self.source.n))
                k = self.index.get(exps)
                gens.append(WeilElement(self, {} if k is None else {k: ONE}))
            self._gen_elems = tuple(gens)
        return self._gen_elems[i - 1]

    def monomial(self, exps, coeff=ONE) -> "WeilElement":
        k = self._reduce_exponents(tuple(exps))
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


class WeilElement:
    """Sparse coefficient vector over a WeilAlgebra basis.

    Coefficients may be rationals or any ring value supporting +, -, * and
    truth-testing (zero is falsy).  Mixed-algebra arithmetic is rejected.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValidationError("elements of different algebras")

    def __add__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return WeilElement(self.algebra, out)

    def __neg__(self):
        return WeilElement(self.algebra, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeilElement):
            self._check(other)
            rows = self.algebra._rows
            a, b = self.coeffs, other.coeffs
            if (len(a) > 1 and len(b) > 1 and all(type(c) is Q for c in a.values())
                    and all(type(c) is Q for c in b.values())):
                return WeilElement(self.algebra, _rational_product(rows, a, b))
            out = {}
            for i, ci in a.items():
                row = rows[i]
                for j, cj in b.items():
                    k = row.get(j)
                    if k is None:
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
            return WeilElement(self.algebra, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "WeilElement":
        if not c:
            return self.algebra.zero()
        out = {}
        for k, v in self.coeffs.items():
            s = c * v
            if s:
                out[k] = s
        return WeilElement(self.algebra, out)

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("nilpotent elements have no negative powers")
        if e == 0:
            return self.algebra.one()
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, WeilElement) and self.algebra is other.algebra
                and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def coeff(self, exps):
        """Coefficient of the (reduced) monomial with the given exponents."""
        k = self.algebra.index.get(tuple(exps))
        return self.coeffs.get(k, Q(0)) if k is not None else Q(0)

    def dense(self):
        return [self.coeffs.get(k, Q(0)) for k in range(self.algebra.dim)]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            mono = self.algebra.monomial_str(k)
            c = self.coeffs[k]
            bits.append(f"{c}" if mono == "1" else f"{c}*{mono}")
        return " + ".join(bits)


def _rational_product(rows, a: dict, b: dict) -> dict:
    """Product coefficients of two rational coefficient dicts.

    Each side is scaled to integer numerators over its lcm denominator; the
    numerators are accumulated along each row's surviving pairs and every
    nonzero sum becomes one rational over the product of the denominators.
    """
    # Lists, not generators: unpacking a generator grows the argument tuple
    # by resizing, and the tuple freelists then keep one stranded tuple per
    # call until a full collection (about 2 MB more peak RSS on jet_eval).
    da = lcm(*[c.denominator for c in a.values()])
    db = lcm(*[c.denominator for c in b.values()])
    xa = {i: c.numerator * (da // c.denominator) for i, c in a.items()}
    xb = {j: c.numerator * (db // c.denominator) for j, c in b.items()}
    acc = {}
    for i, x in xa.items():
        for j, k in rows[i].items():
            y = xb.get(j)
            if y is not None:
                acc[k] = acc.get(k, 0) + x * y
    den = da * db
    if den == 1:
        return {k: Q(s) for k, s in acc.items() if s}
    return {k: Q(s, den) for k, s in acc.items() if s}


def from_dense(algebra: WeilAlgebra, values) -> WeilElement:
    return WeilElement(algebra, {k: v for k, v in enumerate(values) if v})
