"""Maps of infinitesimal objects as nilpotent polynomial substitutions.

An InfMorphism from S to T is a T.n-tuple of polynomials in S's generators
with zero constant term, subject to well-definedness: every ideal generator
of T (each vanishing product and each power-bound monomial) must reduce to
zero in S's algebra after substitution.  Dually it is an algebra map from
T's algebra to S's; on points it restricts T-expansions to S-expansions.
The matrix is read from integer numerators, so an integer map holds ints
and makes no rational.  Pulling points back walks the matrix's nonzero
rows, stored by `linsolve.store_rows`, with `linsolve.gather_rows`, as
gluing walks its compiled map.  A map looks its source and target algebras
up and builds its generator images once, when it is made, so validating,
building the matrix and pulling points back look no algebra up.  Maps
compose by `then`; the identity of an object is its inclusion in itself.
"""

from .errors import ValidationError
from .linsolve import gather_rows, store_rows
from .poly import Poly
from .rationals import Q
from .simplicial import SimplicialObject
from .weil import WeilElement, from_numerators, make_algebra


class InfMorphism:
    __slots__ = ("source", "target", "subst", "_matrix", "_rows", "_integral", "_algebras",
                 "_images")

    def __init__(self, source: SimplicialObject, target: SimplicialObject, subst):
        """subst: one Poly in source.n variables per target generator."""
        subst = tuple(subst)
        if len(subst) != target.n:
            raise ValidationError(
                f"need {target.n} substitution components, got {len(subst)}")
        for p in subst:
            if p.n != source.n:
                raise ValidationError("substitution variable count != source generators")
            if p.constant_term():
                raise ValidationError("substitution must have zero constant term")
        self.source = source
        self.target = target
        self.subst = subst
        self._matrix = self._rows = None
        self._algebras = make_algebra(source), make_algebra(target)
        # the generator images as elements of the source algebra
        alg = self._algebras[0]
        self._images = [
            from_numerators(alg, {alg.index[e]: n for e, n in p.numerators.items()
                                  if e in alg.index}, p.denominator)
            for p in subst]
        self._validate()

    def _validate(self):
        imgs = self._images
        for i, b in enumerate(self.target.bounds):
            if imgs[i] ** b:
                raise ValidationError(
                    f"ideal not preserved: image of generator {i + 1} "
                    f"has nonzero power {b}")
        alg = self._algebras[0]
        for seq in sorted(self.target.relations):
            prod = alg.one()
            for i in seq:
                prod = prod * imgs[i - 1]
            if prod:
                mono = "*".join(f"d{i}" for i in seq)
                raise ValidationError(f"ideal not preserved: {mono} maps to {prod!r}")

    def matrix(self):
        """Rational matrix of the induced coefficient map on points.

        Rows are indexed by the source algebra basis, columns by the target
        basis: column beta holds the expansion of the substituted monomial
        d^beta in the source algebra, read from its integer numerators: an
        int where the entry is integral, a rational only where it is not.
        """
        if self._matrix is not None:
            return self._matrix
        src, tgt = self._algebras
        imgs = self._images
        cols = []
        for beta in tgt.basis:
            w = src.one()
            for i, e in enumerate(beta):
                for _ in range(e):
                    w = w * imgs[i]
            col = [0] * src.dim
            for k, n in w._num.items():
                q, r = divmod(n, w._den)
                col[k] = int(q) if r == 0 else Q(n, w._den)
            cols.append(col)
        self._matrix = [[col[i] for col in cols] for i in range(src.dim)]
        return self._matrix

    def sparse_rows(self):
        """The nonzero matrix rows (row, ((column, value), ...)), in order,
        as `linsolve.store_rows` stores them.

        The matrix is constant and mostly zero, so restrictions gather these
        entries instead of whole dense rows.  Integral entries are ints, so
        integer coefficient vectors stay integers.
        """
        if self._rows is None:
            rows = [(i, entries) for i, row in enumerate(self.matrix())
                    if (entries := tuple((j, v) for j, v in enumerate(row) if v))]
            self._integral = all(type(v) is int for _i, row in rows for _j, v in row)
            self._rows = store_rows(rows)
        return self._rows

    def algebras(self):
        """(source algebra, target algebra), held since the map was made."""
        return self._algebras

    def pullback_element(self, w: WeilElement) -> WeilElement:
        """Apply the dual algebra map to an element of the target algebra.

        Gathers each nonzero matrix row's entries from w (`gather_rows`).
        Every entry of an inclusion or axis map is an integer, so a rational
        w maps by walking its numerators, reduced once over its denominator.
        """
        rows = self.sparse_rows()
        src, tgt = self._algebras
        if w.algebra is not tgt:
            raise ValidationError("element does not live on the target algebra")
        if self._integral and w._den is not None:
            return from_numerators(src, gather_rows(rows, w._num), w._den)
        return WeilElement(src, gather_rows(rows, w.coeffs))

    def then(self, other: "InfMorphism") -> "InfMorphism":
        """Composite applying self first; requires self.target == other.source."""
        if self.target != other.source:
            raise ValidationError("object mismatch in composition")
        one = Poly.one(self.source.n)
        comps = [p.eval(list(self.subst), one) for p in other.subst]
        src_alg = self._algebras[0]
        reduced = []
        for p in comps:
            keep = {e: c for e, c in p.numerators.items() if e in src_alg.index}
            reduced.append(Poly.from_numerators(self.source.n, keep, p.denominator))
        return InfMorphism(self.source, other.target, reduced)

    def __eq__(self, other):
        return (isinstance(other, InfMorphism) and self.source == other.source
                and self.target == other.target and self.subst == other.subst)

    def __repr__(self):
        return f"InfMorphism({self.source!r} -> {self.target!r}: {list(self.subst)})"


def inclusion(sub: SimplicialObject, ambient: SimplicialObject) -> InfMorphism:
    """Identity substitution from an object with more relations into one with fewer."""
    if sub.n != ambient.n:
        raise ValidationError("inclusion requires equal generator counts")
    return InfMorphism(sub, ambient, [Poly.var(sub.n, i) for i in range(sub.n)])


def axis_map(source: SimplicialObject, target: SimplicialObject, images) -> InfMorphism:
    """d_i of the source goes to the target generator images[i] (1-indexed, 0 drops it)."""
    comps = [Poly.zero(source.n)] * target.n
    for i, tgt_axis in enumerate(images):
        if tgt_axis:
            comps[tgt_axis - 1] = comps[tgt_axis - 1] + Poly.var(source.n, i)
    return InfMorphism(source, target, comps)
