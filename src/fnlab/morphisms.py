"""Maps of infinitesimal objects as nilpotent polynomial substitutions.

An InfMorphism from S to T is a T.n-tuple of polynomials in S's generators
with zero constant term, subject to well-definedness: every ideal generator
of T (each vanishing product and each power-bound monomial) must reduce to
zero in S's algebra after substitution.  Dually it is an algebra map from
T's algebra to S's; on points it restricts T-expansions to S-expansions.
`apply_columns`, the one walk over a map's sparse column entries, serves the
pullback of points, the gluing's compatibility check and the bracket's
extraction.  A map holds its source and target algebras from the first
`columns()` call, so pulling points back looks no algebra up.
"""

from .errors import ValidationError
from .poly import Poly
from .simplicial import SimplicialObject
from .weil import WeilElement, from_numerators, make_algebra


class InfMorphism:
    __slots__ = ("source", "target", "subst", "_matrix", "_columns", "_integral",
                 "_algebras")

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
        self._matrix = None
        self._columns = None
        self._integral = False
        self._algebras = None
        self._validate()

    def _images(self):
        """Generator images as elements of the source algebra."""
        alg = make_algebra(self.source)
        out = []
        for p in self.subst:
            num = {alg.index[e]: n for e, n in p.numerators.items() if e in alg.index}
            out.append(from_numerators(alg, num, p.denominator))
        return out

    def _validate(self):
        imgs = self._images()
        for i, b in enumerate(self.target.bounds):
            if imgs[i] ** b:
                raise ValidationError(
                    f"ideal not preserved: image of generator {i + 1} "
                    f"has nonzero power {b}")
        alg = make_algebra(self.source)
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
        d^beta in the source algebra.
        """
        if self._matrix is not None:
            return self._matrix
        src = make_algebra(self.source)
        tgt = make_algebra(self.target)
        imgs = self._images()
        cols = []
        for beta in tgt.basis:
            w = src.one()
            for i, e in enumerate(beta):
                for _ in range(e):
                    w = w * imgs[i]
            cols.append(w.dense())
        matrix = [[col[i] for col in cols] for i in range(src.dim)]
        self._matrix = matrix
        return matrix

    def columns(self):
        """Nonzero (row, value) entries of each matrix column, in row order.

        The matrix is constant and mostly zero, so restrictions walk these
        entries instead of whole dense columns.  Integral entries are ints,
        so integer coefficient vectors stay integers.
        """
        if self._columns is None:
            matrix = self.matrix()
            self._columns = tuple(
                tuple((i, int(row[j]) if row[j].denominator == 1 else row[j])
                      for i, row in enumerate(matrix) if row[j])
                for j in range(len(matrix[0])))
            self._integral = all(type(v) is int for col in self._columns for _i, v in col)
            self._algebras = make_algebra(self.source), make_algebra(self.target)
        return self._columns

    def algebras(self):
        """(source algebra, target algebra), held from the first columns() call."""
        self.columns()
        return self._algebras

    def pullback_element(self, w: WeilElement) -> WeilElement:
        """Apply the dual algebra map to an element of the target algebra.

        Walks only the nonzero matrix entries of w's columns (`apply_columns`).
        Every entry of an inclusion or axis map is an integer, so a rational
        w maps by walking its numerators, reduced once over its denominator.
        """
        columns = self.columns()
        src, tgt = self._algebras
        if w.algebra is not tgt:
            raise ValidationError("element does not live on the target algebra")
        if self._integral and w._den is not None:
            return from_numerators(src, apply_columns(columns, w._num), w._den)
        return WeilElement(src, apply_columns(columns, w.coeffs))

    def then(self, other: "InfMorphism") -> "InfMorphism":
        """Composite applying self first; requires self.target == other.source."""
        if self.target != other.source:
            raise ValidationError("object mismatch in composition")
        one = Poly.one(self.source.n)
        comps = [p.eval(list(self.subst), one) for p in other.subst]
        src_alg = make_algebra(self.source)
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


def apply_columns(columns, values) -> dict:
    """Image of a sparse {column: value} under a map's column entries.

    columns[j] lists the nonzero (row, entry) pairs of column j, as
    `InfMorphism.columns` gives them.  The image is a sparse {row: value} in
    sorted row order, with zero sums dropped.  A unit entry moves a value
    without scaling it; values need only + and c * v.
    """
    acc = {}
    for j, v in values.items():
        for i, e in columns[j]:
            t = v if e == 1 else e * v
            acc[i] = acc[i] + t if i in acc else t
    return {i: s for i, s in sorted(acc.items()) if s}


def compose_morphisms(f: InfMorphism, g: InfMorphism) -> InfMorphism:
    """g after f; precondition f.target == g.source."""
    return f.then(g)


def identity_morphism(obj: SimplicialObject) -> InfMorphism:
    return InfMorphism(obj, obj, [Poly.var(obj.n, i) for i in range(obj.n)])


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
