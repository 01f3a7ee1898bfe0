"""Weil-valued points of coordinate spaces and the strong-difference calculus.

A MicroPoint is an m-tuple of Weil-algebra elements with rational
coefficients: the multi-expansion of a point along nilpotent directions.  A
coordinate with polynomial coefficients is refused when the point is made, so
nothing downstream tests for one.  Points are built fraction-free by one
constructor: each m-vector of a table or of a six-cube configuration's free
data is read once into numerators and denominators, and each coordinate is
its numerators over their lcm, a form that is already reduced.  Each value
is read by `rationals.as_rational`, the reader the JSON decoders use, so
exponent notation is refused as they refuse it.  The six cubes of a
configuration share their 16 distinct vectors, so each of those is read once
for all six.  The cubes of three vector fields are the point itself flowed
along them, in rational Weil arithmetic from the start.  Squares (two
directions) and cubes (three) are glued along common restrictions by an
exact linear solve that inverts the relevant pullback square; the strong
difference of a compatible pair is the restriction of that unique gluing
along a fresh direction.

The four gluing configurations are data, not code: each AmalgamationCase
carries the apex object, the two leg substitutions (one twisted by a product
term, one zero-padded), the shared restriction and the extraction map.  One
solver serves them all, and it works unchanged for any coefficient space over
the rationals, which is how the bracket machinery on kernel-valued forms
reuses it.  Two legs glue exactly when they agree on the shared restriction,
and that is the one consistency check: it runs on every coordinate before
any solve.  A case's gluing system is a constant matrix, so each case
compiles it once, when it is created, into its sparse integer solution map,
and gluing walks its rows as restriction walks a morphism's.  So points
glue fraction-free: each coordinate pair goes through the check and the
solve as sparse integer numerators over one common denominator.  A case
holds its leg, apex and shared algebras, and a morphism its source and
target algebras, so gluing and restricting look no algebra up.  Tangents at
one base point add fraction-free too.  AmalgamationCase is a plain slotted
class, so importing micro loads no dataclass machinery.

Restricting a point maps each coordinate through the morphism's dual algebra
map, InfMorphism.pullback_element.  A six-cube configuration checks its
membership conditions once, when it is made: two cubes agree on their shared
restriction exactly when their inner strong difference glues, and the glued
differences are kept for the threefold difference.
"""

from collections.abc import Mapping
from math import lcm
from types import MappingProxyType

from .errors import InternalError, PreconditionError, ValidationError
from .linsolve import ReducedMatrix, gather_rows, row_entries, solve_exact
from .morphisms import InfMorphism, axis_map, inclusion
from .poly import Poly, PolyMap
from .rationals import Q, as_rational
from .simplicial import SimplicialObject, d_cube, d_paren
from .weil import WeilAlgebra, WeilElement, from_numerators, from_reduced, make_algebra


# ---------------------------------------------------------------------------
# points


def _key_exponents(n: int, key) -> list:
    """Exponent vector of a 1-based axis-index tuple such as (1, 1, 3)."""
    exps = [0] * n
    for i in key:
        if not 1 <= i <= n:
            raise ValidationError(f"monomial {key} names a generator outside 1..{n}")
        exps[i - 1] += 1
    return exps


def _vector_parts(vec, m: int) -> list:
    """An m-vector read once, as each entry's (numerator, denominator).

    A bare scalar is a one-entry vector.  Each entry converts with
    `rationals.as_rational`, before the length is checked.
    """
    vec = [as_rational(v) for v in (vec if isinstance(vec, (list, tuple)) else [vec])]
    if len(vec) != m:
        raise ValidationError("coefficient vector length != m")
    return [(v.numerator, v.denominator) for v in vec]


def _point(alg: WeilAlgebra, m: int, entries: dict) -> "MicroPoint":
    """The point with the vector parts entries[pos] at each basis position.

    Each coordinate is its nonzero numerators over the lcm L of its entries'
    denominators.  Those are reduced, so each prime power dividing L also
    divides some entry's denominator and not its numerator: the form is
    already reduced and needs no gcd pass.
    """
    coords = []
    for j in range(m):
        den = lcm(*[parts[j][1] for parts in entries.values()])
        coords.append(from_reduced(alg, {pos: parts[j][0] * (den // parts[j][1])
                                         for pos, parts in entries.items() if parts[j][0]},
                                   den))
    return MicroPoint(alg, m, coords)


class MicroPoint:
    __slots__ = ("algebra", "m", "coords")

    def __init__(self, algebra, m: int, coords):
        coords = tuple(coords)
        if len(coords) != m:
            raise ValidationError("coordinate count != m")
        for c in coords:
            if c.algebra is not algebra:
                raise ValidationError("coordinates on mixed algebras")
            if c._den is None:
                raise ValidationError("point coordinates must be rational")
        self.algebra = algebra
        self.m = m
        self.coords = coords

    @staticmethod
    def from_table(obj: SimplicialObject, m: int, table: dict) -> "MicroPoint":
        """Build from {axis-index-tuple: m rationals}.

        Keys are 1-based index tuples naming the monomial with those factors,
        in any order: () the unit slot, (1, 3) or (3, 1) the d1*d3 slot,
        (1, 1) the d1^2 slot for higher-order generators.  A bare scalar
        stands for a one-entry vector.  Each vector is read once, in table
        order, and a later key naming the same monomial overwrites an earlier
        one, zero included.
        """
        alg = make_algebra(obj)
        entries = {}
        for key, vec in table.items():
            pos = alg.index.get(tuple(_key_exponents(obj.n, key)))
            if pos is None:
                raise ValidationError(f"monomial {key} is not in the basis")
            entries[pos] = _vector_parts(vec, m)
        return _point(alg, m, entries)

    def coeff(self, key):
        """m-vector at an axis-index tuple such as (1, 2) for d1*d2."""
        exps = _key_exponents(self.algebra.source.n, key)
        return tuple(c.coeff(exps) for c in self.coords)

    def base(self):
        return tuple(c.coeffs.get(0, Q(0)) for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, MicroPoint) and self.algebra is other.algebra
                and self.m == other.m and self.coords == other.coords)

    def __repr__(self):
        return f"MicroPoint({self.algebra.source!r}, m={self.m}, {list(self.coords)})"


def restrict(p: MicroPoint, f: InfMorphism) -> MicroPoint:
    """Restrict a point along a map of infinitesimal objects."""
    src, tgt = f.algebras()
    if p.algebra is not tgt:
        raise ValidationError(
            f"point lives on {p.algebra.source!r}, morphism targets {f.target!r}")
    return MicroPoint(src, p.m, [f.pullback_element(c) for c in p.coords])


# ---------------------------------------------------------------------------
# gluing configurations


class AmalgamationCase:
    """One gluing configuration and its reduced gluing system.

    system stacks the twisted rows over the flat rows, so the apex point
    restricting to (first leg, second leg) solves system x = (c1, c2).  The
    matrix never changes, so it is compiled here, once.  The leg, apex and
    shared algebras are held from here on: make_algebra keeps every algebra
    it builds, so each is the one make_algebra would return.  Cases compare
    by identity.
    """

    __slots__ = ("name", "leg", "apex", "twisted", "flat", "shared", "shared_incl",
                 "extract", "result", "system", "leg_alg", "apex_alg", "shared_alg")

    def __init__(self, name: str, leg: SimplicialObject, apex: SimplicialObject,
                 twisted: InfMorphism, flat: InfMorphism, shared: SimplicialObject,
                 shared_incl: InfMorphism, extract: InfMorphism, result: SimplicialObject):
        self.name = name
        self.leg = leg
        self.apex = apex
        self.twisted = twisted          # leg -> apex, extra slot carries a product term
        self.flat = flat                # leg -> apex, extra slot zero
        self.shared = shared
        self.shared_incl = shared_incl  # shared -> leg
        self.extract = extract          # result object -> apex
        self.result = result
        system = ReducedMatrix(twisted.matrix() + flat.matrix())
        # integer numerators map to integers only under integer entries
        if any(type(e) is not int for _j, row in row_entries(system.sparse_rows) for _i, e in row):
            raise InternalError(f"{name}: gluing needs an integer solution map")
        self.system = system
        self.leg_alg = make_algebra(leg)
        self.apex_alg = make_algebra(apex)
        self.shared_alg = make_algebra(shared)


def _gluing_case(name: str, n: int, pair: tuple, kept: tuple) -> AmalgamationCase:
    """Two d_cube(n) legs glued along a new generator n + 1.

    The new generator vanishes against each axis of pair, and the twisted
    leg carries pair's product there; the result keeps kept and the new axis.
    """
    leg = d_cube(n)
    apex = SimplicialObject(n + 1, frozenset({(a, n + 1) for a in pair}))
    coords = [Poly.var(n, i) for i in range(n)]
    twist = Poly.var(n, pair[0] - 1) * Poly.var(n, pair[1] - 1)
    shared = SimplicialObject(n, frozenset({pair}))
    result = d_cube(len(kept) + 1)
    return AmalgamationCase(
        name, leg, apex, InfMorphism(leg, apex, coords + [twist]),
        InfMorphism(leg, apex, coords + [Poly.zero(n)]), shared, inclusion(shared, leg),
        axis_map(result, apex, kept + (n + 1,)), result)


_CASES = None


def amalgamation_cases() -> dict:
    global _CASES
    if _CASES is None:
        cubes = [_gluing_case(f"cube-{i}", 3, tuple(sorted({1, 2, 3} - {i})), (i,))
                 for i in (1, 2, 3)]
        _CASES = {c.name: c for c in [_gluing_case("square", 2, (1, 2), ())] + cubes}
    return _CASES


def get_case(case) -> AmalgamationCase:
    if isinstance(case, AmalgamationCase):
        return case
    cases = amalgamation_cases()
    if case not in cases:
        raise ValidationError(f"unknown amalgamation case {case!r}")
    return cases[case]


# ---------------------------------------------------------------------------
# generic coefficient-level solver (V-valued)


def case_compat_errors(case: AmalgamationCase, c1, c2) -> list:
    """Shared-restriction mismatches between two legs' sparse coefficients.

    c1 and c2 map leg basis indices to values; the shared monomials whose
    restrictions differ are named in basis order.
    """
    rows = case.shared_incl.sparse_rows()
    r1, r2 = gather_rows(rows, c1), gather_rows(rows, c2)
    if r1 == r2:
        return []
    return [case.shared_alg.monomial_str(i) for i in sorted(r1.keys() | r2.keys())
            if not (r1.get(i) == r2.get(i))]


def case_solve(case: AmalgamationCase, c1, c2) -> dict:
    """Sparse apex coefficients restricting to c1 (twisted leg) and c2 (flat leg).

    Precondition: the legs agree on the shared restriction, that is,
    case_compat_errors(case, c1, c2) is empty.  The solution map reads no
    consistency, so legs that disagree give a wrong apex, not an error.
    """
    rhs = dict(c1)
    offset = case.leg_alg.dim
    for k, v in c2.items():
        rhs[offset + k] = v
    return solve_exact(case.system, rhs)


# ---------------------------------------------------------------------------
# point-level operations


def amalgamate(g1: MicroPoint, g2: MicroPoint, case) -> MicroPoint:
    """Glue two leg points into the unique apex point over their shared restriction.

    Each apex coordinate is born reduced over L, the lcm of the legs'
    denominators, with no gcd pass.  For each prime factor of L, the leg
    whose reduced denominator holds L's full power of it keeps a numerator
    the prime does not divide, so the scaled leg numerators share no factor
    with L.  The apex restricts to each leg by an integer map (after the
    compat check), so a factor of L in every apex numerator would be in
    every leg numerator.
    """
    case = get_case(case)
    for g in (g1, g2):
        if g.algebra is not case.leg_alg:
            raise ValidationError(f"point does not live on {case.leg!r}")
    if g1.m != g2.m:
        raise ValidationError("points of different model dimension")
    # each coordinate pair glues as integer numerators over one denominator
    legs = []
    for a, b in zip(g1.coords, g2.coords):
        den = lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        legs.append((den, a._num if fa == 1 else {k: n * fa for k, n in a._num.items()},
                     b._num if fb == 1 else {k: n * fb for k, n in b._num.items()}))
    for j, (_den, c1, c2) in enumerate(legs):
        bad = case_compat_errors(case, c1, c2)
        if bad:
            raise PreconditionError(f"legs disagree on the shared restriction: "
                                    f"coordinate {j}, monomial {bad[0]}")
    apex_alg = case.apex_alg
    out = [from_reduced(apex_alg, case_solve(case, c1, c2), den)
           for den, c1, c2 in legs]
    return MicroPoint(apex_alg, g1.m, out)


def strong_diff(g1: MicroPoint, g2: MicroPoint) -> MicroPoint:
    """Tangent vector extracted from two squares agreeing off the corner."""
    return restrict(amalgamate(g1, g2, "square"), get_case("square").extract)


def strong_diff_i(g1: MicroPoint, g2: MicroPoint, i: int) -> MicroPoint:
    """Square extracted from two cubes agreeing away from axis i's complement."""
    if i not in (1, 2, 3):
        raise ValidationError("axis must be 1, 2 or 3")
    case = get_case(f"cube-{i}")
    return restrict(amalgamate(g1, g2, case), case.extract)


def tangent_principal(t: MicroPoint):
    return t.coeff((1,))


def _same_base(x: WeilElement, y: WeilElement) -> bool:
    """Whether two coordinates share their unit-slot coefficient."""
    return x._num.get(0, 0) * y._den == y._num.get(0, 0) * x._den


def _off_base(w: WeilElement) -> WeilElement:
    """w with its unit-slot coefficient dropped."""
    return from_numerators(w.algebra, {k: c for k, c in w._num.items() if k}, w._den)


def add_tangents(a: MicroPoint, b: MicroPoint) -> MicroPoint:
    """Sum of two tangents at one base point: a plus b's off-base part."""
    if a.m != b.m or not all(map(_same_base, a.coords, b.coords)):
        raise PreconditionError("tangent vectors at different base points")
    return MicroPoint(a.algebra, a.m,
                      [x + _off_base(y) for x, y in zip(a.coords, b.coords)])


# ---------------------------------------------------------------------------
# flows of vector fields


def _flow_point(fields, order, point, alg: WeilAlgebra):
    """The point flowed along the fields, a rational Weil element per coordinate.

    order = (i, j, k) applies field k first, then j, then i; field a always
    advances along direction d_a.  Evaluation commutes with composition, so
    each step evaluates its field once at the coordinates reached so far,
    with one power table per step.
    """
    one = alg.one()
    coords = [one.scale(v) for v in point]
    for axis in reversed(order):
        gen = alg.generator(axis)
        coords = [c + gen * v for c, v in zip(coords, fields[axis - 1].eval(coords, one))]
    return coords


# ---------------------------------------------------------------------------
# six-cube configurations and the threefold difference


TRIANGLE_LABELS = ("123", "132", "213", "231", "312", "321")

# per axis: the shared sub-object kills the complementary pair, and the two
# ordered pairs feed the inner strong differences in that direction
_TRIANGLE_GROUPS = (
    (1, (2, 3), (("123", "132"), ("231", "321"))),
    (2, (1, 3), (("231", "213"), ("312", "132"))),
    (3, (1, 2), (("312", "321"), ("123", "213"))),
)

# per off-diagonal slot d_j*d_k: the two agreement classes of cubes, found by
# chasing which restriction agreements preserve that slot
_TRIANGLE_CLASSES = {
    (1, 2): ({"123", "132", "312"}, {"321", "231", "213"}),
    (1, 3): ({"213", "123", "132"}, {"312", "321", "231"}),
    (2, 3): ({"132", "312", "321"}, {"123", "213", "231"}),
}

# A configuration's free data as one list of 16 vectors: base4 (0-3), each
# slot's two class vectors in _TRIANGLE_CLASSES order (4-9) and the corners
# in TRIANGLE_LABELS order (10-15).  Each cube reads the vectors at
# _TRIANGLE_READS[label] into the monomials _TRIANGLE_KEYS, in that order.
_TRIANGLE_KEYS = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
_TRIANGLE_READS = {
    label: (0, 1, 2, 3,
            *(4 + 2 * s + (label not in cls_a)
              for s, (cls_a, _cls_b) in enumerate(_TRIANGLE_CLASSES.values())),
            10 + c)
    for c, label in enumerate(TRIANGLE_LABELS)}


class TriangleConfig:
    """Six cubes labelled by the orders of three directions.

    The membership conditions are checked once, here, by gluing each pair's
    inner strong difference and comparing an axis's two differences off the
    corner.  The cubes are kept in a read-only mapping, so the broken
    conditions and the inner differences stay valid for the instance.
    """

    __slots__ = ("m", "cubes", "_violations", "_inner")

    def __init__(self, cubes: dict):
        if set(cubes) != set(TRIANGLE_LABELS):
            raise ValidationError(f"need exactly the six labels {TRIANGLE_LABELS}")
        alg = get_case("cube-1").leg_alg
        ms = {c.m for c in cubes.values()}
        if len(ms) != 1:
            raise ValidationError("cubes of different model dimension")
        for c in cubes.values():
            if c.algebra is not alg:
                raise ValidationError("every cube must live on three square-zero directions")
        self.m = ms.pop()
        self.cubes = cubes = MappingProxyType(dict(cubes))
        # _inner maps each axis whose two pairs glue to its two inner strong
        # differences; with no violations every axis is present
        bad = []
        inner = {}
        sq_incl = inclusion(d_paren(2), d_cube(2))
        for axis, others, pairs in _TRIANGLE_GROUPS:
            diffs = []
            for a, b in pairs:
                try:
                    diffs.append(strong_diff_i(cubes[a], cubes[b], axis))
                except PreconditionError:
                    bad.append(
                        f"cubes {a} and {b} disagree after killing d{others[0]}*d{others[1]}")
            if len(diffs) < 2:
                continue
            inner[axis] = diffs
            if restrict(diffs[0], sq_incl) != restrict(diffs[1], sq_incl):
                bad.append(f"axis-{axis} differences disagree off the corner")
        self._violations = bad
        self._inner = inner

    def violations(self) -> list:
        """All broken membership conditions, as human-readable strings."""
        return list(self._violations)


def jacobi3_defect(t: TriangleConfig) -> MicroPoint:
    """Sum of the three iterated strong differences; zero principal part expected.

    The inner strong differences are the ones the membership check glued.
    """
    if t._violations:
        raise PreconditionError("; ".join(t._violations))
    total = None
    for axis, _others, _pairs in _TRIANGLE_GROUPS:
        tangent = strong_diff(*t._inner[axis])
        total = tangent if total is None else add_tangents(total, tangent)
    return total


def triangle_from_vector_fields(x: PolyMap, y: PolyMap, z: PolyMap, at) -> TriangleConfig:
    """The six flow composites of three vector fields, evaluated at a point.

    Each cube is the point flowed along the fields in its label's order, so
    its unit slot is the point itself; the point must have m coordinates.
    The cubes meet the membership conditions by construction, unchecked here:
    violations() lists any broken one, and jacobi3_defect refuses it.
    """
    dims = {f.in_dim for f in (x, y, z)} | {f.out_dim for f in (x, y, z)}
    if len(dims) != 1:
        raise ValidationError("vector fields on different model dimensions")
    m = dims.pop()
    point = [as_rational(v) for v in at]
    if len(point) != m:
        raise ValidationError(f"point needs {m} coordinates")
    fields = (x, y, z)
    alg = get_case("cube-1").leg_alg
    cubes = {label: MicroPoint(alg, m, _flow_point(fields, tuple(map(int, label)), point, alg))
             for label in TRIANGLE_LABELS}
    return TriangleConfig(cubes)


def triangle_from_slots(m: int, base4, slots: dict, corners: dict) -> TriangleConfig:
    """Assemble a configuration from the free data of the membership equations.

    base4: vectors for the unit, d1, d2 and d3 slots, shared by all six
    cubes.  slots[(j, k)]: pair of vectors (one per agreement class) for the
    d_j*d_k slot.  corners[label]: the free d1*d2*d3 vector per cube.
    The two classes per off-diagonal slot come from chasing which restriction
    agreements preserve that slot; corners are unconstrained.

    The shape of the data is checked before any value is read.  The six
    cubes share 16 distinct vectors, and each is read once, the first time a
    cube needs it.  The cubes are built label by label, each from its unit
    slot to its corner, so the first bad value met is the one that a table
    per cube, read in that order, would meet first.
    """
    if not isinstance(base4, (list, tuple)) or len(base4) != 4:
        raise ValidationError("need exactly four base vectors (unit, d1, d2, d3)")
    if not isinstance(slots, Mapping) or set(slots) != set(_TRIANGLE_CLASSES):
        raise ValidationError(f"need exactly the slot pairs {tuple(_TRIANGLE_CLASSES)}")
    for pair in _TRIANGLE_CLASSES:
        if not isinstance(slots[pair], (list, tuple)) or len(slots[pair]) != 2:
            raise ValidationError(f"need exactly two vectors for slot {pair}, one per class")
    if not isinstance(corners, Mapping) or set(corners) != set(TRIANGLE_LABELS):
        raise ValidationError(f"need exactly the six labels {TRIANGLE_LABELS} as corners")
    vectors = [*base4, *(v for pair in _TRIANGLE_CLASSES for v in slots[pair]),
               *(corners[label] for label in TRIANGLE_LABELS)]
    alg = get_case("cube-1").leg_alg
    positions = [alg.index[tuple(_key_exponents(3, key))] for key in _TRIANGLE_KEYS]
    parts = [None] * len(vectors)
    cubes = {}
    for label in TRIANGLE_LABELS:
        entries = {}
        for pos, r in zip(positions, _TRIANGLE_READS[label]):
            if parts[r] is None:
                parts[r] = _vector_parts(vectors[r], m)
            entries[pos] = parts[r]
        cubes[label] = _point(alg, m, entries)
    return TriangleConfig(cubes)
