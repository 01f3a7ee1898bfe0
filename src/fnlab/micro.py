"""Weil-valued points of coordinate spaces and the strong-difference calculus.

A MicroPoint is an m-tuple of Weil-algebra elements: the multi-expansion of a
point along nilpotent directions.  Squares (two directions) and cubes (three)
are glued along common restrictions by an exact linear solve that inverts the
relevant pullback square; the strong difference of a compatible pair is the
restriction of that unique gluing along a fresh direction.

The four gluing configurations are data, not code: each AmalgamationCase
carries the apex object, the two leg substitutions (one twisted by a product
term, one zero-padded), the shared restriction and the extraction map.  One
solver serves them all, and it works unchanged for any coefficient space over
the rationals, which is how the bracket machinery on kernel-valued forms
reuses it.  A case's gluing system is a constant matrix, so each case reduces
it once when it is created and every gluing replays the row operations.
Every row operation is the int 1, so rational points glue fraction-free: each
coordinate pair goes through the check and the replay as integer numerators
over one common denominator.  A case holds its leg, apex and shared
algebras, and a morphism its source and target algebras, so gluing and
restricting look no algebra up.  Tangents at one base point add
fraction-free too.

Restricting a point maps each coordinate through the morphism's dual algebra
map, InfMorphism.pullback_element.  A six-cube configuration checks its
membership conditions once, when it is made: two cubes agree on their shared
restriction exactly when their inner strong difference glues, and the glued
differences are kept for the threefold difference.
"""

from dataclasses import dataclass, field
from math import lcm
from types import MappingProxyType

from .errors import InternalError, PreconditionError, ValidationError
from .linsolve import ReducedMatrix, solve_exact
from .morphisms import InfMorphism, apply_columns, axis_map, inclusion
from .poly import Poly, PolyMap
from .rationals import RATIONAL_TYPES, Q
from .simplicial import SimplicialObject, d_cube, d_paren
from .weil import WeilAlgebra, WeilElement, from_dense, from_numerators, make_algebra


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


class MicroPoint:
    __slots__ = ("algebra", "m", "coords")

    def __init__(self, algebra, m: int, coords):
        coords = tuple(coords)
        if len(coords) != m:
            raise ValidationError("coordinate count != m")
        for c in coords:
            if c.algebra is not algebra:
                raise ValidationError("coordinates on mixed algebras")
        self.algebra = algebra
        self.m = m
        self.coords = coords

    @staticmethod
    def from_table(obj: SimplicialObject, m: int, table: dict) -> "MicroPoint":
        """Build from {axis-index-tuple: m rationals}.

        Keys are sorted 1-based index tuples: () the unit slot, (1, 3) the
        d1*d3 slot, (1, 1) the d1^2 slot for higher-order generators.
        """
        alg = make_algebra(obj)
        coords = [{} for _ in range(m)]
        for key, vec in table.items():
            pos = alg.index.get(tuple(_key_exponents(obj.n, key)))
            if pos is None:
                raise ValidationError(f"monomial {key} is not in the basis")
            # ints and rationals pass as they are; anything else converts
            vec = [v if type(v) in RATIONAL_TYPES else Q(v)
                   for v in (vec if isinstance(vec, (list, tuple)) else [vec])]
            if len(vec) != m:
                raise ValidationError("coefficient vector length != m")
            # a later key naming the same monomial overwrites, zero included
            for coord, v in zip(coords, vec):
                coord[pos] = v
        return MicroPoint(alg, m, [WeilElement(alg, coord) for coord in coords])

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


@dataclass(frozen=True)
class AmalgamationCase:
    """One gluing configuration and its reduced gluing system.

    system stacks the twisted rows over the flat rows, so the apex point
    restricting to (first leg, second leg) solves system x = (c1, c2).  The
    matrix never changes, so it is reduced here, once; row_labels name its
    rows for error messages.  The leg, apex and shared algebras are held
    from here on: make_algebra keeps every algebra it builds, so each is the
    one make_algebra would return.
    """

    name: str
    leg: SimplicialObject
    apex: SimplicialObject
    twisted: InfMorphism    # leg -> apex, extra slot carries a product term
    flat: InfMorphism       # leg -> apex, extra slot zero
    shared: SimplicialObject
    shared_incl: InfMorphism  # shared -> leg
    extract: InfMorphism      # result object -> apex
    result: SimplicialObject
    system: ReducedMatrix = field(init=False, repr=False, compare=False)
    row_labels: tuple = field(init=False, repr=False, compare=False)
    leg_alg: WeilAlgebra = field(init=False, repr=False, compare=False)
    apex_alg: WeilAlgebra = field(init=False, repr=False, compare=False)
    shared_alg: WeilAlgebra = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        leg_alg = make_algebra(self.leg)
        system = ReducedMatrix(self.twisted.matrix() + self.flat.matrix())
        labels = tuple(f"{leg_alg.monomial_str(i)} ({which} leg)"
                       for which in ("first", "second") for i in range(leg_alg.dim))
        # integer numerators replay to integers only under unit row operations
        if any(inv != 1 or any(f != 1 for _r, f in elims)
               for _p, inv, elims in system.steps):
            raise InternalError(f"{self.name}: gluing needs unit row operations")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "row_labels", labels)
        object.__setattr__(self, "leg_alg", leg_alg)
        object.__setattr__(self, "apex_alg", make_algebra(self.apex))
        object.__setattr__(self, "shared_alg", make_algebra(self.shared))


def _square_case() -> AmalgamationCase:
    leg = d_cube(2)
    apex = SimplicialObject(3, frozenset({(1, 3), (2, 3)}))
    twisted = InfMorphism(leg, apex, [
        Poly.var(2, 0), Poly.var(2, 1), Poly.var(2, 0) * Poly.var(2, 1)])
    flat = InfMorphism(leg, apex, [Poly.var(2, 0), Poly.var(2, 1), Poly.zero(2)])
    shared = d_paren(2)
    return AmalgamationCase(
        "square", leg, apex, twisted, flat, shared, inclusion(shared, leg),
        axis_map(d_cube(1), apex, (3,)), d_cube(1))


def _cube_case(axis: int) -> AmalgamationCase:
    leg = d_cube(3)
    others = tuple(sorted({1, 2, 3} - {axis}))
    j, k = others
    apex = SimplicialObject(4, frozenset({(a, 4) for a in others}))
    twist = [Poly.var(3, 0), Poly.var(3, 1), Poly.var(3, 2),
             Poly.var(3, j - 1) * Poly.var(3, k - 1)]
    flat = [Poly.var(3, 0), Poly.var(3, 1), Poly.var(3, 2), Poly.zero(3)]
    shared = SimplicialObject(3, frozenset({others}))
    return AmalgamationCase(
        f"cube-{axis}", leg, apex,
        InfMorphism(leg, apex, twist), InfMorphism(leg, apex, flat),
        shared, inclusion(shared, leg),
        axis_map(d_cube(2), apex, (axis, 4)), d_cube(2))


_CASES = None


def amalgamation_cases() -> dict:
    global _CASES
    if _CASES is None:
        _CASES = {c.name: c for c in
                  (_square_case(), _cube_case(1), _cube_case(2), _cube_case(3))}
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
    """Shared-restriction mismatches between two dense leg coefficient lists.

    The shared monomials whose restrictions differ are named in basis order.
    """
    columns = case.shared_incl.columns()
    r1 = apply_columns(columns, dict(enumerate(c1)))
    r2 = apply_columns(columns, dict(enumerate(c2)))
    if r1 == r2:
        return []
    return [case.shared_alg.monomial_str(i) for i in sorted(r1.keys() | r2.keys())
            if not (r1.get(i) == r2.get(i))]


def case_solve(case: AmalgamationCase, c1, c2):
    """Unique apex coefficients restricting to c1 (twisted leg) and c2 (flat leg).

    Replays the case's stored reduction.
    """
    return solve_exact(case.system, list(c1) + list(c2), row_labels=case.row_labels)


# ---------------------------------------------------------------------------
# point-level operations


def amalgamate(g1: MicroPoint, g2: MicroPoint, case) -> MicroPoint:
    """Glue two leg points into the unique apex point over their shared restriction."""
    case = get_case(case)
    for g in (g1, g2):
        if g.algebra is not case.leg_alg:
            raise ValidationError(f"point does not live on {case.leg!r}")
    if g1.m != g2.m:
        raise ValidationError("points of different model dimension")
    # each coordinate pair glues as integer numerators over one denominator
    dense = []
    for a, b in zip(g1.coords, g2.coords):
        den = lcm(a.denominator, b.denominator)
        dense.append((den, a.numerators(den), b.numerators(den)))
    for j, (_den, c1, c2) in enumerate(dense):
        bad = case_compat_errors(case, c1, c2)
        if bad:
            raise PreconditionError(f"legs disagree on the shared restriction: "
                                    f"coordinate {j}, monomial {bad[0]}")
    apex_alg = case.apex_alg
    out = []
    for den, c1, c2 in dense:
        num = case_solve(case, c1, c2)
        out.append(from_numerators(apex_alg, {k: n for k, n in enumerate(num) if n}, den))
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
    if x._den is None or y._den is None:
        return x.coeffs.get(0, Q(0)) == y.coeffs.get(0, Q(0))
    return x._num.get(0, 0) * y._den == y._num.get(0, 0) * x._den


def _off_base(w: WeilElement) -> WeilElement:
    """w with its unit-slot coefficient dropped."""
    rest = {k: c for k, c in w._num.items() if k}
    if w._den is None:
        return WeilElement(w.algebra, rest)
    return from_numerators(w.algebra, rest, w._den)


def add_tangents(a: MicroPoint, b: MicroPoint) -> MicroPoint:
    """Sum of two tangents at one base point: a plus b's off-base part."""
    if a.m != b.m or not all(map(_same_base, a.coords, b.coords)):
        raise PreconditionError("tangent vectors at different base points")
    return MicroPoint(a.algebra, a.m,
                      [x + _off_base(y) for x, y in zip(a.coords, b.coords)])


# ---------------------------------------------------------------------------
# fields of points


class MicroField:
    """A point of the expansion space varying polynomially over the base.

    body maps R^m to the coefficient space laid out basis-major: component
    pos*m + j is coordinate j of the basis monomial at position pos.  The
    unit-monomial block must be the identity, so evaluating at x returns a
    point based at x.
    """

    __slots__ = ("obj", "m", "body")

    def __init__(self, obj: SimplicialObject, m: int, body: PolyMap):
        alg = make_algebra(obj)
        if body.in_dim != m or body.out_dim != m * alg.dim:
            raise ValidationError("field body has wrong dimensions")
        for j in range(m):
            if body.comps[j] != Poly.var(m, j):
                raise ValidationError("unit-monomial block of a field must be the identity")
        self.obj = obj
        self.m = m
        self.body = body

    def at(self, point) -> MicroPoint:
        alg = make_algebra(self.obj)
        point = [Q(v) for v in point]
        vals = self.body.eval(point)
        coords = []
        for j in range(self.m):
            dense = [vals[pos * self.m + j] for pos in range(alg.dim)]
            coords.append(from_dense(alg, dense))
        return MicroPoint(alg, self.m, coords)


def _flow_coords(fields, order, m: int, obj: SimplicialObject):
    """Symbolic flow composite; returns per-coordinate Weil elements with
    polynomial coefficients in the base variables."""
    alg = make_algebra(obj)
    one = WeilElement(alg, {0: Poly.one(m)})
    coords = [WeilElement(alg, {0: Poly.var(m, j)}) for j in range(m)]
    for axis in reversed(order):
        fld = fields[axis - 1]
        if fld.in_dim != m or fld.out_dim != m:
            raise ValidationError("vector field must map R^m to R^m")
        gen_pos = alg.index[tuple(1 if g == axis - 1 else 0 for g in range(obj.n))]
        gen = WeilElement(alg, {gen_pos: Poly.one(m)})
        vals = fld.eval(coords, one)
        coords = [c + gen * v for c, v in zip(coords, vals)]
    return coords


def flow_field(fields, order) -> MicroField:
    """Cube-valued field obtained by composing the three first-order flows.

    order = (i, j, k) applies field k first, then j, then i; field a always
    advances along direction d_a.
    """
    m = fields[0].in_dim
    obj = d_cube(3)
    alg = make_algebra(obj)
    coords = _flow_coords(fields, order, m, obj)
    comps = []
    for pos in range(alg.dim):
        for j in range(m):
            comps.append(coords[j].coeffs.get(pos, Poly.zero(m)))
    return MicroField(obj, m, PolyMap(m, comps))


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
        alg = make_algebra(d_cube(3))
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

    def verify(self):
        if self._violations:
            raise PreconditionError("; ".join(self._violations))


def jacobi3_defect(t: TriangleConfig) -> MicroPoint:
    """Sum of the three iterated strong differences; zero principal part expected.

    The inner strong differences are the ones the membership check glued.
    """
    t.verify()
    total = None
    for axis, _others, _pairs in _TRIANGLE_GROUPS:
        tangent = strong_diff(*t._inner[axis])
        total = tangent if total is None else add_tangents(total, tangent)
    return total


def triangle_from_vector_fields(x: PolyMap, y: PolyMap, z: PolyMap, at) -> TriangleConfig:
    """Evaluate the six flow-composite fields at a point.

    The construction always satisfies the membership conditions; verify()
    failing here would be a bug, not bad input.
    """
    dims = {f.in_dim for f in (x, y, z)} | {f.out_dim for f in (x, y, z)}
    if len(dims) != 1:
        raise ValidationError("vector fields on different model dimensions")
    fields = (x, y, z)
    cubes = {}
    for label in TRIANGLE_LABELS:
        order = tuple(int(ch) for ch in label)
        cubes[label] = flow_field(fields, order).at(at)
    cfg = TriangleConfig(cubes)
    cfg.verify()
    return cfg


def triangle_from_slots(m: int, base4, slots: dict, corners: dict) -> TriangleConfig:
    """Assemble a configuration from the free data of the membership equations.

    base4: vectors for the unit, d1, d2 and d3 slots, shared by all six
    cubes.  slots[(j, k)]: pair of vectors (one per agreement class) for the
    d_j*d_k slot.  corners[label]: the free d1*d2*d3 vector per cube.
    The two classes per off-diagonal slot come from chasing which restriction
    agreements preserve that slot; corners are unconstrained.
    """
    classes = {
        (1, 2): ({"123", "132", "312"}, {"321", "231", "213"}),
        (1, 3): ({"213", "123", "132"}, {"312", "321", "231"}),
        (2, 3): ({"132", "312", "321"}, {"123", "213", "231"}),
    }
    cubes = {}
    for label in TRIANGLE_LABELS:
        table = {(): base4[0], (1,): base4[1], (2,): base4[2], (3,): base4[3]}
        for pair, (cls_a, _cls_b) in classes.items():
            which = 0 if label in cls_a else 1
            table[pair] = slots[pair][which]
        table[(1, 2, 3)] = corners[label]
        cubes[label] = MicroPoint.from_table(d_cube(3), m, table)
    return TriangleConfig(cubes)
