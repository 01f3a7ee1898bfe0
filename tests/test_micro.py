import random
import re

import pytest

import fnlab.micro
from fnlab.errors import PreconditionError, ValidationError
from fnlab.forms import Kernel, cube_dim
from fnlab.linsolve import ReducedMatrix, solve_exact
from fnlab.micro import (MicroPoint, TRIANGLE_LABELS, TriangleConfig,
                         add_tangents, amalgamate, amalgamation_cases, flow_field, get_case,
                         jacobi3_defect, restrict, strong_diff,
                         strong_diff_i, tangent_principal, triangle_from_slots,
                         triangle_from_vector_fields)
from fnlab.morphisms import InfMorphism, apply_columns, axis_map, inclusion
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import SimplicialObject, d_cube, d_order, d_paren
from fnlab.weil import WeilElement, from_dense, make_algebra


def square(m, base, e1, e2, corner):
    return MicroPoint.from_table(d_cube(2), m, {
        (): base, (1,): e1, (2,): e2, (1, 2): corner})


GAMMA = MicroPoint.from_table(d_cube(2), 1, {
    (): [1], (1,): [2], (2,): [3], (1, 2): [5]})


@pytest.mark.parametrize("key", [(0,), (3,), (1, 0), (-1,)])
def test_axis_keys_outside_the_generators_rejected(key):
    with pytest.raises(ValidationError):
        MicroPoint.from_table(d_cube(2), 1, {key: [5]})
    with pytest.raises(ValidationError):
        GAMMA.coeff(key)


def from_table_reference(obj, m, table):
    """Dense rows of Q(0), each entry written in table order, then from_dense."""
    alg = make_algebra(obj)
    dense = [[Q(0)] * alg.dim for _ in range(m)]
    for key, vec in table.items():
        exps = [0] * obj.n
        for i in key:
            exps[i - 1] += 1
        vec = vec if isinstance(vec, (list, tuple)) else [vec]
        for j in range(m):
            dense[j][alg.index[tuple(exps)]] = Q(vec[j])
    return MicroPoint(alg, m, [from_dense(alg, row) for row in dense])


SPELLINGS = ("3/4", "-2", "1.5", " 7 ", "0", "-5/10")


def test_from_table_matches_dense_reference():
    rng = random.Random(11)
    objects = [d_cube(2), d_cube(3), d_order(2), d_paren(2)]
    seen_zero = seen_alias = 0
    for _ in range(60):
        obj = rng.choice(objects)
        alg = make_algebra(obj)
        m = rng.randint(1, 3)
        table = {}
        for _ in range(rng.randint(0, alg.dim + 2)):
            exps = alg.basis[rng.randrange(alg.dim)]
            key = [i + 1 for i, e in enumerate(exps) for _ in range(e)]
            rng.shuffle(key)  # an unsorted key names the same monomial
            # ints and rationals are held as given, strings go through Q
            vec = [rng.choice([0, Q(0), rng.randint(-5, 5), rng.choice(SPELLINGS),
                               Q(rng.randint(-5, 5), rng.randint(1, 4))])
                   for _ in range(m)]
            seen_alias += tuple(key) in table or tuple(sorted(key)) in table
            seen_zero += any(v == 0 for v in vec)
            table[tuple(key)] = vec if m > 1 or rng.random() < 0.5 else vec[0]
        got = MicroPoint.from_table(obj, m, table)
        want = from_table_reference(obj, m, table)
        assert got == want
        for a, b in zip(got.coords, want.coords):
            assert dict(a.coeffs) == dict(b.coeffs) and a.denominator == b.denominator
    # later keys naming the same monomial overwrite, a zero included
    got = MicroPoint.from_table(d_cube(3), 2, {(1, 3): [1, Q(1, 2)], (3, 1): [0, 5]})
    assert got.coeff((1, 3)) == (0, 5) and got == from_table_reference(
        d_cube(3), 2, {(1, 3): [1, Q(1, 2)], (3, 1): [0, 5]})
    assert seen_zero and seen_alias


def test_from_table_errors():
    with pytest.raises(ValidationError, match=r"monomial \(1, 2\) is not in the basis"):
        MicroPoint.from_table(d_paren(2), 1, {(1, 2): [1]})
    with pytest.raises(ValidationError, match="coefficient vector length != m"):
        MicroPoint.from_table(d_cube(2), 2, {(1,): [1]})
    with pytest.raises(ValidationError, match="coefficient vector length != m"):
        MicroPoint.from_table(d_cube(2), 2, {(): 3})
    # what is not a rational meets Q's own errors
    for bad in ("abc", "1/0", [1]):
        with pytest.raises(Exception) as direct:
            Q(bad)
        with pytest.raises(type(direct.value), match=re.escape(str(direct.value))):
            MicroPoint.from_table(d_cube(2), 2, {(): [1, bad]})


def test_restrict_kills_corner():
    r = restrict(GAMMA, inclusion(d_paren(2), d_cube(2)))
    assert r.coeff(()) == (1,) and r.coeff((1,)) == (2,) and r.coeff((2,)) == (3,)


def test_restrict_axis_projection():
    r = restrict(GAMMA, axis_map(d_cube(1), d_cube(2), (1,)))
    assert r.coeff(()) == (1,) and r.coeff((1,)) == (2,)


def test_restrict_diagonal():
    diag = InfMorphism(d_cube(1), d_cube(2), [Poly.var(1, 0), Poly.var(1, 0)])
    r = restrict(GAMMA, diag)
    assert r.coeff(()) == (1,) and r.coeff((1,)) == (5,)


def test_restrict_object_mismatch():
    with pytest.raises(ValidationError, match=re.escape(
            "point lives on D^2, morphism targets D^3")):
        restrict(GAMMA, axis_map(d_cube(1), d_cube(3), (1,)))
    # a target with the same generators but other relations is another object
    with pytest.raises(ValidationError, match=re.escape(
            "point lives on D^2, morphism targets D^2{(1, 2)}")):
        restrict(GAMMA, inclusion(d_paren(2), d_paren(2)))


def test_held_algebras_are_the_cached_ones():
    for case in amalgamation_cases().values():
        assert case.leg_alg is make_algebra(case.leg)
        assert case.apex_alg is make_algebra(case.apex)
        assert case.shared_alg is make_algebra(case.shared)
        for mor in (case.twisted, case.flat, case.shared_incl, case.extract):
            src, tgt = mor.algebras()
            assert src is make_algebra(mor.source) and tgt is make_algebra(mor.target)
    fresh = InfMorphism(d_cube(1), d_cube(2), [Poly.var(1, 0), Poly.var(1, 0)])
    src, tgt = fresh.algebras()
    assert src is make_algebra(d_cube(1)) and tgt is make_algebra(d_cube(2))
    assert fresh.algebras()[0] is src


def dense_restrict_coeffs(coeffs, mor):
    """Row-by-row product with the whole dense matrix."""
    zero = coeffs[0] - coeffs[0]
    out = []
    for row in mor.matrix():
        acc = zero
        for c, v in zip(row, coeffs):
            acc = acc + (v.scale(c) if hasattr(v, "scale") else c * v)
        out.append(acc)
    return out


def products_of_images_pullback(mor, w):
    """Dual algebra map by substitution: each basis monomial of the target
    becomes the product of the generator images in the source algebra."""
    src, tgt = make_algebra(mor.source), make_algebra(mor.target)
    images = []
    for p in mor.subst:
        img = src.zero()
        for e, c in p.terms.items():
            img = img + src.monomial(e, c)
        images.append(img)
    out = src.zero()
    for k, c in w.coeffs.items():
        term = src.one()
        for img, e in zip(images, tgt.basis[k]):
            term = term * img ** e
        out = out + term.scale(c)
    return out


def canonical_morphisms():
    out = []
    for case in amalgamation_cases().values():
        out += [case.twisted, case.flat, case.shared_incl, case.extract]
    out.append(InfMorphism(d_cube(1), d_cube(2), [Poly.var(1, 0), Poly.var(1, 0)]))
    out.append(InfMorphism(d_order(2), d_cube(1), [Poly.var(1, 0) * Poly.var(1, 0)]))
    # entries other than 1: integers, then rationals
    for c1, c2 in ((Q(2), Q(3)), (Q(-1, 2), Q(1, 3))):
        out.append(InfMorphism(d_cube(2), d_order(2),
                               [Poly.from_terms(2, [(c1, (1, 0)), (c2, (0, 1))])]))
    return out


def test_sparse_restriction_matches_dense_reference():
    rng = random.Random(5)
    rv = lambda: Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    for mor in canonical_morphisms():
        tgt, src = make_algebra(mor.target), make_algebra(mor.source)
        assert mor.columns() == tuple(
            tuple((i, row[j]) for i, row in enumerate(mor.matrix()) if row[j])
            for j in range(tgt.dim))
        for _ in range(5):
            m = rng.randint(1, 2)
            rows = [[rv() if rng.random() < 0.6 else Q(0) for _ in range(tgt.dim)]
                    for _ in range(m)]
            point = MicroPoint(tgt, m, [from_dense(tgt, r) for r in rows])
            expected = [from_dense(src, dense_restrict_coeffs(r, mor)) for r in rows]
            got = restrict(point, mor)
            assert got == MicroPoint(src, m, expected)
            assert [sorted(c.coeffs) for c in got.coords] == \
                [list(c.coeffs) for c in got.coords]
            polys = [Poly.from_terms(2, [(rv(), (rng.randint(0, 2), rng.randint(0, 2)))])
                     for _ in range(tgt.dim)]
            kernels = [Kernel(1, 1, PolyMap(cube_dim(1, 1), [
                Poly.from_terms(2, [(rv(), (rng.randint(0, 2), rng.randint(0, 1)))])]))
                for _ in range(tgt.dim)]
            ints = [rng.choice([0, 0, 1, -2, 3]) for _ in range(tgt.dim)]
            for values in (ints, rows[0], polys, kernels):
                dense = dense_restrict_coeffs(values, mor)
                # the walk reads its input in any order and sorts its rows
                sparse = dict(reversed(list(enumerate(values))))
                got = apply_columns(mor.columns(), sparse)
                assert got == {i: v for i, v in enumerate(dense) if v}
                assert list(got) == sorted(got)
            for w in point.coords:
                pulled = mor.pullback_element(w)
                assert pulled == products_of_images_pullback(mor, w)
                assert list(pulled.coeffs) == sorted(pulled.coeffs)
        with pytest.raises(ValidationError, match="target algebra"):
            mor.pullback_element(src.one())


def test_square_amalgamation_example():
    g1 = square(1, [1], [2], [3], [5])
    g2 = square(1, [1], [2], [3], [4])
    glued = amalgamate(g1, g2, "square")
    assert glued.coeff(()) == (1,)
    assert glued.coeff((1,)) == (2,)
    assert glued.coeff((2,)) == (3,)
    assert glued.coeff((1, 2)) == (4,)
    assert glued.coeff((3,)) == (1,)


def test_square_amalgamation_equal_legs():
    g = square(1, [1], [2], [3], [4])
    assert amalgamate(g, g, "square").coeff((3,)) == (0,)


def test_strong_diff_examples():
    g1 = square(1, [1], [2], [3], [5])
    g2 = square(1, [1], [2], [3], [4])
    assert tangent_principal(strong_diff(g1, g2)) == (1,)
    assert tangent_principal(strong_diff(g1, g1)) == (0,)
    assert tangent_principal(strong_diff(g2, g1)) == (-1,)
    assert strong_diff(g1, g2).base() == (1,)


def test_strong_diff_requires_agreement():
    g1 = square(1, [1], [2], [3], [5])
    bad = square(1, [1], [2], [7], [5])
    with pytest.raises(PreconditionError):
        strong_diff(g1, bad)


def cube(m, table):
    keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    full = {k: table.get(k, [0] * m) for k in keys}
    return MicroPoint.from_table(d_cube(3), m, full)


def test_axis_difference_example():
    g1 = cube(1, {(1,): [7], (2, 3): [5], (1, 2, 3): [3]})
    g2 = cube(1, {(1,): [7], (2, 3): [3], (1, 2, 3): [2]})
    sq = strong_diff_i(g1, g2, 1)
    assert sq.coeff(()) == (0,)
    assert sq.coeff((1,)) == (7,)
    assert sq.coeff((2,)) == (2,)
    assert sq.coeff((1, 2)) == (1,)
    glued = amalgamate(g1, g2, "cube-1")
    assert glued.coeff((4,)) == (2,) and glued.coeff((1, 4)) == (1,)


def test_axis_difference_third_axis():
    g1 = cube(1, {(3,): [4], (1, 2): [9], (1, 2, 3): [3]})
    g2 = cube(1, {(3,): [4], (1, 2): [7], (1, 2, 3): [1]})
    sq = strong_diff_i(g1, g2, 3)
    assert sq.coeff((1,)) == (4,)
    assert sq.coeff((2,)) == (2,)
    assert sq.coeff((1, 2)) == (2,)


def test_axis_difference_equal_inputs():
    g = cube(2, {(1,): [1, 2], (2, 3): [5, 5]})
    sq = strong_diff_i(g, g, 2)
    assert sq.coeff((2,)) == (0, 0) and sq.coeff((1, 2)) == (0, 0)


def test_pullback_roundtrip_all_cases():
    rng = random.Random(3)
    rv = lambda m: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(m)]
    for name in ("square", "cube-1", "cube-2", "cube-3"):
        case = get_case(name)
        reordered = ReducedMatrix(case.system, reversed(range(make_algebra(case.apex).dim)))
        for _ in range(10):
            m = rng.randint(1, 3)
            if name == "square":
                g2 = square(m, rv(m), rv(m), rv(m), rv(m))
                table = {k: list(g2.coeff(k)) for k in [(), (1,), (2,)]}
                table[(1, 2)] = rv(m)
                g1 = MicroPoint.from_table(d_cube(2), m, table)
            else:
                axis = int(name[-1])
                others = tuple(sorted({1, 2, 3} - {axis}))
                g2 = cube(m, {k: rv(m) for k in
                              [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
                keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
                table = {k: list(g2.coeff(k)) for k in keys}
                table[others] = rv(m)
                table[(1, 2, 3)] = rv(m)
                g1 = MicroPoint.from_table(d_cube(3), m, table)
            glued = amalgamate(g1, g2, case)
            assert restrict(glued, case.twisted) == g1
            assert restrict(glued, case.flat) == g2
            for a, b, c in zip(g1.coords, g2.coords, glued.coords):
                assert solve_exact(reordered, a.dense() + b.dense()) == c.dense()


def dense_add_tangents(a, b):
    """The dense sum: a's unit slot, then a + b slot by slot."""
    if a.base() != b.base():
        raise PreconditionError("tangent vectors at different base points")
    coords = []
    for x, y in zip(a.coords, b.coords):
        dx, dy = x.dense(), y.dense()
        coords.append(from_dense(a.algebra, [dx[0]] + [u + v for u, v in zip(dx[1:], dy[1:])]))
    return MicroPoint(a.algebra, a.m, coords)


def test_add_tangents_matches_dense_sum():
    rng = random.Random(9)
    rv = lambda: Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))
    alg = make_algebra(d_cube(1))
    seen_den = seen_zero = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        base = [rng.choice([rv(), Q(0)]) for _ in range(m)]
        a = MicroPoint.from_table(d_cube(1), m, {(): base, (1,): [rv() for _ in range(m)]})
        b = MicroPoint.from_table(d_cube(1), m, {(): base, (1,): [rv() for _ in range(m)]})
        seen_den += any(x.denominator != y.denominator for x, y in zip(a.coords, b.coords))
        seen_zero += any(v == 0 for v in base)
        got, want = add_tangents(a, b), dense_add_tangents(a, b)
        assert got == want
        assert got.base() == want.base() == tuple(base)
        assert all(type(v) is type(w) for v, w in zip(got.base(), want.base()))
        for x, y in zip(got.coords, want.coords):
            assert x.denominator == y.denominator and dict(x.coeffs) == dict(y.coeffs)
        # the base check compares values, not their spelling over a denominator
        other = list(base)
        k = rng.randrange(m)
        other[k] += Q(1, rng.choice([1, 2, 3]))
        c = MicroPoint.from_table(d_cube(1), m, {(): other, (1,): [rv() for _ in range(m)]})
        for x, y in ((a, c), (c, a)):
            with pytest.raises(PreconditionError,
                               match="^tangent vectors at different base points$"):
                add_tangents(x, y)
    assert seen_den and seen_zero
    # a zero tangent adds as nothing, and b's off-base part comes out reduced
    zero = MicroPoint(alg, 1, [alg.zero()])
    b = MicroPoint(alg, 1, [WeilElement(alg, {1: Q(2, 3)})])
    for x, y in ((zero, b), (b, zero), (zero, zero)):
        got = add_tangents(x, y)
        assert got == dense_add_tangents(x, y)
        assert [c.denominator for c in got.coords] == [
            c.denominator for c in dense_add_tangents(x, y).coords]
    # equal bases spelled over different denominators
    half = MicroPoint(alg, 1, [WeilElement(alg, {0: Q(1, 2), 1: Q(1, 3)})])
    other = MicroPoint(alg, 1, [WeilElement(alg, {0: Q(1, 2), 1: Q(1, 5)})])
    assert add_tangents(half, other) == dense_add_tangents(half, other)
    assert add_tangents(half, other).coeff((1,)) == (Q(8, 15),)
    with pytest.raises(PreconditionError):
        add_tangents(half, MicroPoint(alg, 2, half.coords * 2))
    # coordinates with polynomial coefficients take the generic sum
    x0 = Poly.var(1, 0)
    ring_a = MicroPoint(alg, 1, [WeilElement(alg, {0: x0, 1: x0 * x0})])
    ring_b = MicroPoint(alg, 1, [WeilElement(alg, {0: x0, 1: Poly.one(1)})])
    assert add_tangents(ring_a, ring_b) == dense_add_tangents(ring_a, ring_b)
    with pytest.raises(PreconditionError):
        add_tangents(ring_a, MicroPoint(alg, 1, [WeilElement(alg, {1: x0})]))


def test_zero_fields_triangle():
    zero = PolyMap(1, [Poly.zero(1)])
    t = triangle_from_vector_fields(zero, zero, zero, [Q(2)])
    for label in TRIANGLE_LABELS:
        assert t.cubes[label].coeff(()) == (2,)
        assert t.cubes[label].coeff((1, 2, 3)) == (0,)
    assert tangent_principal(jacobi3_defect(t)) == (0,)


def test_flow_triangle_corner_example():
    x = PolyMap(1, [Poly.var(1, 0)])
    y = PolyMap(1, [Poly.one(1)])
    z = PolyMap(1, [Poly.zero(1)])
    t = triangle_from_vector_fields(x, y, z, [0])
    assert t.cubes["123"].coeff((1, 2)) == (1,)
    assert t.cubes["213"].coeff((1, 2)) == (0,)
    assert tangent_principal(jacobi3_defect(t)) == (0,)


def test_flow_field_base_is_identity():
    x = PolyMap(2, [Poly.var(2, 1), Poly.var(2, 0)])
    fld = flow_field([x, x, x], (1, 2, 3))
    pt = fld.at([Q(1, 2), Q(-3)])
    assert pt.coeff(()) == (Q(1, 2), Q(-3))


def test_random_field_triangles_satisfy_membership():
    rng = random.Random(17)

    def rpoly():
        pairs = []
        for _ in range(2):
            e = [0, 0]
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(2)] += 1
            pairs.append((Q(rng.randint(-9, 9), rng.choice([1, 2, 3])), tuple(e)))
        return Poly.from_terms(2, pairs)

    for _ in range(5):
        fields = [PolyMap(2, [rpoly(), rpoly()]) for _ in range(3)]
        at = [Q(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2)]
        t = triangle_from_vector_fields(*fields, at)
        assert t.violations() == []
        assert tangent_principal(jacobi3_defect(t)) == (Q(0), Q(0))


def test_random_slot_triangles():
    rng = random.Random(9)
    rv = lambda: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3]))]
    for _ in range(10):
        t = triangle_from_slots(
            1, [rv() for _ in range(4)],
            {(1, 2): (rv(), rv()), (1, 3): (rv(), rv()), (2, 3): (rv(), rv())},
            {label: rv() for label in TRIANGLE_LABELS})
        assert t.violations() == []
        assert tangent_principal(jacobi3_defect(t)) == (0,)


def test_triangle_rejects_wrong_labels():
    g = cube(1, {})
    with pytest.raises(ValidationError):
        TriangleConfig({"123": g})


def test_triangle_violation_detection():
    base = {(): [0], (1,): [1], (2,): [2], (3,): [3]}
    cubes = {label: cube(1, base) for label in TRIANGLE_LABELS}
    bad = dict(base)
    bad[(1,)] = [9]
    cubes["123"] = cube(1, bad)
    t = TriangleConfig(cubes)
    assert t.violations() == ["cubes 123 and 132 disagree after killing d2*d3",
                              "cubes 123 and 213 disagree after killing d1*d2"]
    with pytest.raises(PreconditionError) as err:
        jacobi3_defect(t)
    assert str(err.value) == "; ".join(t.violations())


GROUPS = ((1, (2, 3), (("123", "132"), ("231", "321"))),
          (2, (1, 3), (("231", "213"), ("312", "132"))),
          (3, (1, 2), (("312", "321"), ("123", "213"))))


def naive_violations(cubes):
    """Each pair compared through its own restriction, then the off-corner
    agreement of the inner differences of every axis whose pairs agree."""
    bad = []
    off_corner = inclusion(d_paren(2), d_cube(2))
    for axis, (j, k), pairs in GROUPS:
        incl = inclusion(SimplicialObject(3, frozenset({(j, k)})), d_cube(3))
        agree = True
        for a, b in pairs:
            if restrict(cubes[a], incl) != restrict(cubes[b], incl):
                bad.append(f"cubes {a} and {b} disagree after killing d{j}*d{k}")
                agree = False
        if agree:
            d1, d2 = (strong_diff_i(cubes[a], cubes[b], axis) for a, b in pairs)
            if restrict(d1, off_corner) != restrict(d2, off_corner):
                bad.append(f"axis-{axis} differences disagree off the corner")
    return bad


def test_violations_match_naive_reference():
    rng = random.Random(21)
    rv = lambda m: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(m)]
    keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    kinds = set()
    for _ in range(40):
        m = rng.randint(1, 2)
        t = triangle_from_slots(
            m, [rv(m) for _ in range(4)],
            {(1, 2): (rv(m), rv(m)), (1, 3): (rv(m), rv(m)), (2, 3): (rv(m), rv(m))},
            {label: rv(m) for label in TRIANGLE_LABELS})
        cubes = dict(t.cubes)
        for _ in range(rng.randint(0, 2)):
            label = rng.choice(TRIANGLE_LABELS)
            table = {k: list(cubes[label].coeff(k)) for k in keys}
            table[rng.choice(keys)] = rv(m)
            cubes[label] = MicroPoint.from_table(d_cube(3), m, table)
        want = naive_violations(cubes)
        assert TriangleConfig(cubes).violations() == want
        kinds.update("off the corner" if "corner" in v else "pair" for v in want)
        kinds.add("clean" if not want else "broken")
    assert kinds == {"pair", "off the corner", "clean", "broken"}


def test_triangle_both_pairs_of_one_axis_disagree():
    rng = random.Random(8)
    rv = lambda: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3]))]
    t = triangle_from_slots(
        1, [rv() for _ in range(4)],
        {(1, 2): (rv(), rv()), (1, 3): (rv(), rv()), (2, 3): (rv(), rv())},
        {label: rv() for label in TRIANGLE_LABELS})
    cubes = dict(t.cubes)
    # the d1*d3 slot is compared by the pairs of axes 1 and 3; moving it in
    # 132 and 231 splits both axis-1 pairs and no axis-3 pair, and moving it
    # by opposite amounts shifts both axis-2 differences alike
    keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    for label, shift in (("132", -1), ("231", 1)):
        table = {k: list(cubes[label].coeff(k)) for k in keys}
        table[(1, 3)] = [table[(1, 3)][0] + shift]
        cubes[label] = MicroPoint.from_table(d_cube(3), 1, table)
    bad = TriangleConfig(cubes)
    assert bad.violations() == ["cubes 123 and 132 disagree after killing d2*d3",
                                "cubes 231 and 321 disagree after killing d2*d3"]
    assert bad.violations() == naive_violations(cubes)
    with pytest.raises(PreconditionError) as err:
        jacobi3_defect(bad)
    assert str(err.value) == "; ".join(bad.violations())


def test_triangle_checks_membership_once(monkeypatch):
    rng = random.Random(4)
    rv = lambda: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3]))]
    glued = []
    real = fnlab.micro.amalgamate

    def counting_amalgamate(g1, g2, case):
        glued.append(case if isinstance(case, str) else case.name)
        return real(g1, g2, case)

    t = triangle_from_slots(
        1, [rv() for _ in range(4)],
        {(1, 2): (rv(), rv()), (1, 3): (rv(), rv()), (2, 3): (rv(), rv())},
        {label: rv() for label in TRIANGLE_LABELS})
    # the membership check itself builds one inclusion and restricts only
    # the six glued squares and the six inner differences
    built, restricted = [], []
    real_init, real_restrict = InfMorphism.__init__, fnlab.micro.restrict

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_restrict(p, f):
        restricted.append(f)
        return real_restrict(p, f)

    monkeypatch.setattr(InfMorphism, "__init__", counting_init)
    monkeypatch.setattr(fnlab.micro, "restrict", counting_restrict)
    monkeypatch.setattr(fnlab.micro, "amalgamate", counting_amalgamate)
    t = TriangleConfig(dict(t.cubes))
    assert len(built) == 1 and len(restricted) == 12
    assert t.violations() == []
    assert tangent_principal(jacobi3_defect(t)) == (0,)
    assert len(glued) == 9
    assert sorted(glued) == ["cube-1"] * 2 + ["cube-2"] * 2 + ["cube-3"] * 2 + ["square"] * 3
    with pytest.raises(TypeError):
        t.cubes["123"] = t.cubes["132"]
    t.violations().append("not stored")
    assert t.violations() == []


def test_translation_equivariance():
    g1 = square(1, [1], [2], [3], [5])
    g2 = square(1, [1], [2], [3], [4])
    shifted1 = square(1, [1], [2], [3], [7])
    shifted2 = square(1, [1], [2], [3], [6])
    assert tangent_principal(strong_diff(shifted1, shifted2)) == \
        tangent_principal(strong_diff(g1, g2))
    assert tangent_principal(strong_diff(shifted1, g2)) == (3,)
