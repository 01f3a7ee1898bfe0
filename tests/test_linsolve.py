import random

import pytest

from fnlab.errors import InternalError, PreconditionError
from fnlab.forms import Kernel, cube_dim, zero_kernel
from fnlab.linsolve import ReducedMatrix, gather_rows, row_entries, solve_exact, store_rows
from fnlab.micro import AmalgamationCase, amalgamation_cases, case_compat_errors, case_solve
from fnlab.morphisms import InfMorphism
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q

RNG = random.Random(7)
CASES = ("square", "cube-1", "cube-2", "cube-3")


def rq():
    return Q(RNG.randint(-9, 9), RNG.choice([1, 2, 3]))


def rkernel(p=1, m=1):
    n = cube_dim(p, m)
    comps = []
    for _ in range(m):
        terms = []
        for _ in range(3):
            e = [0] * n
            e[RNG.randrange(n)] += RNG.randint(0, 2)
            terms.append((rq(), tuple(e)))
        comps.append(Poly.from_terms(n, terms))
    return Kernel(p, m, PolyMap(n, comps))


def plain_rows(case):
    return [list(r) for r in case.twisted.matrix()] + [list(r) for r in case.flat.matrix()]


def apply_rows(rows, x):
    """rows . x for vector-space values x, summed with scale/c*v like the solver."""
    out = []
    for row in rows:
        acc = x[0] - x[0]
        for c, v in zip(row, x):
            if c:
                acc = acc + (v.scale(c) if hasattr(v, "scale") else c * v)
        out.append(acc)
    return out


def sparse(values) -> dict:
    return {i: v for i, v in enumerate(values) if v}


def dense_solution_map(matrix):
    """The solution map as a dense rational matrix, one row per unknown.

    The identity is carried through ReducedMatrix's pivoting in one dense
    pass with every step a rational, and read on the pivot rows.
    """
    n, cols = len(matrix), len(matrix[0])
    a = [[Q(v) for v in row] + [Q(int(i == r)) for i in range(n)]
         for r, row in enumerate(matrix)]
    pivot_of = {}
    for col in range(cols):
        p = next(r for r in range(n) if r not in pivot_of.values() and a[r][col])
        pivot_of[col] = p
        inv = Q(1) / a[p][col]
        a[p] = [v * inv for v in a[p]]
        for r in range(n):
            if r != p and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[p])]
    return [a[pivot_of[col]][cols:] for col in range(cols)]


def fraction_replay(matrix, rhs, column_order=None):
    """Reduce and solve in one dense pass with every step a rational.

    Pivots as ReducedMatrix does and scales every row, unit factors
    included; an inconsistent rhs raises PreconditionError naming the first
    pivot-free row left nonzero, as "row r".
    """
    a = [[Q(v) for v in row] for row in matrix]
    y = [Q(v) if isinstance(v, (int, Q)) else v for v in rhs]
    used = set()
    pivot_of = {}
    for col in range(len(a[0])) if column_order is None else column_order:
        p = next(r for r in range(len(a)) if r not in used and a[r][col])
        used.add(p)
        pivot_of[col] = p
        inv = Q(1) / a[p][col]
        a[p] = [v * inv for v in a[p]]
        y[p] = inv * y[p]
        for r in range(len(a)):
            if r != p and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[p])]
                y[r] = y[r] - f * y[p]
    for r in range(len(a)):
        if r not in used and y[r]:
            raise PreconditionError(f"inconsistent system: residue at row {r}")
    return [y[pivot_of[col]] for col in range(len(a[0]))]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("values", ["rational", "kernel"])
def test_stored_reduction_matches_fresh_solve(name, values):
    case = amalgamation_cases()[name]
    rows = plain_rows(case)
    assert [list(r) for r in case.system] == rows
    apex_dim, leg_dim = case.apex_alg.dim, case.leg_alg.dim
    draw = rq if values == "rational" else rkernel
    fresh = ReducedMatrix(rows)
    right_to_left = list(reversed(range(apex_dim)))
    reordered = ReducedMatrix(rows, right_to_left)
    assert fresh.sparse_rows == case.system.sparse_rows
    # the solution map alone: one entry per unknown's leg row, plus the twist
    assert sum(len(row) for _j, row in row_entries(case.system.sparse_rows)) == \
        (6 if name == "square" else 12)
    for _ in range(3):
        x = [draw() for _ in range(apex_dim)]
        rhs = apply_rows(rows, x)
        assert fraction_replay(rows, rhs) == fraction_replay(rows, rhs, right_to_left) == x
        c1, c2 = sparse(rhs[:leg_dim]), sparse(rhs[leg_dim:])
        assert case_solve(case, c1, c2) == sparse(x)
        for system in (case.system, fresh, reordered):
            got = solve_exact(system, dict(reversed(list(sparse(rhs).items()))))
            assert got == sparse(x) and list(got) == sorted(got)


def test_gluing_maps_are_integers():
    for case in amalgamation_cases().values():
        entries = [e for _j, row in row_entries(case.system.sparse_rows) for _i, e in row]
        assert entries and all(type(e) is int for e in entries)


def test_non_integral_gluing_case_raises_internal_error():
    # a twist by 2*d1*d2 puts 1/2 in the compiled map
    sq = amalgamation_cases()["square"]
    d1, d2 = Poly.var(2, 0), Poly.var(2, 1)
    doubled = InfMorphism(sq.leg, sq.apex, [d1, d2, (d1 * d2).scale(2)])
    with pytest.raises(InternalError, match="square-doubled: gluing needs an integer solution map"):
        AmalgamationCase("square-doubled", sq.leg, sq.apex, doubled, sq.flat, sq.shared,
                         sq.shared_incl, sq.extract, sq.result)


def test_rank_deficient_matrix_raises_internal_error():
    singular = [[Q(1), Q(2)], [Q(2), Q(4)], [Q(3), Q(6)]]
    with pytest.raises(InternalError, match="rank-deficient"):
        ReducedMatrix(singular)
    with pytest.raises(InternalError, match="rank-deficient"):
        ReducedMatrix(singular, [1, 0])


def test_rhs_row_out_of_range_raises_internal_error():
    case = amalgamation_cases()["square"]
    rows = len(case.system.rows)
    assert rows == 2 * case.leg_alg.dim
    assert solve_exact(case.system, {rows - 1: Q(0)}) == {}
    for bad in (rows, -1):
        with pytest.raises(InternalError, match="rhs row out of range"):
            solve_exact(case.system, {0: Q(1), bad: Q(1)})


def test_random_systems_match_the_fraction_replay():
    seen_int = seen_frac = 0
    for _ in range(40):
        n = RNG.randint(1, 4)
        matrix = [[RNG.choice([0, RNG.randint(-4, 4), Q(RNG.randint(-4, 4)), rq()])
                   for _ in range(n)] for _ in range(n + RNG.randint(0, 2))]
        try:
            system = ReducedMatrix(matrix)
        except InternalError:
            continue
        for _j, row in row_entries(system.sparse_rows):
            for _i, e in row:
                assert type(e) is (int if e.denominator == 1 else Q)
                seen_int += type(e) is int
                seen_frac += type(e) is Q
        for draw in (rq, rkernel):
            x = [draw() for _ in range(n)]
            rhs = apply_rows(matrix, x)
            got = solve_exact(system, sparse(rhs))
            assert got == sparse(fraction_replay(matrix, rhs)) == sparse(x)
            if draw is rq:
                assert all(type(v) is Q for v in got.values())
    assert seen_int and seen_frac


def test_integer_matrix_reduces_exactly():
    # 1/3 as a pivot inverse stays a rational, never a float
    system = ReducedMatrix([[3, 0], [0, 2]])
    entries = row_entries(system.sparse_rows)
    assert entries == ((0, ((0, Q(1, 3)),)), (1, ((1, Q(1, 2)),)))
    assert all(type(e) is Q for _j, row in entries for _i, e in row)
    assert solve_exact(system, {0: Q(1), 1: Q(1)}) == {0: Q(1, 3), 1: Q(1, 2)}


def _bump(c: dict, j, d) -> dict:
    """c with d added at j, a zero sum dropped."""
    out = dict(c)
    v = out.pop(j, None)
    v = d if v is None else v + d
    if v:
        out[j] = v
    return out


def _replay_solution(case, c1, c2, zero):
    """The naive sparse solution of the stacked system, or None if inconsistent."""
    dim = case.leg_alg.dim
    rhs = [c1.get(i, zero) for i in range(dim)] + [c2.get(i, zero) for i in range(dim)]
    try:
        return sparse(fraction_replay(plain_rows(case), rhs))
    except PreconditionError:
        return None


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("values", ["rational", "kernel"])
def test_compat_check_decides_consistency(name, values):
    # the solution map reads no consistency, so the compat check must accept
    # exactly the leg pairs whose stacked system the naive replay solves
    case = amalgamation_cases()[name]
    rows, dim = plain_rows(case), case.leg_alg.dim
    draw = rq if values == "rational" else rkernel
    basis = case.leg_alg.basis
    shared = [j for j in range(dim) if basis[j] in case.shared_alg.index]
    corner = [j for j in range(dim) if basis[j] not in case.shared_alg.index]
    assert len(shared) == (3 if name == "square" else 6) and corner

    def nonzero():
        d = draw()
        return d if d else nonzero()

    checked = {True: 0, False: 0}
    for _ in range(3):
        x = [draw() for _ in range(case.apex_alg.dim)]
        zero = x[0] - x[0]
        rhs = apply_rows(rows, x)
        legs = (sparse(rhs[:dim]), sparse(rhs[dim:]))
        pairs = [(legs, True)]
        for j in shared:
            for which in (0, 1):
                bumped = list(legs)
                bumped[which] = _bump(bumped[which], j, nonzero())
                pairs.append((bumped, False))
        for j in corner:
            for which in (0, 1):
                bumped = list(legs)
                bumped[which] = _bump(bumped[which], j, nonzero())
                pairs.append((bumped, True))
        for (c1, c2), agree in pairs:
            solution = _replay_solution(case, c1, c2, zero)
            assert (solution is not None) == agree
            assert bool(case_compat_errors(case, c1, c2)) == (not agree)
            if agree:
                assert case_solve(case, c1, c2) == solution
            checked[agree] += 1
    assert checked[True] and checked[False]


def rpoly():
    return Poly.from_terms(2, [(rq(), (RNG.randint(0, 2), RNG.randint(0, 1)))
                               for _ in range(2)])


@pytest.mark.parametrize("name", CASES)
def test_gather_rows_matches_dense_reference(name):
    # every constant map of a gluing case, against a dense matrix-vector
    # product: the solution map, the shared inclusion and the extraction
    case = amalgamation_cases()[name]
    maps = (("solution", dense_solution_map(plain_rows(case)), case.system.sparse_rows),
            ("shared_incl", case.shared_incl.matrix(), case.shared_incl.sparse_rows()),
            ("extract", case.extract.matrix(), case.extract.sparse_rows()))
    for label, dense, rows in maps:
        # the stored rows are the dense map's nonzero entries, integral ones as ints
        entries = row_entries(rows)
        assert entries == tuple((i, tuple((j, v) for j, v in enumerate(row) if v))
                                for i, row in enumerate(dense) if any(row)), label
        assert all(type(e) is int for _i, row in entries for _j, e in row), label
        width = len(dense[0])
        draws = (lambda: RNG.choice([0, 0, 1, -2, 3]), rq, rpoly, rkernel)
        for draw in draws:
            for _ in range(3):
                x = [draw() if RNG.random() < 0.7 else 0 * draw() for _ in range(width)]
                expected = sparse(apply_rows(dense, x))
                # the walk reads its input in any order and emits rows in order
                got = gather_rows(rows, dict(reversed(list(sparse(x).items()))))
                assert got == expected, label
                assert list(got) == sorted(got), label


def synthetic_rows(width, height):
    """A dense map whose rows are zero, one unit entry, one entry of -1, 2
    or 1/2, or two entries; each kind appears at least once."""
    kinds = ["zero", "unit", "lone", "pair"] * 2
    kinds += [RNG.choice(kinds) for _ in range(height - len(kinds))]
    RNG.shuffle(kinds)
    dense = []
    for kind in kinds:
        row = [0] * width
        if kind == "unit":
            row[RNG.randrange(width)] = 1
        elif kind == "lone":
            row[RNG.randrange(width)] = RNG.choice([-1, 2, Q(1, 2)])
        elif kind == "pair":
            j, k = RNG.sample(range(width), 2)
            row[j], row[k] = RNG.choice([1, -1, 3]), RNG.choice([1, Q(-2, 3)])
        dense.append(row)
    return dense


@pytest.mark.parametrize("kind", ["int", "rational", "poly", "kernel"])
def test_gather_rows_on_synthetic_maps_matches_dense_reference(kind):
    # lone entries other than 1 occur in no gluing case's map; the values
    # hold explicit zeros, which the walk drops as it drops a zero sum
    draw, zero = {"int": (lambda: RNG.choice([1, -2, 3]), 0),
                  "rational": (rq, Q(0)),
                  "poly": (rpoly, Poly.zero(2)),
                  "kernel": (rkernel, zero_kernel(1, 1))}[kind]
    for _ in range(6):
        width = RNG.randint(2, 5)
        dense = synthetic_rows(width, RNG.randint(8, 12))
        rows = store_rows((i, tuple((j, e) for j, e in enumerate(row) if e))
                          for i, row in enumerate(dense) if any(row))
        assert row_entries(rows) == tuple((i, tuple((j, e) for j, e in enumerate(row) if e))
                                          for i, row in enumerate(dense) if any(row))
        for _ in range(4):
            values = {}
            for j in RNG.sample(range(width), width):
                pick = RNG.random()
                if pick < 0.3:
                    values[j] = zero
                elif pick < 0.8:
                    values[j] = draw()
            x = [values.get(j, zero) for j in range(width)]
            expected = sparse(apply_rows(dense, x))
            got = gather_rows(rows, values)
            assert got == expected
            assert list(got) == sorted(got)
