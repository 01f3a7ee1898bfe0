import random

import pytest

from fnlab.errors import InternalError, PreconditionError
from fnlab.forms import Kernel, cube_dim
from fnlab.linsolve import ReducedMatrix, solve_exact
from fnlab.micro import amalgamation_cases, case_solve
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.weil import make_algebra

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


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("values", ["rational", "kernel"])
def test_stored_reduction_matches_fresh_solve(name, values):
    case = amalgamation_cases()[name]
    rows = plain_rows(case)
    assert [list(r) for r in case.system] == rows
    apex_dim = make_algebra(case.apex).dim
    leg_dim = make_algebra(case.leg).dim
    draw = rq if values == "rational" else rkernel
    fresh = ReducedMatrix(rows)
    reordered = ReducedMatrix(rows, reversed(range(apex_dim)))
    assert fresh.steps == case.system.steps
    assert reordered.steps != case.system.steps
    for _ in range(3):
        x = [draw() for _ in range(apex_dim)]
        rhs = apply_rows(rows, x)
        c1, c2 = rhs[:leg_dim], rhs[leg_dim:]
        assert case_solve(case, c1, c2) == x
        for system in (case.system, fresh, reordered):
            assert solve_exact(system, rhs) == x


@pytest.mark.parametrize("name", CASES)
def test_inconsistent_rhs_names_the_leg_row(name):
    # the first leg carries d1 where the second leg is zero; the residue is
    # left on the second leg's d1 row, for the stored and a reversed reduction
    case = amalgamation_cases()[name]
    apex_dim = make_algebra(case.apex).dim
    leg = make_algebra(case.leg)
    c1 = [Q(0)] * leg.dim
    c1[leg.index[(1,) + (0,) * (case.leg.n - 1)]] = Q(1)
    c2 = [Q(0)] * leg.dim
    with pytest.raises(PreconditionError, match=r"residue at d1 \(second leg\)$"):
        case_solve(case, c1, c2)
    with pytest.raises(PreconditionError, match=r"residue at d1 \(second leg\)$"):
        solve_exact(ReducedMatrix(plain_rows(case), reversed(range(apex_dim))), c1 + c2,
                    row_labels=case.row_labels)


def test_inconsistent_rhs_without_labels_names_the_row_number():
    with pytest.raises(PreconditionError, match=r"residue at row 1$"):
        solve_exact(ReducedMatrix([[Q(1)], [Q(2)]]), [Q(1), Q(1)])


def test_rank_deficient_matrix_raises_internal_error():
    singular = [[Q(1), Q(2)], [Q(2), Q(4)], [Q(3), Q(6)]]
    with pytest.raises(InternalError, match="rank-deficient"):
        ReducedMatrix(singular)
    with pytest.raises(InternalError, match="rank-deficient"):
        ReducedMatrix(singular, [1, 0])


def test_wrong_rhs_length_raises_internal_error():
    case = amalgamation_cases()["square"]
    rhs = [Q(0)] * (len(case.row_labels) - 1)
    with pytest.raises(InternalError, match="rhs length"):
        solve_exact(case.system, rhs)
    with pytest.raises(InternalError, match="rhs length"):
        solve_exact(case.system, rhs + [Q(0), Q(0)])
