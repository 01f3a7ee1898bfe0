"""Exact linear solving with vector-valued right-hand sides.

The amalgamation inverses reduce to rational linear systems A x = y whose
unknowns and right-hand entries live in any vector space over the rationals
(rational tuples, polynomial maps, ...).  Values only need +, -, rational
scaling c * v (skipped for c = 1), and truth-testing for zero.  Row
operations use rational pivots, so everything stays exact.  An integral
pivot inverse or factor is recorded as an int (every one is 1 in the gluing
systems), so the replay's unit tests compare ints.

The matrices are constant pullback matrices while the right-hand sides vary,
so the elimination is split in two: ReducedMatrix row-reduces A once, in a
given column order, and records the row operations; solve_exact replays them
on each right-hand side.  Reducing the same matrix in another column order
gives a second, independent elimination, which is how callers check that the
solution does not depend on the order.
"""

from .errors import InternalError, PreconditionError
from .rationals import ONE, Q


def _exact(v):
    """v as an int when integral, else as a rational."""
    return int(v.numerator) if v.denominator == 1 else Q(v)


class ReducedMatrix:
    """A rational matrix of full column rank with its recorded row reduction.

    Reduces in column_order (default: left to right).  Each step records the
    pivot row, the inverse of the pivot entry and the (row, factor)
    eliminations it made, each an int when integral and a rational otherwise.
    Rank deficiency raises InternalError here, because every system solved
    here is a pullback inverse that the mathematics guarantees solvable
    uniquely.  Iterating yields the rows of the original
    matrix.
    """

    __slots__ = ("rows", "steps", "free_rows", "pivot_row_of_col")

    def __init__(self, matrix, column_order=None):
        self.rows = [list(r) for r in matrix]
        rows = len(self.rows)
        cols = len(self.rows[0]) if rows else 0
        order = range(cols) if column_order is None else column_order
        a = [list(r) for r in self.rows]
        steps = []
        pivot_row_of_col = {}
        used_rows = set()
        for col in order:
            pivot = None
            for r in range(rows):
                if r not in used_rows and a[r][col]:
                    pivot = r
                    break
            if pivot is None:
                raise InternalError(f"rank-deficient system at column {col}")
            used_rows.add(pivot)
            pivot_row_of_col[col] = pivot
            inv = ONE / a[pivot][col]
            if inv != 1:
                a[pivot] = [v * inv for v in a[pivot]]
            eliminations = []
            for r in range(rows):
                if r == pivot:
                    continue
                f = a[r][col]
                if f:
                    a[r] = [v - f * w for v, w in zip(a[r], a[pivot])]
                    eliminations.append((r, _exact(f)))
            steps.append((pivot, _exact(inv), tuple(eliminations)))
        free_rows = tuple(r for r in range(rows) if r not in used_rows)
        for r in free_rows:
            if any(a[r]):
                raise InternalError("unreduced row after elimination")
        self.steps = tuple(steps)
        self.free_rows = free_rows
        self.pivot_row_of_col = tuple(pivot_row_of_col[col] for col in range(cols))

    def __iter__(self):
        return iter(self.rows)


def solve_exact(system: ReducedMatrix, rhs, row_labels=None):
    """Solve A x = rhs by replaying the row operations recorded in system.

    An inconsistent rhs raises PreconditionError naming the first unused row
    left with a residue (row_labels[r], or "row r").
    """
    if len(rhs) != len(system.rows):
        raise InternalError("rhs length mismatch")
    y = list(rhs)
    for pivot, inv, eliminations in system.steps:
        yp = y[pivot] if inv == 1 else inv * y[pivot]
        y[pivot] = yp
        for r, f in eliminations:
            y[r] = y[r] - (yp if f == 1 else f * yp)
    for r in system.free_rows:
        if y[r]:
            label = row_labels[r] if row_labels else f"row {r}"
            raise PreconditionError(f"inconsistent system: residue at {label}")
    return [y[r] for r in system.pivot_row_of_col]
