"""Exact linear solving as one compiled sparse map, and the one column walk.

The amalgamation inverses reduce to rational linear systems A x = y whose
unknowns and right-hand entries live in any vector space over the rationals
(rational tuples, polynomial maps, ...).  The matrices are constant while
the right-hand sides vary, so ReducedMatrix row-reduces A once, in a given
column order, carrying the identity along the row operations; what the
identity becomes on the pivot rows is the solution map.  solve_exact applies
it in one apply_columns walk, the walk that also serves restriction, the
gluing's compatibility check and the bracket's extraction.  The map reads
only the pivot rows, so a right-hand side outside the column space still
maps to some x: consistency is the caller's precondition.  A gluing checks
it once, as the legs' agreement on their shared restriction.  Reducing in
another column order is a second, independent elimination, which is how
callers check that the solution does not depend on the order.
"""

from .errors import InternalError
from .rationals import ONE, Q


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
    return {i: acc[i] for i in sorted(acc) if acc[i]}


def _exact(v):
    """v as an int when integral, else as a rational."""
    return int(v.numerator) if v.denominator == 1 else Q(v)


class ReducedMatrix:
    """A rational matrix of full column rank, compiled to one sparse map.

    Reduces in column_order (default: left to right).  columns[r] lists the
    (unknown, entry) pairs of right-hand-side row r, the solution map alone.
    An entry is an int when integral, else a rational.  Rank deficiency
    raises InternalError: every system here is a pullback inverse, solvable
    uniquely.  Iterating yields the matrix rows.
    """

    __slots__ = ("rows", "columns")

    def __init__(self, matrix, column_order=None):
        self.rows = [list(r) for r in matrix]
        rows = len(self.rows)
        cols = len(self.rows[0]) if rows else 0
        order = range(cols) if column_order is None else column_order
        # each row carries its row of the identity, which collects the row
        # operations applied to it; integral entries reduce as ints
        a = [[_exact(v) for v in row] + [int(i == r) for i in range(rows)]
             for r, row in enumerate(self.rows)]
        pivot_row_of_col = {}
        used_rows = set()
        for col in order:
            pivot = next((r for r in range(rows) if r not in used_rows and a[r][col]), None)
            if pivot is None:
                raise InternalError(f"rank-deficient system at column {col}")
            used_rows.add(pivot)
            pivot_row_of_col[col] = pivot
            inv = _exact(ONE / a[pivot][col])
            if inv != 1:
                a[pivot] = [v * inv for v in a[pivot]]
            for r in range(rows):
                f = a[r][col]
                if r != pivot and f:
                    a[r] = [v - f * w for v, w in zip(a[r], a[pivot])]
        for r in range(rows):
            if r not in used_rows and any(a[r][:cols]):
                raise InternalError("unreduced row after elimination")
        outputs = [a[pivot_row_of_col[col]][cols:] for col in range(cols)]
        self.columns = tuple(
            tuple((i, _exact(out[j])) for i, out in enumerate(outputs) if out[j])
            for j in range(rows))

    def __iter__(self):
        return iter(self.rows)


def solve_exact(system: ReducedMatrix, rhs: dict) -> dict:
    """Sparse {unknown: value} solving A x = rhs, a sparse {row: value}.

    Precondition: rhs lies in A's column space.  The map reads only the
    pivot rows, so an inconsistent rhs gives a wrong answer, not an error.
    """
    if rhs and not (0 <= min(rhs) and max(rhs) < len(system.rows)):
        raise InternalError("rhs row out of range")
    return apply_columns(system.columns, rhs)
