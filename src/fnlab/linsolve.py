"""Exact linear solving as one compiled sparse map, and the one row walk.

The amalgamation inverses reduce to rational linear systems A x = y whose
unknowns and right-hand entries live in any vector space over the rationals
(rational tuples, polynomial maps, ...).  The matrices are constant while
the right-hand sides vary, so ReducedMatrix row-reduces A once, in a given
column order, carrying the identity along the row operations; what the
identity becomes on the pivot rows is the solution map, stored by its rows
as every constant sparse map is, by store_rows; row_entries reads them back,
so only gather_rows depends on the layout.  gather_rows is the one walk over
them, in this solve, restriction, the gluing's compatibility check and the
bracket's extraction.  The map reads only the pivot rows, so a right-hand
side outside the column space still maps to some x: consistency is the
caller's precondition.  A gluing checks it once, as the legs' agreement on
their shared restriction.  Reducing in another column order is a second,
independent elimination, which is how callers check that the solution does
not depend on the order.
"""

from .errors import InternalError
from .rationals import ONE, Q


def store_rows(rows) -> tuple:
    """A sparse map's nonzero (row, ((column, entry), ...)) pairs, stored.

    Most rows of the maps here only relabel: a row that is one entry equal
    to 1 is stored as its bare column, any other row as its entries.
    """
    return tuple((i, entries[0][0] if len(entries) == 1 and entries[0][1] == 1 else entries)
                 for i, entries in rows)


def row_entries(stored) -> tuple:
    """The (row, ((column, entry), ...)) pairs that store_rows stored."""
    return tuple((i, ((e, 1),) if type(e) is int else e) for i, e in stored)


def gather_rows(rows, values) -> dict:
    """Image of a sparse {column: value} under a map's stored rows.

    rows is a map as store_rows stores it; the image is a sparse {row:
    value} in row order, with zero values and zero sums dropped.  A bare
    column moves its value as it is; in a row of entries a unit entry moves
    a value without scaling it.  Values need only +, c * v and truth.
    """
    get = values.get
    out = {}
    for i, entries in rows:
        if type(entries) is int:
            if v := get(entries):
                out[i] = v
            continue
        acc = None
        for j, e in entries:
            if (v := get(j)) is not None:
                t = v if e == 1 else e * v
                acc = t if acc is None else acc + t
        if acc:
            out[i] = acc
    return out


def _exact(v):
    """v as an int when integral, else as a rational."""
    return int(v.numerator) if v.denominator == 1 else Q(v)


class ReducedMatrix:
    """A rational matrix of full column rank, compiled to one sparse map.

    Reduces in column_order (default: left to right).  sparse_rows, the
    solution map alone, pairs each unknown with its (right-hand-side row,
    entry) pairs, stored by store_rows.  An entry is an int when integral,
    else a rational.  Rank deficiency raises InternalError: every system here
    is a pullback inverse, solvable uniquely.  Iterating yields the matrix
    rows.
    """

    __slots__ = ("rows", "sparse_rows")

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
        used_rows = pivot_row_of_col.values()
        for col in order:
            pivot = next((r for r in range(rows) if r not in used_rows and a[r][col]), None)
            if pivot is None:
                raise InternalError(f"rank-deficient system at column {col}")
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
        self.sparse_rows = store_rows(
            (col, tuple((i, _exact(v)) for i, v in enumerate(out) if v))
            for col, out in enumerate(outputs))

    def __iter__(self):
        return iter(self.rows)


def solve_exact(system: ReducedMatrix, rhs: dict) -> dict:
    """Sparse {unknown: value} solving A x = rhs, a sparse {row: value}.

    Precondition: rhs lies in A's column space.  The map reads only the
    pivot rows, so an inconsistent rhs gives a wrong answer, not an error.
    """
    if rhs and not (0 <= min(rhs) and max(rhs) < len(system.rows)):
        raise InternalError("rhs row out of range")
    return gather_rows(system.sparse_rows, rhs)
