"""Exact dense linear algebra over a division ring, left-sided throughout.

Coefficient vectors act on matrices from the left (lambda * A), matching
how skew polynomial coefficients combine Vandermonde rows.  No right
module API is exposed; over a noncommutative ring a silently flipped
convention is the classic way to corrupt results.

Elimination uses no pivoting heuristics: arithmetic is exact, so the
first nonzero entry wins and output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSolution, RingMismatch


class Matrix:
    """Immutable dense matrix over one division ring.

    Optional row/col labels travel with the matrix so that Vandermonde
    instances remember which monomial/point each line came from.
    """

    __slots__ = ("ring", "rows", "nrows", "ncols", "row_labels", "col_labels")

    def __init__(self, ring, rows, row_labels=None, col_labels=None):
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    def entry(self, r, c):
        return self.rows[r][c]

    def to_json(self):
        enc = self.ring.element_to_json
        return [[enc(x) for x in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r})"


def identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])


def mat_mul(A, B):
    if A.ring != B.ring:
        raise RingMismatch("matrix product over different rings")
    if A.ncols != B.nrows:
        raise ValueError("inner dimensions differ")
    zero = A.ring.zero()
    out = []
    for i in range(A.nrows):
        arow = A.rows[i]
        row = []
        for j in range(B.ncols):
            acc = zero
            for k in range(A.ncols):
                a = arow[k]
                if not a.is_zero():
                    acc = acc + a * B.rows[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(A.ring, out)


def left_apply(vec, A):
    """The row vector lambda * A (lambda entries multiply rows on the left)."""
    if len(vec) != A.nrows:
        raise ValueError("vector length must equal the row count")
    zero = A.ring.zero()
    out = [zero] * A.ncols
    for r, lam in enumerate(vec):
        if lam.is_zero():
            continue
        row = A.rows[r]
        for c in range(A.ncols):
            x = row[c]
            if not x.is_zero():
                out[c] = out[c] + lam * x
    return tuple(out)


@dataclass
class ReducedForm:
    """T * A = R with R reduced row echelon and T invertible."""

    R: Matrix
    T: Matrix
    pivots: tuple


def _eliminate(rows, ncols):
    """Reduce rows in place to reduced row echelon form, pivoting only in
    the first ncols columns, and return (pivots, order): the pivot
    columns, and the original index of the row now at each position, so
    order[:len(pivots)] names the rows that end as pivot rows.

    Allowed moves: swap, row <- c * row (c nonzero), row_i <- row_i -
    c * row_j, always with c applied on the left.  Entries past ncols
    ride along, which is how row_reduce_left accumulates its transform.
    The pivot row is zero before its pivot column, so scaling it and
    clearing the column elsewhere touch only the entries where it is
    nonzero, in place.  Pivot rows only ever absorb multiples of pivot
    rows, so each is a left combination of the rows named in
    order[:len(pivots)].
    """
    nrows = len(rows)
    order = list(range(nrows))
    pivots = []
    prow = 0
    for col in range(ncols):
        src = None
        for r in range(prow, nrows):
            if not rows[r][col].is_zero():
                src = r
                break
        if src is None:
            continue
        if src != prow:
            rows[src], rows[prow] = rows[prow], rows[src]
            order[src], order[prow] = order[prow], order[src]
        piv = rows[prow]
        support = [j for j in range(col, len(piv)) if not piv[j].is_zero()]
        c = piv[col].inv()
        for j in support:
            piv[j] = c * piv[j]
        for r in range(nrows):
            if r == prow:
                continue
            row = rows[r]
            f = row[col]
            if f.is_zero():
                continue
            for j in support:
                row[j] = row[j] - f * piv[j]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return tuple(pivots), order


def row_reduce_left(A):
    """Reduced row echelon form of A under left row operations.

    Runs the elimination on [A | I], so the right block ends as the
    accumulated transform.  Returns the echelon matrix, the transform,
    and the pivot column indices.
    """
    ring = A.ring
    rows = [list(r) + list(e) for r, e in zip(A.rows, identity(ring, A.nrows).rows)]
    pivots = _eliminate(rows, A.ncols)[0]
    return ReducedForm(
        R=Matrix(ring, [r[:A.ncols] for r in rows]),
        T=Matrix(ring, [r[A.ncols:] for r in rows]),
        pivots=pivots,
    )


def rank(A):
    """Number of pivots; over a division ring this is also the column rank.

    Eliminates A alone: no transform is built.
    """
    if A.ncols == 0 or A.nrows == 0:
        return 0
    return len(_eliminate([list(r) for r in A.rows], A.ncols)[0])


def echelon_insert(rows, vec):
    """Grow a left span by vec.

    rows maps each leading (first nonzero) column to the kept row that
    has a 1 there, so len(rows) is the dimension of the span and the
    leading columns are where its projections onto the first k columns
    gain a dimension.  vec is reduced against the rows; if a nonzero
    entry survives, the row scaled to 1 there is kept and the reduced
    row is returned as it was before scaling, else None (vec lies in the
    span).
    """
    v = list(vec)
    for k in range(len(v)):
        x = v[k]
        if x.is_zero():
            continue
        row = rows.get(k)
        if row is None:
            c = x.inv()
            rows[k] = [c * y for y in v]
            return v
        for j in range(k, len(v)):
            y = row[j]
            if not y.is_zero():
                v[j] = v[j] - x * y
    return None


def left_null_space(A):
    """Left-independent basis of {lambda : lambda * A = 0}.

    Rows of the transform T aligned with zero rows of the echelon form:
    those satisfy T_r * A = R_r = 0, and T being invertible makes them
    independent and spanning.  Basis size is nrows - rank.
    """
    if A.nrows == 0:
        return []
    red = row_reduce_left(A)
    out = []
    for r in range(A.nrows):
        if all(x.is_zero() for x in red.R.rows[r]):
            out.append(tuple(red.T.rows[r]))
    return out


def solve_left(A, b):
    """Some lambda with lambda * A = b, or NoSolution.

    Eliminating A alone names its pivot columns P and the rows C that
    end as pivot rows; the square S = A[C, P] is invertible.  lambda is
    zero off C and lambda_C * S = b_P, solved on S alone, so the work is
    O(rows * cols^2) and no rows x rows transform is built.  The
    solution with that support is unique: it is the one the reduced
    echelon form of A gives when every free row gets 0.  The check
    lambda * A = b decides consistency.
    """
    b = tuple(b)
    if len(b) != A.ncols:
        raise ValueError("right-hand side length must equal the column count")
    zero = A.ring.zero()
    if A.nrows == 0:
        if all(x.is_zero() for x in b):
            return ()
        raise NoSolution("empty matrix spans only zero")
    pivots, order = _eliminate([list(r) for r in A.rows], A.ncols)
    chosen = order[:len(pivots)]
    lam = [zero] * A.nrows
    if pivots:
        S = Matrix(A.ring, [[A.rows[i][c] for c in pivots] for i in chosen])
        T = row_reduce_left(S).T
        for i, x in zip(chosen, left_apply(tuple(b[c] for c in pivots), T)):
            lam[i] = x
    lam = tuple(lam)
    if any(x != y for x, y in zip(left_apply(lam, A), b)):
        raise NoSolution("right-hand side outside the left row space")
    return lam
