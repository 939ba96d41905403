"""Exact dense linear algebra over a division ring, left-sided throughout.

Coefficient vectors act on matrices from the left (lambda * A), matching
how skew polynomial coefficients combine Vandermonde rows.  No right
module API is exposed; over a noncommutative ring a silently flipped
convention is the classic way to corrupt results.

Elimination uses no pivoting heuristics: arithmetic is exact, so the
first nonzero entry wins and output is deterministic.  The kernels run on
ring values through the ring's unwrap, *_val arithmetic and wrap; the
public functions take and return elements, built only where they return.
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


def _values(A):
    """The entries of A as ring values (see the ring's unwrap), row by row."""
    unwrap = A.ring.unwrap
    return [[unwrap(x) for x in row] for row in A.rows]


def _combine(ring, lam, rows, ncols):
    """lambda * rows on ring values: sum_r lambda_r rows_r, each lambda_r on the left."""
    add, times = ring.add_val, ring.mul_val
    out = [0] * ncols
    for c, row in zip(lam, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = add(out[j], times(c, x))
    return out


def left_apply(vec, A):
    """The row vector lambda * A (lambda entries multiply rows on the left)."""
    if len(vec) != A.nrows:
        raise ValueError("vector length must equal the row count")
    ring = A.ring
    lam = [ring.unwrap(x) for x in vec]
    return tuple(map(ring.wrap, _combine(ring, lam, _values(A), A.ncols)))


@dataclass
class ReducedForm:
    """T * A = R with R reduced row echelon and T invertible."""

    R: Matrix
    T: Matrix
    pivots: tuple


def _eliminate(ring, rows, ncols):
    """Reduce rows of ring values in place to reduced row echelon form,
    pivoting only in the first ncols columns, and return (pivots, order):
    the pivot columns, and the original index of the row now at each
    position, so order[:len(pivots)] names the rows that end as pivot rows.

    Allowed moves: swap, row <- c * row (c nonzero), row_i <- row_i -
    c * row_j, always with c applied on the left.  Entries past ncols
    ride along, which is how _reduce_with_transform accumulates its
    transform.  The pivot row is zero before its pivot column, so scaling
    it and clearing the column elsewhere touch only the entries where it
    is nonzero, in place.  Pivot rows only ever absorb multiples of pivot
    rows, so each is a left combination of the rows named in
    order[:len(pivots)].
    """
    add, neg, times, inv = ring.add_val, ring.neg_val, ring.mul_val, ring.inv_val
    nrows = len(rows)
    order = list(range(nrows))
    pivots = []
    prow = 0
    for col in range(ncols):
        src = next((r for r in range(prow, nrows) if rows[r][col]), None)
        if src is None:
            continue
        if src != prow:
            rows[src], rows[prow] = rows[prow], rows[src]
            order[src], order[prow] = order[prow], order[src]
        piv = rows[prow]
        support = [j for j in range(col, len(piv)) if piv[j]]
        c = inv(piv[col])
        for j in support:
            piv[j] = times(c, piv[j])
        for r in range(nrows):
            f = rows[r][col]
            if r == prow or not f:
                continue
            row, f = rows[r], neg(f)
            for j in support:
                row[j] = add(row[j], times(f, piv[j]))
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return tuple(pivots), order


def _reduce_with_transform(ring, rows, ncols):
    """(R, T, pivots) on ring values: the elimination of [rows | I], so
    that T * rows = R with R reduced row echelon and T invertible."""
    one = ring.unwrap(ring.one())
    ext = [list(row) + [0] * len(rows) for row in rows]
    for i, row in enumerate(ext):
        row[ncols + i] = one
    pivots = _eliminate(ring, ext, ncols)[0]
    return [r[:ncols] for r in ext], [r[ncols:] for r in ext], pivots


def row_reduce_left(A):
    """Reduced row echelon form of A under left row operations.

    Runs the elimination on [A | I], so the right block ends as the
    accumulated transform.  Returns the echelon matrix, the transform,
    and the pivot column indices.
    """
    ring = A.ring
    R, T, pivots = _reduce_with_transform(ring, _values(A), A.ncols)
    wrap = ring.wrap
    return ReducedForm(R=Matrix(ring, [map(wrap, r) for r in R]),
                       T=Matrix(ring, [map(wrap, t) for t in T]), pivots=pivots)


def rank(A):
    """Number of pivots; over a division ring this is also the column rank.

    Eliminates A alone: no transform is built.
    """
    if A.ncols == 0 or A.nrows == 0:
        return 0
    return len(_eliminate(A.ring, _values(A), A.ncols)[0])


def echelon_insert(ring, rows, vec):
    """Grow a left span by vec, on ring values.

    rows maps each leading (first nonzero) column to the kept row that
    has a 1 there, so len(rows) is the dimension of the span and the
    leading columns are where its projections onto the first k columns
    gain a dimension.  vec is reduced against the rows; if a nonzero
    entry survives, the row scaled to 1 there is kept and the reduced
    row is returned as it was before scaling, else None (vec lies in the
    span).
    """
    add, times = ring.add_val, ring.mul_val
    v = list(vec)
    for k in range(len(v)):
        x = v[k]
        if not x:
            continue
        row = rows.get(k)
        if row is None:
            c = ring.inv_val(x)
            rows[k] = [times(c, y) for y in v]
            return v
        f = ring.neg_val(x)
        for j in range(k, len(v)):
            y = row[j]
            if y:
                v[j] = add(v[j], times(f, y))
    return None


def left_null_space(A):
    """Left-independent basis of {lambda : lambda * A = 0}.

    Rows of the transform T aligned with zero rows of the echelon form:
    those satisfy T_r * A = R_r = 0, and T being invertible makes them
    independent and spanning.  Basis size is nrows - rank.
    """
    R, T, _ = _reduce_with_transform(A.ring, _values(A), A.ncols)
    wrap = A.ring.wrap
    return [tuple(map(wrap, t)) for r, t in zip(R, T) if not any(r)]


def _solve(ring, rows, ncols, b):
    """solve_left on ring values: rows and b hold values, and so does the answer."""
    if not rows:
        if any(b):
            raise NoSolution("empty matrix spans only zero")
        return []
    pivots, order = _eliminate(ring, [list(r) for r in rows], ncols)
    chosen = order[:len(pivots)]
    lam = [0] * len(rows)
    if pivots:
        square = [[rows[i][c] for c in pivots] for i in chosen]
        T = _reduce_with_transform(ring, square, len(pivots))[1]
        for i, x in zip(chosen, _combine(ring, [b[c] for c in pivots], T, len(pivots))):
            lam[i] = x
    if _combine(ring, lam, rows, ncols) != list(b):
        raise NoSolution("right-hand side outside the left row space")
    return lam


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
    ring = A.ring
    lam = _solve(ring, _values(A), A.ncols, [ring.unwrap(x) for x in b])
    return tuple(map(ring.wrap, lam))
