"""Separators, Lagrange interpolation, dual P-bases and quotient classes.

Interpolants over a P-basis of M points always exist with degree below
M, but are not unique (the Vandermonde system is non-square), so the
two construction paths here only promise equal *evaluations*:

* the Newton path grows the interpolant one point at a time through
  separator polynomials,
* the Vandermonde path solves the left linear system of coefficients
  directly.

Coefficient-level comparisons between the two are meaningless and the
tests never make them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidInput,
    NoSolution,
    NotARing,
    NotPIndependent,
    NotSeparable,
)
from .evaluation import evaluate, fundamental_table
from .freering import from_terms, zero
from .geometry import check_point_set, is_two_sided, vandermonde
from .linalg import Matrix, echelon_insert, left_null_space, solve_left


def separator(frame, base, b):
    """A polynomial vanishing on base but not at b, of degree <= #base.

    Found as a left null vector of the Vandermonde over base (its null
    vectors are exactly the coefficient vectors of degree <= #base
    vanishing on base) whose pairing with b's column is nonzero.
    """
    base = check_point_set(frame, base)
    from .evaluation import check_point

    b = check_point(frame, b)
    if not base:
        from .freering import one

        return one(frame)
    d = len(base) + 1
    V = vandermonde(frame, base, d)
    col = [fundamental_table(frame, b, d)[m] for m in V.row_labels]
    for lam in left_null_space(V):
        pair = frame.ring.zero()
        for l, x in zip(lam, col):
            pair = pair + l * x
        if not pair.is_zero():
            return from_terms(frame, zip(V.row_labels, lam))
    raise NotSeparable(f"{b!r} lies in the closure of the base set")


def lagrange_interpolate(frame, basis, values):
    """Newton-style interpolant: F(b_i) = values[i], degree < #basis.

    Builds the answer incrementally; step i+1 adds a left multiple of a
    separator of the first i points against point i+1, which fixes the
    new value without disturbing the settled ones.
    """
    basis = check_point_set(frame, basis)
    values = tuple(values)
    if len(values) != len(basis):
        raise InvalidInput("need exactly one value per basis point")
    if not basis:
        return zero(frame)
    from .freering import constant

    F = constant(frame, values[0])
    for i in range(1, len(basis)):
        try:
            G = separator(frame, basis[:i], basis[i])
        except NotSeparable as exc:
            raise NotPIndependent(
                f"point {i + 1} lies in the closure of its predecessors"
            ) from exc
        g_val = evaluate(G, basis[i])
        corr = (values[i] - evaluate(F, basis[i])) * g_val.inv()
        F = F + G.scale_left(corr)
    return F


def lagrange_via_vandermonde(frame, basis, values):
    """Interpolant from the left linear system over the Vandermonde rows.

    Solves coeffs * V = values with monomials of degree < #basis; an
    inconsistent system means the points were not a P-basis of their
    closure.
    """
    basis = check_point_set(frame, basis)
    values = tuple(values)
    if len(values) != len(basis):
        raise InvalidInput("need exactly one value per basis point")
    if not basis:
        return zero(frame)
    V = vandermonde(frame, basis, len(basis))
    try:
        coeffs = solve_left(V, values)
    except NoSolution as exc:
        raise NotPIndependent("points do not form a P-basis of their closure") from exc
    return from_terms(frame, zip(V.row_labels, coeffs))


@dataclass
class DualPBasis:
    """Polynomials F_i with F_i(b_j) = 1 when i = j and 0 otherwise."""

    basis: tuple
    duals: tuple

    def __post_init__(self):
        self._two_sided = None


def independent_rows(A, order=None):
    """Indices of a maximal left-independent family of rows of A.

    Scans rows in the given order (default: natural), reducing each
    against an echelon of the rows kept so far and keeping it when it
    leaves their span.  Deterministic.
    """
    if order is None:
        order = range(A.nrows)
    kept = []
    span = {}
    for idx in order:
        if echelon_insert(span, A.rows[idx]) is not None:
            kept.append(idx)
            if len(kept) == A.ncols:
                break
    return kept


def dual_p_basis(frame, basis, row_order=None):
    """Dual family of a P-basis, each dual of degree < #basis.

    Picks #basis monomial rows of the Vandermonde forming an invertible
    square [via greedy left elimination in row_order], then solves one
    unit-vector system per basis point.  Different row_order choices
    give different duals defining the same functions on the closure.
    """
    basis = check_point_set(frame, basis)
    M = len(basis)
    if M == 0:
        return DualPBasis(basis=(), duals=())
    V = vandermonde(frame, basis, M)
    chosen = independent_rows(V, order=row_order)
    if len(chosen) != M:
        raise NotPIndependent("Vandermonde rank below #basis: points are P-dependent")
    sub = Matrix(frame.ring, [V.rows[i] for i in chosen])
    monos = [V.row_labels[i] for i in chosen]
    ring = frame.ring
    duals = []
    for i in range(M):
        unit = [ring.one() if j == i else ring.zero() for j in range(M)]
        lam = solve_left(sub, unit)
        duals.append(from_terms(frame, zip(monos, lam)))
    return DualPBasis(basis=basis, duals=tuple(duals))


@dataclass
class QuotientElement:
    """Coordinates of a polynomial class with respect to a dual P-basis."""

    coords: tuple
    dual: DualPBasis

    def representative(self, frame):
        """The canonical representative sum_i coords[i] * F_i."""
        acc = zero(frame)
        for c, f in zip(self.coords, self.dual.duals):
            acc = acc + f.scale_left(c)
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, QuotientElement)
            and self.coords == other.coords
            and self.dual is other.dual
        )


def reduce_mod_ideal(F, dual):
    """Class of F modulo the polynomials vanishing on the dual's basis.

    The coordinates are just the evaluations of F at the basis points;
    the representative agrees with F everywhere on the closure.
    """
    coords = tuple(evaluate(F, b) for b in dual.basis)
    return QuotientElement(coords=coords, dual=dual)


def _ensure_two_sided(frame, dual):
    if dual._two_sided is None:
        dual._two_sided = is_two_sided(frame, dual.basis)
    if not dual._two_sided:
        raise NotARing(
            "the ideal of this point set is not two-sided; the quotient is "
            "only a left module"
        )


def quotient_mul(u, v, frame):
    """Product of two quotient classes, defined only for two-sided ideals."""
    if u.dual is not v.dual:
        raise InvalidInput("operands reduced against different dual bases")
    _ensure_two_sided(frame, u.dual)
    prod = u.representative(frame) * v.representative(frame)
    return reduce_mod_ideal(prod, u.dual)
