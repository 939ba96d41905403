"""Separators, Lagrange interpolation, dual P-bases and quotient classes.

Over a P-basis b_1..b_M the image echelon of geometry.py names M
standard monomials whose values at the points form an invertible square
S.  Row i of T = S^-1 holds the coefficients of the dual polynomial F_i
(F_i(b_j) = 1 when i = j and 0 otherwise), the only one supported on
the standard monomials; the interpolant of the values is values * T,
and a separator of a base set against a point b is the last dual of a
P-basis of the base followed by b.  All of them have degree < M.

Polynomials of degree < M with given values are not unique (the
Vandermonde of degree M has more rows than columns), so the verifiers
here, lagrange_via_vandermonde (the left linear system over the
monomials of degree < d, d <= M the least degree whose Vandermonde has
full column rank) and dual_p_basis with a row_order (the square picked
from the Vandermonde rows in that order), only promise equal
*evaluations* on the closure.
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
from .evaluation import check_point, evaluate
from .freering import SkewPolynomial, zero
from .geometry import (
    _basis_inverse,
    _check_vandermonde,
    _factored,
    _inverse_square,
    _vandermonde_values,
    check_point_set,
    find_p_basis,
    is_two_sided,
    vandermonde,
)
from .linalg import _combine, _solve, _values, echelon_insert


def separator(frame, base, b):
    """A polynomial vanishing on base but not at b, of degree <= #base.

    The last dual of a P-basis of base followed by b: it is 1 at b and
    vanishes on the basis, hence on its closure, which holds base.
    """
    base = check_point_set(frame, base)
    b = check_point(frame, b)
    if b not in base:
        try:
            return dual_p_basis(frame, find_p_basis(frame, base).basis + (b,)).duals[-1]
        except NotPIndependent:
            pass
    raise NotSeparable(f"{b!r} lies in the closure of the base set")


def lagrange_interpolate(frame, basis, values):
    """Interpolant F(b_i) = values[i] of degree < #basis.

    F = values * T, the left combination of the duals with the values:
    the only interpolant supported on the standard monomials.  This is
    the CLI's `newton` method (the name predates the construction).
    """
    basis = check_point_set(frame, basis)
    values = tuple(values)
    if len(values) != len(basis):
        raise InvalidInput("need exactly one value per basis point")
    if not basis:
        return zero(frame)
    lead, f = _factored(frame, basis)
    if len(lead) < len(basis):
        k = min(set(range(len(basis))) - set(lead))
        raise NotPIndependent(f"point {k + 1} lies in the closure of its predecessors")
    ring = frame.ring
    T = _basis_inverse(frame, f)
    coeffs = _combine(ring, [ring.unwrap(v) for v in values], T, len(basis))
    return _polynomial(frame, f.standard, coeffs)


def _polynomial(frame, monos, coeffs):
    """The polynomial with the ring values coeffs on the distinct words
    monos, building one element per nonzero coefficient."""
    wrap = frame.ring.wrap
    return SkewPolynomial._made(frame, {m: wrap(c) for m, c in zip(monos, coeffs) if c})


def lagrange_via_vandermonde(frame, basis, values):
    """Interpolant from the left linear system over the Vandermonde rows.

    Solves coeffs * V = values over the Vandermonde V of the least
    degree d <= M = #basis whose rows have full column rank M or span all
    of degree M's rows; an inconsistent system means the points were not
    a P-basis of their closure.  The answer is the one over all of degree
    M's rows: V's rows come first among them, and once they span the rest
    the elimination finds every pivot among them, so the later rows get
    coefficient 0.  Only the Vandermonde rows decide d.
    The solve takes about rows * M^2 ring operations; past VERIFIER_WORK_LIMIT
    or VANDERMONDE_CELL_LIMIT cells a job is refused before any row is built
    when n = 1, else before the degree that would pass (_vandermonde_values).
    """
    basis = check_point_set(frame, basis)
    values = tuple(values)
    if len(values) != len(basis):
        raise InvalidInput("need exactly one value per basis point")
    if not basis:
        return zero(frame)
    M = len(basis)
    if frame.n == 1:  # the rows run to d = M
        _check_vandermonde(1, M, M, True)
    ring = frame.ring
    _, monos, rows = _vandermonde_values(frame, basis, M, True)  # least degree
    try:
        coeffs = _solve(ring, rows, M, [ring.unwrap(v) for v in values])
    except NoSolution as exc:
        raise NotPIndependent("points do not form a P-basis of their closure") from exc
    return _polynomial(frame, monos, coeffs)


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
    kept = []
    span = {}
    rows = _values(A)
    for idx in range(A.nrows) if order is None else order:
        if echelon_insert(A.ring, span, rows[idx]) is not None:
            kept.append(idx)
            if len(kept) == A.ncols:
                break
    return kept


def dual_p_basis(frame, basis, row_order=None):
    """Dual family of a P-basis, each dual of degree < #basis.

    The rows of T = S^-1, S the square of values at the basis of #basis
    monomials: by default the standard monomials.  Given a row_order, the
    verifier path reads S off the Vandermonde instead, keeping rows by
    greedy left elimination in row_order.  Different squares give
    different duals defining the same functions on the closure; the
    natural row order keeps the standard monomials and so gives the
    default duals.
    """
    basis = check_point_set(frame, basis)
    M = len(basis)
    if M == 0:
        return DualPBasis(basis=(), duals=())
    if row_order is None:
        f = _factored(frame, basis)[1]
        monos = f.standard
    else:
        V = vandermonde(frame, basis, M)
        monos = [V.row_labels[i] for i in independent_rows(V, order=row_order)]
    if len(monos) != M:
        raise NotPIndependent("Vandermonde rank below #basis: points are P-dependent")
    # the verifier path builds its own square and never reads the frame's
    T = (_basis_inverse(frame, f) if row_order is None
         else _inverse_square(frame, monos, dict(zip(V.row_labels, _values(V)))))
    return DualPBasis(basis=basis, duals=tuple(_polynomial(frame, monos, row) for row in T))


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
