"""Zero-set geometry: P-closure, P-independence, P-bases and rank.

A point b lies in the closure of a point set G when every skew
polynomial vanishing on all of G also vanishes at b.  Everything here
is read off the image space V = {(F(b_1), ..., F(b_M))} of a point
tuple, a left subspace of D^M: its dimension is the rank, and point k
is independent from b_1..b_(k-1) exactly when projecting V onto the
first k coordinates gains a dimension over the first k - 1, i.e. when
k is a leading (first nonzero) coordinate of V's echelon form.

_image_echelon builds that echelon without Vandermonde matrices: V is
the smallest left subspace holding the all-ones row (F = 1) and closed
under the maps (x_i F)(b) = sum_j sigma_ij(F(b)) b_j + delta_i(F(b)),
which the frame laws give.  This is the skew analogue of Moller and
Buchberger's construction of polynomials with preassigned zeros; it
reduces at most 1 + nM rows of length M.  The monomials whose rows
enter the echelon are the standard monomials, the rows that
independent_rows keeps in the Vandermonde of degree M.  Over a P-basis
their values form an invertible square S, and the rows of T = S^-1 are
the dual polynomials.  A frame keeps this factorization for the last
point set it was asked about and the P-basis it keeps (_factored): the
echelon, then T once asked for, so the rank, basis, interpolants, duals
and closure of one set share one build.  vandermonde() stays as the
independent verifier and as the certificate of find_p_basis, and never
reads that slot.

Closures and two-sidedness read the conjugacy classes of that P-basis
instead (_classes).  a^c = T^a(c) c^-1, T^a the compiled maps of a, so
b = a^c for some c != 0 exactly when the additive map c -> T^a(c) - b c
has a nonzero kernel, K_a for b = a; in one class the closure is the a^c
with c in the right K_a-span of the class's conjugators
(closure_members).  in_closure stays on the echelon: they check each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, product as _cartesian

from .errors import DuplicatePoint, InvalidInput, NotFinite
from .evaluation import _point_values, _value_rows, check_point, point_from_json, point_to_json
from .freering import count_monomials_below, monomials_of_degree
from .linalg import Matrix, _combine, _reduce_with_transform, echelon_insert
from .rings import _span_codes

# Work budgets, each checked before the work it bounds (docs/wire_format.md).
VANDERMONDE_CELL_LIMIT = 1 << 18   # predicted rows x points of vandermonde()
VERIFIER_WORK_LIMIT = 1 << 22      # predicted rows x M^2 of lagrange_via_vandermonde()
CLOSURE_POINT_LIMIT = 1 << 16      # points closure_members() lists, summed over the classes
IMAGE_WORK_LIMIT = 1 << 25         # predicted n * M^3 of the image echelon of M points
MEMBERSHIP_WORK_LIMIT = 1 << 22    # class tests run, n * k^3 ring operations each


def check_point_set(frame, points):
    """Validate an ordered collection of distinct points (by their ring values)."""
    pts = tuple(map(tuple, points))
    if len({_point_values(frame, p) for p in pts}) != len(pts):
        raise DuplicatePoint("point sets must contain distinct points")
    return pts


def points_to_json(frame, points):
    return [point_to_json(frame, p) for p in points]


def points_from_json(frame, obj):
    if not isinstance(obj, list):
        raise ValueError("point set must be a list of points")
    return check_point_set(frame, [point_from_json(frame, p) for p in obj])


def all_points(frame):
    """Every point of F^n, coordinates in ring enumeration order."""
    if not frame.ring.is_finite:
        raise NotFinite(f"{frame.ring} has infinitely many points")
    els = list(frame.ring.elements())
    for combo in _cartesian(els, repeat=frame.n):
        yield combo


# ---------------------------------------------------------------------------
# Skew Vandermonde matrices
# ---------------------------------------------------------------------------

def vandermonde_rows(n, d):
    """Rows of a degree-d Vandermonde over n variables: the monomials of
    degree < d, capped at 64 degrees when n >= 2, which already give more
    rows than any work budget."""
    return count_monomials_below(n, d if n == 1 else min(d, 64))


def _check_vandermonde(n, M, d, solve=False):
    """Refuse a degree-d Vandermonde over M points past VANDERMONDE_CELL_LIMIT
    cells (for n = 1 the d(d - 1)/2 letters of the labels x1^e, e < d, count
    too) and, when solved, past VERIFIER_WORK_LIMIT rows * M^2 ring operations."""
    nrows = vandermonde_rows(n, d)
    if solve and nrows * M * M > VERIFIER_WORK_LIMIT:  # exact: n = 1, or a degree the rows reach
        raise InvalidInput(f"the Vandermonde solve over {M} points takes about {nrows * M * M} "
                           f"ring operations, over the limit of {VERIFIER_WORK_LIMIT}")
    cells = nrows * max(M, 1) + (d * (d - 1) // 2 if n == 1 else 0)
    if cells > VANDERMONDE_CELL_LIMIT:
        size = cells if n == 1 or d <= 64 else f"more than {cells}"
        raise InvalidInput(f"a degree-{d} Vandermonde over {M} points has {size} cells, "
                           f"over the limit of {VANDERMONDE_CELL_LIMIT}")


def _vandermonde_values(frame, points, d, least=False):
    """The checked points, the row labels and the rows of ring values of
    vandermonde(frame, points, d), refused unbuilt past the cell limit.

    The rows grow one degree at a time.  With least=True (the verifier's
    solve) they stop at the least degree e < d with full column rank, giving
    the rows of vandermonde(frame, points, e), or where no row enters, or
    run on to d; when n >= 2 each degree's budgets are checked before it is
    built.  The rank is read off a left echelon (echelon_insert) of the rows
    in order, tested only when some degree below d has #points rows (never
    when n = 1), and a row only when its tail's row entered: the row of x_i
    w is T_i(row of w), T_i the point's map in each column, and T_i(c r) =
    sum_l sigma_il(c) T_l(r) + delta_i(c) r, so a row that is a left
    combination of earlier rows sends x_i to a combination of rows already
    built: the at most 1 + n #points tested rows span all of degree < e, and
    a degree where none enters ends its growth.
    """
    if d < 1:
        raise InvalidInput("degree bound must be >= 1")
    points = tuple(check_point(frame, p) for p in points)
    n, M, ring = frame.n, len(points), frame.ring
    per_degree = least and n > 1
    _check_vandermonde(n, M, 1 if per_degree else d, per_degree)
    rows, monos, span, entered = _value_rows(frame, (), points), [()], {}, set()
    test = least and vandermonde_rows(n, d - 1) >= M
    for e in range(1, d):  # monos holds the monomials of degree < e
        last = monos[len(monos) - n ** (e - 1):]  # those of degree e - 1
        if test:
            grown = len(entered)
            for m in last:
                if (not m or m[1:] in entered) and echelon_insert(ring, span, rows[m]) is not None:
                    entered.add(m)
                    if len(span) == M:
                        break
            if len(span) == M or len(entered) == grown:  # full, or final: no tail entered
                break
        if per_degree:
            _check_vandermonde(n, M, e + 1, True)
        _value_rows(frame, last, points, rows)
        monos.extend(monomials_of_degree(n, e))
    return points, monos, [rows[m] for m in monos]


def vandermonde(frame, points, d):
    """Matrix of fundamental-function values.

    Rows run over the monomials of degree < d in the global monomial
    order, columns over the given points.  Row count is d for n = 1
    and (n^d - 1)/(n - 1) otherwise; a matrix predicted to exceed
    VANDERMONDE_CELL_LIMIT cells (rows x points, see _check_vandermonde)
    is refused unbuilt.
    """
    points, monos, rows = _vandermonde_values(frame, points, d)
    wrap, elements = frame.ring.wrap, {}  # one element per distinct value
    rows = [[elements[v] if v in elements else elements.setdefault(v, wrap(v)) for v in r]
            for r in rows]
    return Matrix(frame.ring, rows, row_labels=monos, col_labels=points)


# ---------------------------------------------------------------------------
# The image echelon
# ---------------------------------------------------------------------------

def _check_image_work(frame, M):
    """Refuse the image echelon of M points past IMAGE_WORK_LIMIT predicted
    n * M^3 ring operations."""
    work = frame.n * M ** 3
    if work > IMAGE_WORK_LIMIT:
        raise InvalidInput(
            f"the image echelon of {M} points in {frame.n} variables predicts {work} "
            f"ring operations (n * M^3), over the limit of {IMAGE_WORK_LIMIT}"
        )


def _image_echelon(frame, points):
    """Leading coordinates of the image space of the points, ascending,
    and its standard monomials, in the global monomial order.

    The leading coordinates are the indices the greedy P-basis keeps, and
    their count is the rank.  A FIFO worklist starts from the all-ones
    row, labelled by the monomial 1; each row kept for a monomial m
    queues, for every i, the label x_i m with the coordinatewise image
    phi_i(v)_k = sum_j sigma_ij(v_k) b_kj + delta_i(v_k) of the reduced
    row v before it is scaled, through the compiled maps of each point.
    phi_i(v) is congruent to the values of x_i m modulo the rows already
    seen, and FIFO order is the global order, so the kept labels are the
    rows that independent_rows keeps in the Vandermonde.  (phi_i of a
    scaled row c v mixes in phi_j(v) for every j with sigma_ij(c) != 0.)
    Callers check _check_image_work first.
    """
    M = len(points)
    if not M:
        return (), ()
    ring = frame.ring
    maps = [frame.point_table(_point_values(frame, b)).phi for b in points]
    span = {}
    standard = []
    queue = deque([((), [ring.unwrap(ring.one())] * M)])
    while queue and len(span) < M:
        word, row = queue.popleft()
        v = echelon_insert(ring, span, row)
        if v is None:
            continue
        standard.append(word)
        images = [[0] * M for _ in range(frame.n)]
        for k, (x, phi) in enumerate(zip(v, maps)):
            if x:
                for i, y in enumerate(phi(x)):
                    images[i][k] = y
        queue.extend(((i + 1,) + word, image) for i, image in enumerate(images))
    return tuple(sorted(span)), tuple(standard)


def _inverse_square(frame, monos, rows):
    """T = S^-1, as rows of ring values, for the square S of the value rows
    of monos at P-independent points: row i of T holds the coefficients, on
    monos, of the polynomial that is 1 at point i and 0 at the others."""
    return _reduce_with_transform(frame.ring, [rows[m] for m in monos], len(monos))[1]


class _Factorization:
    """One point set factored: its leading coordinates and standard
    monomials, the P-basis they keep, and, once _basis_inverse builds it,
    the inverse square T of that basis, as a tuple."""

    __slots__ = ("points", "lead", "standard", "basis", "inverse")

    def __init__(self, points, lead, standard):
        self.points, self.lead, self.standard = points, lead, standard
        self.basis = tuple(points[k] for k in lead)
        self.inverse = None


def _factored(frame, points):
    """(lead, f) for checked points: the leading coordinates of their image
    echelon, and a factorization f whose basis is the P-basis they keep and
    whose standard monomials are theirs.

    f is the frame's slot (Frame._factored), which holds the last set
    factored.  A set equal to that set, or to the basis it keeps, is
    answered from it: the basis has the same closure, hence the same
    vanishing polynomials and standard monomials.  Any other set is
    factored anew and replaces it.  The image budget is checked before
    the slot is read, so a call is refused or answered the same whatever
    the slot holds.
    """
    _check_image_work(frame, len(points))
    f = frame._factored
    if f is not None:
        if points == f.points:
            return f.lead, f
        if points == f.basis:
            return tuple(range(len(points))), f
    lead, standard = _image_echelon(frame, points)
    f = frame._factored = _Factorization(points, lead, standard)
    return lead, f


def _basis_inverse(frame, f):
    """The inverse square T (_inverse_square) of the value rows of f's
    standard monomials at its basis, built on first use and kept in f."""
    if f.inverse is None:
        rows = _value_rows(frame, f.standard, f.basis)
        f.inverse = tuple(map(tuple, _inverse_square(frame, f.standard, rows)))
    return f.inverse


# ---------------------------------------------------------------------------
# Conjugacy classes
# ---------------------------------------------------------------------------

def _conjugators(ring, spanning, images, b):
    """A prime-field basis of {c : T_i(c) = b_i c for all i}, from the images
    T(e) of the additive basis e under a point a's compiled maps T: a^c = b
    for its c != 0, and it is K_a for b = a.  c -> T(c) - b c is additive,
    so this is the left kernel of its k x nk matrix of prime-field
    coordinates (ring.coordinates_val), which the elimination keeps there."""
    coordinates, sub, times = ring.coordinates_val, ring.sub_val, ring.mul_val
    rows = [[x for t, y in zip(image, b) for x in coordinates(sub(t, times(y, e)))]
            for e, image in zip(spanning, images)]
    T, pivots = _reduce_with_transform(ring, rows, len(rows[0]))[1:]
    return [_combine(ring, t, [[e] for e in spanning], 1)[0] for t in T[len(pivots):]]


def _classes(frame, basis):
    """The conjugacy classes of a P-basis, one at a time, as (phi, centre,
    conjugators, full): phi the compiled maps of the class's first point a,
    centre a prime-field basis of K_a, the c with a^c a basis point (1
    first), and full = [D:K_a], the most c a class holds, as they are right
    K_a-independent (the basis is P-independent): its tests stop there.
    MEMBERSHIP_WORK_LIMIT is checked before each class test."""
    ring = frame.ring
    spanning = [ring.unwrap(e) for e in ring.additive_basis()]
    one, unit, tests = ring.unwrap(ring.one()), frame.n * len(spanning) ** 3, count(1)

    def test(images, b):
        work = next(tests) * unit
        if work > MEMBERSHIP_WORK_LIMIT:
            raise InvalidInput(f"membership tests reach {work // unit} class tests of about "
                               f"{unit} ring operations each (n * k^3), {work} in all, over "
                               f"the limit of {MEMBERSHIP_WORK_LIMIT}")
        return _conjugators(ring, spanning, images, b)

    rest = [_point_values(frame, b) for b in basis]
    while rest:
        a = rest.pop(0)
        phi = frame.point_table(a).phi
        images = [phi(e) for e in spanning]
        centre = test(images, a)
        conjugators, full = [one], len(spanning) // len(centre)
        for b in list(rest):
            if len(conjugators) == full:
                break
            c = test(images, b)
            if c:
                conjugators.append(c[0])
                rest.remove(b)
        yield phi, centre, conjugators, full


# ---------------------------------------------------------------------------
# Independence and bases
# ---------------------------------------------------------------------------

def _probe_leads(frame, b, generators):
    """Whether b, appended to the generators, leads a coordinate of their
    image echelon, that is, lies outside their closure."""
    _check_image_work(frame, len(generators) + 1)
    return len(generators) in _image_echelon(frame, generators + (b,))[0]


def is_p_independent_from(frame, b, base):
    """Whether b lies outside the closure of the set base."""
    b = check_point(frame, b)
    base = check_point_set(frame, base)
    if b in base:
        raise DuplicatePoint(f"{b!r} is already in the base set")
    return _probe_leads(frame, b, base)


@dataclass
class PBasisResult:
    """Greedily extracted P-basis; its certifying Vandermonde is built on
    first access."""

    basis: tuple
    rank: int
    discarded: tuple
    frame: object = field(repr=False, compare=False)

    @cached_property
    def vandermonde(self):
        return vandermonde(self.frame, self.basis, max(self.rank, 1))


def find_p_basis(frame, points):
    """Scan points in input order, keeping each one independent from the
    kept set; the kept set is a P-basis of the closure of the input."""
    points = check_point_set(frame, points)
    lead = set(_factored(frame, points)[0])
    kept = tuple(p for k, p in enumerate(points) if k in lead)
    discarded = tuple(p for k, p in enumerate(points) if k not in lead)
    return PBasisResult(basis=kept, rank=len(kept), discarded=discarded, frame=frame)


def rank_of(frame, points):
    """Rank of the closure of the given points."""
    return len(_factored(frame, check_point_set(frame, points))[0])


def in_closure(frame, b, generators):
    """Closure membership for arbitrary (possibly dependent) generators."""
    b = check_point(frame, b)
    generators = check_point_set(frame, generators)
    return b in generators or not _probe_leads(frame, b, generators)


def set_is_p_independent(frame, points):
    """Whether every point lies outside the closure of the others."""
    points = check_point_set(frame, points)
    return len(_factored(frame, points)[0]) == len(points)


def closure_members(frame, generators):
    """All points of F^n in the closure of the generators (finite fields only),
    in all_points order.

    The closure lies in the conjugacy classes of the points a of a P-basis
    B, and in each class it is the set of a^c, c != 0 in the right
    K_a-span of the class's conjugators (Lam and Leroy, *Algebraic
    conjugacy classes and skew polynomial rings*, 1988, carried to n
    variables).
    Proof, by induction on |B|, that a point b conjugate to no point of B
    has some F vanishing on B with F(b) != 0.  For B empty take F = 1.
    Otherwise B = B' + {a}, and by induction some F' vanishes on B' with
    d = F'(b) != 0.  If F'(a) = 0, F' serves.  Else let c = F'(a) and
    G = (x_i - (a^c)_i) F' for an i with (b^d)_i != (a^c)_i; such an i
    exists, since b^d = a^c would make b = a^(d^-1 c) conjugate to a, by
    (a^c)^e = a^(ec).  The product rule (FG)(p) = F(p^G(p)) G(p), and
    (FG)(p) = 0 where G(p) = 0, gives G = 0 on B', G(a) =
    ((a^c)_i - (a^c)_i) c = 0 and G(b) = ((b^d)_i - (a^c)_i) d != 0.

    Inside a class F(a^c) = (F c)(a) c^-1, and the maps c -> (F c)(a) are
    all the right K_a-linear maps of D (Jacobson density), so the closure
    of the a^(c_j) is the a^c with c in the span of the c_j, and a^(ck) =
    a^c for k in K_a.  Each point is listed once, from the c whose first
    nonzero coordinate on the c_j is 1; CLOSURE_POINT_LIMIT bounds their
    count before the first is listed.
    """
    generators = check_point_set(frame, generators)
    ring = frame.ring
    if not ring.is_finite:
        raise NotFinite("closure listing needs a finite coefficient field")
    classes = list(_classes(frame, _factored(frame, generators)[1].basis))
    count = sum((ring.p ** (len(centre) * len(cs)) - 1) // (ring.p ** len(centre) - 1)
                for _, centre, cs, _ in classes)
    if count > CLOSURE_POINT_LIMIT:
        raise InvalidInput(f"closure lists {count} points, over the limit of {CLOSURE_POINT_LIMIT}")
    add, times, inv = ring.add_val, ring.mul_val, ring.inv_val
    members = []
    for phi, centre, conjugators, _ in classes:
        for j, c in enumerate(conjugators):
            later = [times(d, k) for d in conjugators[j + 1:] for k in centre]
            for u in _span_codes(later, ring.p, add):
                u = add(c, u)
                members.append(tuple([times(y, inv(u)) for y in phi(u)]))
    return tuple(tuple(map(ring.wrap, b)) for b in sorted(members))


def is_two_sided(frame, points):
    """Whether the ideal of polynomials vanishing on the points is two-sided:
    whether the closure is closed under conjugation.  (a^c)^e = a^(ec), so
    by closure_members that holds exactly when every class spans all of D,
    that is, holds [D:K_a] basis points.  The first class that falls short
    answers False.
    """
    points = check_point_set(frame, points)
    return all(len(cs) == full
               for _, _, cs, full in _classes(frame, _factored(frame, points)[1].basis))


# ---------------------------------------------------------------------------
# Matroid verification
# ---------------------------------------------------------------------------

@dataclass
class MatroidReport:
    """Exhaustive subset audit of the independence system on a point set."""

    ok: bool
    violations: list
    ground_size: int
    independent_count: int
    bases: tuple          # maximal independent subsets, as index tuples
    rank: int


def matroid_check(frame, points):
    """Verify hereditary closure, the exchange axiom, and equicardinality
    of maximal independent subsets, over every subset of the input."""
    points = check_point_set(frame, points)
    m = len(points)
    if m > 10:
        raise InvalidInput("exhaustive subset check capped at 10 points")

    def members(mask):
        return tuple(points[i] for i in range(m) if mask >> i & 1)

    indep = {}
    for mask in range(1 << m):
        indep[mask] = set_is_p_independent(frame, members(mask))

    violations = []
    if not indep[0]:
        violations.append("empty set reported dependent")

    for mask in range(1 << m):
        if not indep[mask]:
            continue
        for i in range(m):
            if mask >> i & 1 and not indep[mask & ~(1 << i)]:
                violations.append(f"hereditary failure: subset of {members(mask)!r}")

    indep_masks = [mask for mask in range(1 << m) if indep[mask]]
    for A in indep_masks:
        for B in indep_masks:
            if bin(A).count("1") >= bin(B).count("1"):
                continue
            extra = B & ~A
            if not any(indep[A | (1 << i)] for i in range(m) if extra >> i & 1):
                violations.append(
                    f"exchange failure: {members(A)!r} cannot grow into {members(B)!r}"
                )

    bases = []
    for mask in indep_masks:
        if all(
            not indep[mask | (1 << i)] for i in range(m) if not mask >> i & 1
        ):
            bases.append(mask)
    sizes = {bin(b).count("1") for b in bases}
    if len(sizes) > 1:
        violations.append(f"maximal independent subsets of unequal sizes {sorted(sizes)}")

    rk = max(sizes) if sizes else 0
    base_indices = tuple(
        tuple(i for i in range(m) if mask >> i & 1) for mask in bases
    )
    return MatroidReport(
        ok=not violations,
        violations=violations,
        ground_size=m,
        independent_count=len(indep_masks),
        bases=base_indices,
        rank=rk,
    )


def complementary_p_basis(frame, base, ambient):
    """Extend the P-independent set base through ambient to a P-basis.

    Returns the added points C: base and C are disjoint and their union
    is a P-basis of the closure of ambient.  Requires base itself to be
    P-independent with closure inside the closure of ambient.  C is the
    tail of the greedy P-basis of base followed by the rest of ambient.
    """
    base = check_point_set(frame, base)
    ambient = check_point_set(frame, ambient)
    rest = tuple(p for p in ambient if p not in base)
    res = find_p_basis(frame, base + rest)
    if res.basis[:len(base)] != base:
        raise InvalidInput("base set is not P-independent")
    if res.rank != rank_of(frame, ambient):
        raise InvalidInput("base set leaves the closure of the ambient set")
    return res.basis[len(base):]
