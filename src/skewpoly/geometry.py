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
their values form an invertible square S; the rows of T = S^-1 are the
dual polynomials, and the border relations x_i s - (values of x_i s) T,
one per non-standard x_i s with s standard, generate the polynomials
vanishing on the basis, so closure membership is their vanishing.
vandermonde() stays as the independent verifier and as the certificate
of find_p_basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as _cartesian

from .errors import DuplicatePoint, InvalidInput, NotFinite
from .evaluation import _fundamental_values, check_point, conjugate
from .freering import monomials_below
from .linalg import Matrix, _combine, _reduce_with_transform, echelon_insert
from .rings import _span_codes

# Work budgets, checked before any work is done (docs/wire_format.md).
VANDERMONDE_CELL_LIMIT = 1 << 18   # predicted rows x points of vandermonde()
VERIFIER_WORK_LIMIT = 1 << 22      # predicted rows x M^2 of lagrange_via_vandermonde()
CLOSURE_POINT_LIMIT = 1 << 16      # q^n points of F^n, which bound closure_members()
IMAGE_WORK_LIMIT = 1 << 25         # predicted n * M^3 of the image echelon of M points
MEMBERSHIP_WORK_LIMIT = 1 << 22    # predicted n * M^2 * (k M + t) of the membership tests over M points


def check_point_set(frame, points):
    """Validate an ordered collection of distinct points."""
    pts = tuple(check_point(frame, p) for p in points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("point sets must contain distinct points")
    return pts


def points_to_json(frame, points):
    from .evaluation import point_to_json

    return [point_to_json(frame, p) for p in points]


def points_from_json(frame, obj):
    from .evaluation import point_from_json

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
    degree < d, capped at 64 degrees, which already give more rows than
    any work budget when n >= 2."""
    return d if n == 1 else (n ** min(d, 64) - 1) // (n - 1)


def _vandermonde_values(frame, points, d):
    """The checked points, the row labels and the rows of ring values of
    vandermonde(frame, points, d), refused unbuilt past the cell limit."""
    if d < 1:
        raise InvalidInput("degree bound must be >= 1")
    points = tuple(check_point(frame, p) for p in points)
    n = frame.n
    nrows = vandermonde_rows(n, d)
    cells = nrows * max(len(points), 1)
    if n == 1:
        cells += d * (d - 1) // 2
    if cells > VANDERMONDE_CELL_LIMIT:
        size = cells if n == 1 or d <= 64 else f"more than {cells}"
        raise InvalidInput(
            f"a degree-{d} Vandermonde over {len(points)} points has {size} cells, "
            f"over the limit of {VANDERMONDE_CELL_LIMIT}"
        )
    monos = monomials_below(n, d)
    tables = [_fundamental_values(frame, p, d) for p in points]
    return points, monos, [[t[m] for t in tables] for m in monos]


def vandermonde(frame, points, d):
    """Matrix of fundamental-function values.

    Rows run over the monomials of degree < d in the global monomial
    order, columns over the given points.  Row count is d for n = 1
    and (n^d - 1)/(n - 1) otherwise; a matrix predicted to exceed
    VANDERMONDE_CELL_LIMIT cells (rows x points) is refused unbuilt.
    For n = 1 the row labels x1^e, e < d, spell d(d - 1)/2 letters,
    which outgrow the d M cells, so they count as cells too.
    """
    points, monos, rows = _vandermonde_values(frame, points, d)
    wrap, elements = frame.ring.wrap, {}  # one element per distinct value
    rows = [[elements[v] if v in elements else elements.setdefault(v, wrap(v)) for v in r]
            for r in rows]
    return Matrix(frame.ring, rows, row_labels=monos, col_labels=points)


# ---------------------------------------------------------------------------
# The image echelon
# ---------------------------------------------------------------------------

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
    More than IMAGE_WORK_LIMIT predicted n * M^3 ring operations are
    refused before the first row.
    """
    M = len(points)
    work = frame.n * M ** 3
    if work > IMAGE_WORK_LIMIT:
        raise InvalidInput(
            f"the image echelon of {M} points in {frame.n} variables predicts {work} "
            f"ring operations (n * M^3), over the limit of {IMAGE_WORK_LIMIT}"
        )
    if not M:
        return (), ()
    ring = frame.ring
    maps = [frame.point_map_val(b) for b in points]
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


def _value_rows(frame, standard, points):
    """Values (N_w(b_1), ..., N_w(b_M)), as ring values, of the standard
    monomials w and of every x_i s with s standard, each from the row of
    its tail."""
    maps = [frame.point_map_val(b) for b in points]
    ring = frame.ring
    rows = {(): [ring.unwrap(ring.one())] * len(points)}
    for s in standard:
        ext = [phi(v) for phi, v in zip(maps, rows[s])]
        for i in range(frame.n):
            rows[(i + 1,) + s] = [e[i] for e in ext]
    return rows


def _inverse_square(frame, monos, rows):
    """T = S^-1, as rows of ring values, for the square S of the value rows
    of monos at P-independent points: row i of T holds the coefficients, on
    monos, of the polynomial that is 1 at point i and 0 at the others."""
    return _reduce_with_transform(frame.ring, [rows[m] for m in monos], len(monos))[1]


def _check_membership_work(frame, M, rows, table=0):
    """Refuse membership work over M points predicted above
    MEMBERSHIP_WORK_LIMIT.  For each of at most M basis points it counts
    rows residue computations of about n M^2 ring operations each (the
    values at one point and one dot product per border relation) and a
    span table of table codes for each of the at most n M relations:
    n M^2 (rows M + table) in all.  M bounds the basis, so this runs
    before the closure test is set up."""
    work = frame.n * M ** 2 * (rows * M + table)
    if work > MEMBERSHIP_WORK_LIMIT:
        raise InvalidInput(
            f"membership tests over {M} points predict {work} ring operations "
            f"(n * M^2 * ({rows} M + {table})), over the limit of {MEMBERSHIP_WORK_LIMIT}"
        )


def _closure_test(frame, generators):
    """A P-basis of the generators and the residues of a point b.

    The basis is the one find_p_basis keeps.  The residues of b, yielded
    one at a time as ring values, are the values R(b) of the border
    relations R of the basis; those relations generate the polynomials
    vanishing on the basis, so b lies in the closure exactly when every
    residue is zero.
    One call costs the values of the standard monomials at b and one dot
    product per relation, about n M^2 ring operations.
    """
    lead, standard = _image_echelon(frame, generators)
    basis = tuple(generators[k] for k in lead)
    ring = frame.ring
    if not basis:
        # the constant 1 generates the polynomials vanishing on no point
        one = ring.unwrap(ring.one())
        return basis, lambda b: iter([one])
    # the generators and their P-basis share the standard monomials
    rows = _value_rows(frame, standard, basis)
    T = _inverse_square(frame, standard, rows)
    is_standard = set(standard)
    relations = [(w, _combine(ring, row, T, len(basis)))
                 for w, row in rows.items() if w not in is_standard]
    add, sub, times = ring.add_val, ring.sub_val, ring.mul_val

    def residues(b):
        values = _value_rows(frame, standard, (b,))
        at_standard = [values[s][0] for s in standard]
        for w, coeffs in relations:
            acc = 0
            for c, v in zip(coeffs, at_standard):
                if c:
                    acc = add(acc, times(c, v))
            yield sub(values[w][0], acc)

    return basis, residues


# ---------------------------------------------------------------------------
# Independence and bases
# ---------------------------------------------------------------------------

def _probe_leads(frame, b, generators):
    """Whether b, appended to the generators, leads a coordinate of their
    image echelon, that is, lies outside their closure."""
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
    lead = set(_image_echelon(frame, points)[0])
    kept = tuple(p for k, p in enumerate(points) if k in lead)
    discarded = tuple(p for k, p in enumerate(points) if k not in lead)
    return PBasisResult(basis=kept, rank=len(kept), discarded=discarded, frame=frame)


def rank_of(frame, points):
    """Rank of the closure of the given points."""
    return len(_image_echelon(frame, check_point_set(frame, points))[0])


def in_closure(frame, b, generators):
    """Closure membership for arbitrary (possibly dependent) generators."""
    b = check_point(frame, b)
    generators = check_point_set(frame, generators)
    return b in generators or not _probe_leads(frame, b, generators)


def set_is_p_independent(frame, points):
    """Whether every point lies outside the closure of the others."""
    points = check_point_set(frame, points)
    return len(_image_echelon(frame, points)[0]) == len(points)


def closure_members(frame, generators):
    """All points of F^n in the closure of the generators (finite fields only),
    in all_points order.

    Only the twisted conjugates a^c (c != 0) of the points a of a P-basis
    B are decided: the closure lies in the conjugacy classes of any
    generating set, the multivariate form of Lam and Leroy (1988).
    Proof, by induction on |B|, that a point b conjugate to no point of B
    has some F vanishing on B with F(b) != 0.  For B empty take F = 1.
    Otherwise B = B' + {a}, and by induction some F' vanishes on B' with
    d = F'(b) != 0.  If F'(a) = 0, F' serves.  Else let c = F'(a) and
    G = (x_i - (a^c)_i) F' for an i with (b^d)_i != (a^c)_i; such an i
    exists, since b^d = a^c would make b = a^(d^-1 c) conjugate to a, by
    (a^c)^e = a^(ec).  The product rule (FG)(p) = F(p^G(p)) G(p), and
    (FG)(p) = 0 where G(p) = 0, gives G = 0 on B', G(a) =
    ((a^c)_i - (a^c)_i) c = 0 and G(b) = ((b^d)_i - (a^c)_i) d != 0.

    a^c lies in the closure exactly when every border relation R gives
    R(a^c) = 0, that is (R c)(a) = R(a^c) c = 0 by the product rule.  The
    map c -> (R c)(a) is additive, so its values at the k power-basis
    elements t^j, one residue computation at each conjugate a^(t^j), give
    its value at every c as a GF(p)-combination; the q - 1 conjugates
    are decided from that table of sums.  Conjugacy classes partition
    F^n (a^1 = a), so a basis point already listed adds no class.  The
    q^n points of F^n are bounded by CLOSURE_POINT_LIMIT, and the k residue
    computations and the q-entry span tables of at most M basis points, M
    the number of generators, by MEMBERSHIP_WORK_LIMIT, before any work is
    done.
    """
    generators = check_point_set(frame, generators)
    ring = frame.ring
    if not ring.is_finite:
        raise NotFinite("closure listing needs a finite coefficient field")
    if not generators:
        return ()
    count = ring.size ** frame.n
    if count > CLOSURE_POINT_LIMIT:
        raise InvalidInput(
            f"closure lists up to {count} points, over the limit of {CLOSURE_POINT_LIMIT}"
        )
    _check_membership_work(frame, len(generators), ring.k, ring.size)
    basis, residues = _closure_test(frame, generators)
    spanning, times = ring.additive_basis(), ring.mul_val
    members = set()
    for a in basis:
        if a in members:
            continue
        # (R c)(a) = R(a^c) c is additive in c for every border relation R:
        # its codes at the power basis give its code at every constant
        at_basis = [[times(r, e.val) for r in residues(conjugate(frame, a, e))]
                    for e in spanning]
        values = [_span_codes(col, ring.p, ring.add_val) for col in zip(*at_basis)]
        units = [ring.element(v) for v in range(1, ring.size) if not any(t[v] for t in values)]
        members.update(conjugate(frame, a, c) for c in units)
    return tuple(sorted(members, key=lambda b: [x.val for x in b]))


def is_two_sided(frame, points):
    """Whether the ideal of polynomials vanishing on the points is two-sided.

    That holds exactly when the closure is closed under conjugation.  By
    the proof in closure_members every closure point is a conjugate a^e of
    a basis point a, and (a^e)^c = a^(ce), so it is enough that every a^c
    with c != 0 lies in the closure, that is, that (R c)(a) = R(a^c) c
    vanishes for every border relation R.  c -> (R c)(a) is additive, so
    its kernel is a subspace over the prime field and it suffices to test
    c over an additive basis of the ring: M k tests, over the quaternions
    too, bounded by MEMBERSHIP_WORK_LIMIT before any work is done.
    """
    points = check_point_set(frame, points)
    spanning = frame.ring.additive_basis()
    _check_membership_work(frame, len(points), len(spanning))
    basis, residues = _closure_test(frame, points)
    return not any(any(residues(conjugate(frame, a, c))) for a in basis for c in spanning)


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
