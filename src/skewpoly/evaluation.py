"""Evaluation of skew polynomials at affine points.

The value F(a) is the unique remainder of dividing F on the right by
the polynomials x_1 - a_1, ..., x_n - a_n.  Two independent paths are
provided: the division algorithm itself, and the recursion on the
per-monomial fundamental functions

    N_empty(a) = 1
    N_(x_i m)(a) = T_i(N_m(a)),  T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v)

which the evaluate() fast path uses.  For a fixed point a every T_i is
additive in v (Leroy's pseudo-linear map of a, in n variables), so
Frame.point_table builds the n maps of a once, on ring values, and keeps
the values N_w(a) found beside them, up to a bound.  PointTable.node is
the one walker of the recursion on that table, and evaluate, fundamental,
fundamental_table, conjugate and _value_rows (the Vandermonde rows and
the value rows of the standard monomials, at several points) all read
it, and the class tests of geometry.py apply its map.  Points are plain
tuples of ring elements of length frame.n.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import DivisionByZero, InvalidInput, RingMismatch
from .freering import (
    SkewPolynomial,
    _check_push_budget,
    _divide_words,
    _product_words,
    _push_list,
    check_word,
    constant,
    frame_memo,
    monomials_below,
    mul,
)


def check_point(frame, point):
    """Validate and normalize a point to a tuple of frame.n ring elements."""
    point = tuple(point)
    _point_values(frame, point)
    return point


def _point_values(frame, point):
    """The ring values of a point's coordinates, the key of its PointTable:
    InvalidInput for a wrong length, RingMismatch for a foreign element."""
    point = tuple(point)
    if len(point) != frame.n:
        raise InvalidInput(f"point has {len(point)} coordinates, frame has n={frame.n}")
    return tuple(map(frame.ring.unwrap, point))


def point_to_json(frame, point):
    enc = frame.ring.element_to_json
    return [enc(a) for a in point]


def point_from_json(frame, obj):
    if not isinstance(obj, list):
        raise ValueError("point must be a list of elements")
    dec = frame.ring.element_from_json
    return check_point(frame, tuple(dec(x) for x in obj))


@dataclass
class DivisionResult:
    """Quotients and remainder of right division by {x_i - a_i}."""

    quotients: list
    remainder: object

    def reconstruct(self, frame, point):
        """Sum of quotient_i * (x_i - a_i) plus the remainder.

        Runs on the ring's open sums, on the nodes of the frame's PushMemo: a
        quotient term c u gives c on the node of u x_i (u 1 = u, so the unit
        needs no push) and -c P(a_i) on w for each pair (w, P) of u's push
        list.  Each sum is closed once, only the nodes that survive are
        spelled, and one element is built per result term.
        """
        point = check_point(frame, point)
        ring = frame.ring
        unwrap, mul_add, neg = ring.unwrap, ring.mul_add_val, ring.neg_val
        for q in self.quotients:
            if q.frame is not frame:
                raise RingMismatch("polynomials built over different frames")
        _check_push_budget(sum(_product_words(q, constant(frame, a))
                               for q, a in zip(self.quotients, point)), "the reconstruction")
        out = {0: unwrap(self.remainder)}  # node -> open sum
        one = unwrap(ring.one())
        memo = frame_memo(frame)
        node, append = memo.node, memo.append
        for i, (q, a) in enumerate(zip(self.quotients, point), 1):
            a = unwrap(a)
            for u, c in q.terms.items():
                c, v = unwrap(c), node(u)
                x = append(v, i)
                out[x] = mul_add(out.get(x, 0), c, one)
                c = neg(c)
                for w, m in (memo.pushes[v] or _push_list(frame, v, memo)) if a else ():
                    pc = m.apply(a)
                    if pc:
                        out[w] = mul_add(out.get(w, 0), c, pc)
        word = memo.word
        return SkewPolynomial._made(frame, {word(v): c
                                            for v, c in ring.wrap_sums(out.items()).items()})


def divide(F, point):
    """Right division of F by x_1 - a_1, ..., x_n - a_n.

    Repeatedly kills a monomial m x_i of top degree by moving its
    coefficient times m into quotient i; every replacement term has
    strictly smaller degree, so the loop terminates with a constant.
    The quotients and the remainder are unique, so the order within one
    degree does not matter, and a monomial once killed never returns.

    Words are nodes of the frame's PushMemo, the prefix m of a node its
    parent.  The monomials to kill come off a heap keyed by degree,
    largest first.  A node enters the heap when it enters the remainder,
    and a kill only makes shallower words, so no node enters twice.  The
    remainder holds the ring's open sums: each is closed once, when its
    node is popped, and skipped when it closes to zero; the constant term
    is closed at the end.  A quotient gets one closed value per kill.

    A division whose pushes _divide_words predicts to make more than
    PUSH_TERM_LIMIT words is refused before the first push.
    """
    frame = F.frame
    point = check_point(frame, point)
    ring = frame.ring
    _check_push_budget(_divide_words(frame, F.terms), "the division")
    unwrap, mul_add, close = ring.unwrap, ring.mul_add_val, ring.close_val
    point = [unwrap(a) for a in point]
    memo = frame_memo(frame)
    parent, letter, depth, spelled = memo.parent, memo.letter, memo.depth, memo.spelled
    rem = {memo.node(w): unwrap(c) for w, c in F.terms.items()}  # node -> open sum
    heap = [(-depth[v], v) for v in rem if v]
    heapify(heap)
    quot = [dict() for _ in range(frame.n)]
    while heap:
        v = heappop(heap)[1]
        c = close(rem.pop(v))
        if not c:
            continue
        prefix, i = parent[v], letter[v] - 1
        if spelled[prefix] is None:
            # a slice of the killed word, not a walk up from the prefix
            spelled[prefix] = memo.word(v)[:-1]
            memo.letters += depth[prefix]
        quot[i][prefix] = c  # v is prefix x_(i+1), killed once
        # F <- F - c * prefix * (x_i - a_i), the x_i part cancelled above,
        # one open image per pair of the prefix's push list
        a = point[i]
        for w, m in (memo.pushes[prefix] or _push_list(frame, prefix, memo)) if a else ():
            pc = m.apply(a)
            if pc:
                s = rem.get(w)
                if s is None and w:
                    heappush(heap, (-depth[w], w))
                rem[w] = mul_add(s or 0, c, pc)
    wrap = ring.wrap
    return DivisionResult(
        [SkewPolynomial._made(frame, {spelled[v]: wrap(q) for v, q in quo.items()})
         for quo in quot],
        wrap(close(rem.get(0, 0))))


def fundamental(frame, word, point):
    """Value of the fundamental function of the given monomial at the point."""
    table = frame.point_table(_point_values(frame, point))
    return frame.ring.wrap(table.value(frame, check_word(frame, word)))


def _value_rows(frame, words, points, rows=None):
    """Values (N_w(b_1), ..., N_w(b_M)), as ring values, of the empty word
    and of every x_i w with w in words, the tail of each word coming earlier
    in words (or empty): the node of w in each point's table gives all n
    extensions with one phi, kept there (PointTable.ext).  Given rows, an
    earlier call's over the same points, the new rows go into it, and a
    word a table does not index is extended from its row, neither walked
    nor held, so rows grown a degree at a time run phi once per row and point."""
    tables = [frame.point_table(_point_values(frame, b)) for b in points]
    given = rows is not None
    if not given:
        rows = {(): [t.vals[0] for t in tables]}
    for w in words:
        if given:
            ext = [t.ext(t.index[w]) if w in t.index else t.phi(v)
                   for t, v in zip(tables, rows[w])]
        else:
            tail = w[1:]
            ext = [t.ext(t.node(frame, w, tail)) for t in tables]
        for i in range(frame.n):
            rows[(i + 1,) + w] = [e[i] for e in ext]
    return rows


def fundamental_table(frame, point, d):
    """Fundamental values of every monomial of degree < d at one point,
    by _value_rows over the monomials of degree < d - 1.  Results match
    the naive recursion exactly."""
    wrap = frame.ring.wrap
    rows = _value_rows(frame, monomials_below(frame.n, d - 1), (point,))
    return {w: wrap(r[0]) for w, r in rows.items()}


def evaluate(F, point):
    """F(a) as the left combination sum_m F_m N_m(a).

    Agrees with divide(F, point).remainder; the division path is kept
    as an independent cross-check.  A word indexed in the point's table,
    which the frame keeps up to its bound (see Frame), costs one lookup, any
    other a walk (PointTable.node).  The sum runs as one open sum of the
    ring on ring values, and one element is built, the value.
    """
    frame = F.frame
    table = frame.point_table(_point_values(frame, point))
    ring = frame.ring
    unwrap, mul_add, index, vals = ring.unwrap, ring.mul_add_val, table.index, table.vals
    total = 0
    for w, c in F.terms.items():
        node = index.get(w)
        if node is None:
            node = table.node(frame, w)
        total = mul_add(total, unwrap(c), vals[node])
    return ring.wrap(ring.close_val(total))


def conjugate(frame, point, c):
    """The twisted conjugate sigma(c) a c^(-1) + delta(c) c^(-1) of a point:
    the compiled maps of the point applied to c, scaled by c^(-1) on the
    right."""
    table = frame.point_table(_point_values(frame, point))
    ring = frame.ring
    c = ring.unwrap(c)
    if not c:
        raise DivisionByZero("conjugation by zero")
    cinv, times, wrap = ring.inv_val(c), ring.mul_val, ring.wrap
    return tuple([wrap(times(y, cinv)) for y in table.phi(c)])


@dataclass
class ProductRuleReport:
    """All intermediate values of one product-rule check at a point."""

    ok: bool
    lhs: object          # (FG)(a)
    rhs: object          # F(a^c) G(a), or None when c = 0
    c: object            # G(a)
    conjugate_point: object  # a^c, or None when c = 0


def check_product_rule(F, G, point):
    """Compare (FG)(a) against F(a^c) G(a) with c = G(a).

    When c = 0 the check asserts (FG)(a) = 0 instead.
    """
    if F.frame is not G.frame:
        raise RingMismatch("polynomials built over different frames")
    frame = F.frame
    point = check_point(frame, point)
    lhs = evaluate(mul(F, G), point)
    c = evaluate(G, point)
    if c.is_zero():
        return ProductRuleReport(ok=lhs.is_zero(), lhs=lhs, rhs=None, c=c, conjugate_point=None)
    ac = conjugate(frame, point, c)
    rhs = evaluate(F, ac) * c
    return ProductRuleReport(ok=(lhs == rhs), lhs=lhs, rhs=rhs, c=c, conjugate_point=ac)
