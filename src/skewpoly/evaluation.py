"""Evaluation of skew polynomials at affine points.

The value F(a) is the unique remainder of dividing F on the right by
the polynomials x_1 - a_1, ..., x_n - a_n.  Two independent paths are
provided: the division algorithm itself, and the recursion on the
per-monomial fundamental functions

    N_empty(a) = 1
    N_(x_i m)(a) = T_i(N_m(a)),  T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v)

which the evaluate() fast path uses.  For a fixed point a every T_i is
additive in v (Leroy's pseudo-linear map of a, in n variables), so
Frame.point_map_val builds the n maps of a once, on ring values, and
caches them per frame.  One step of the recursion is then, over GF(p^k),
a single table lookup when q <= 16 and otherwise one lookup per term of
the linearized polynomials of the T_i; over the quaternions it is one
4 x 4 integer product per variable.  evaluate, fundamental,
fundamental_table and conjugate all step through them.
_value_rows is the one walker of the recursion over several points at
once: the Vandermonde rows, fundamental_table, the value rows of the
standard monomials and the closure residues all come from it.  Points
are plain tuples of ring elements of length frame.n.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import freering
from .errors import DivisionByZero, InvalidInput, RingMismatch
from .freering import (
    SkewPolynomial,
    _check_push_budget,
    _divide_words,
    _product_words,
    check_word,
    constant,
    frame_memo,
    monomials_below,
    mul,
)


def check_point(frame, point):
    """Validate and normalize a point to a tuple of frame.n ring elements."""
    point = tuple(point)
    if len(point) != frame.n:
        raise InvalidInput(f"point has {len(point)} coordinates, frame has n={frame.n}")
    for a in point:
        frame.ring.unwrap(a)
    return point


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
        needs no push) and -c (u a_i) on the output nodes of the push of a_i
        through u.  Each sum is closed once, only the nodes that survive are
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
                # looked up on its module, as in divide, so the tracer sees it
                for w, pc in freering._push(frame, v, a, memo).items():
                    out[w] = mul_add(out.get(w, 0), c, pc)
        word = memo.word
        return SkewPolynomial(frame, {word(v): c for v, c in ring.wrap_sums(out.items()).items()})


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
        # F <- F - c * prefix * (x_i - a_i), the x_i part cancelled above;
        # _push is looked up on its module so that a wrapper there sees it
        for w, pc in freering._push(frame, prefix, point[i], memo).items():
            if w and w not in rem:
                heappush(heap, (-depth[w], w))
            rem[w] = mul_add(rem.get(w, 0), c, pc)
    wrap = ring.wrap
    return DivisionResult(
        [SkewPolynomial(frame, {spelled[v]: wrap(q) for v, q in quo.items()}) for quo in quot],
        wrap(close(rem.get(0, 0))))


def fundamental(frame, word, point):
    """Value of the fundamental function of the given monomial at the point.

    Consumes the word from its right end, so the running value is the
    fundamental function of an ever longer suffix.
    """
    point = check_point(frame, point)
    word = check_word(frame, word)
    phi, ring = frame.point_map_val(point), frame.ring
    val = ring.unwrap(ring.one())
    for idx in range(len(word) - 1, -1, -1):
        val = phi(val)[word[idx] - 1]
    return ring.wrap(val)


def _value_rows(frame, words, points, rows=None):
    """Values (N_w(b_1), ..., N_w(b_M)), as ring values, of the empty word
    and of every x_i w with w in words, each from the row of its tail.

    The tail of each word must come earlier in words (or be empty): one
    compiled-map application per word and point gives all n extensions.
    Given rows, the table of an earlier call over the same points, the new
    rows go into it and the tails may be its words too, so a table can
    grow one degree at a time.
    """
    maps = [frame.point_map_val(b) for b in points]
    if rows is None:
        ring = frame.ring
        rows = {(): [ring.unwrap(ring.one())] * len(points)}
    for w in words:
        ext = [phi(v) for phi, v in zip(maps, rows[w])]
        for i in range(frame.n):
            rows[(i + 1,) + w] = [e[i] for e in ext]
    return rows


def fundamental_table(frame, point, d):
    """Fundamental values of every monomial of degree < d at one point,
    by _value_rows over the monomials of degree < d - 1.  Results match
    the naive recursion exactly."""
    point = check_point(frame, point)
    wrap = frame.ring.wrap
    rows = _value_rows(frame, monomials_below(frame.n, d - 1), (point,))
    return {w: wrap(r[0]) for w, r in rows.items()}


def evaluate(F, point):
    """F(a) as the left combination sum_m F_m N_m(a).

    Agrees with divide(F, point).remainder; the division path is kept
    as an independent cross-check.  The fundamental values are cached in
    a trie of word suffixes: each word walks down its longest cached
    suffix from the right, then extends leftwards.  The trie is flat:
    node 0 is the empty suffix, vals[v] is N of node v's suffix, exts[v]
    the n values of its one-letter extensions once the point map has run
    on it (at most once per node), and children maps
    v * (n + 1) + letter to the node of the suffix extended by the letter,
    for the children that some word visits.  So an extended node costs
    one tuple, phi's result.  The walk is iterative, so word length is
    bounded by memory only.  It runs on ring values, which stay canonical
    in the trie since each feeds the next step, sums F_m N_m(a) as one
    open sum of the ring, and builds one element, the value.
    """
    frame = F.frame
    point = check_point(frame, point)
    phi = frame.point_map_val(point)
    ring = frame.ring
    unwrap, mul_add = ring.unwrap, ring.mul_add_val
    stride, total = frame.n + 1, 0
    vals, exts, children = [unwrap(ring.one())], [None], {}
    for w, c in F.terms.items():
        node = 0
        for i in reversed(w):
            key = node * stride + i
            child = children.get(key)
            if child is None:
                ext = exts[node]
                if ext is None:
                    ext = exts[node] = phi(vals[node])
                child = children[key] = len(vals)
                vals.append(ext[i - 1])
                exts.append(None)
            node = child
        total = mul_add(total, unwrap(c), vals[node])
    return ring.wrap(ring.close_val(total))


def conjugate(frame, point, c):
    """The twisted conjugate sigma(c) a c^(-1) + delta(c) c^(-1) of a point:
    the compiled maps of the point applied to c, scaled by c^(-1) on the
    right."""
    point = check_point(frame, point)
    ring = frame.ring
    c = ring.unwrap(c)
    if not c:
        raise DivisionByZero("conjugation by zero")
    cinv, times, wrap = ring.inv_val(c), ring.mul_val, ring.wrap
    return tuple([wrap(times(y, cinv)) for y in frame.point_map_val(point)(c)])


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
