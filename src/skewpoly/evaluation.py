"""Evaluation of skew polynomials at affine points.

The value F(a) is the unique remainder of dividing F on the right by
the polynomials x_1 - a_1, ..., x_n - a_n.  Two independent paths are
provided: the division algorithm itself, and the recursion on the
per-monomial fundamental functions

    N_empty(a) = 1
    N_(x_i m)(a) = T_i(N_m(a)),  T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v)

which the evaluate() fast path uses.  For a fixed point a every T_i is
additive in v (Leroy's pseudo-linear map of a, in n variables), so
Frame.point_map_val compiles the n maps of a once, on ring values, and
caches them per frame: one step of the recursion is then one table
lookup per chunk of the argument's digits over GF(p^k) (a single lookup
when q <= 16) and one 4 x 4 integer product per variable over the
quaternions.  evaluate, fundamental, fundamental_table and conjugate all
step through the compiled maps.  Points are plain tuples of ring
elements of length frame.n.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import freering
from .errors import DivisionByZero, InvalidInput, RingMismatch
from .freering import (
    PushMemo,
    SkewPolynomial,
    _accumulate,
    _check_push_budget,
    _divide_words,
    check_word,
    constant,
    mul,
    variable,
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
        """Sum of quotient_i * (x_i - a_i) plus the remainder."""
        acc = constant(frame, self.remainder)
        for i, g in enumerate(self.quotients):
            acc = acc + g * (variable(frame, i + 1) - constant(frame, point[i]))
        return acc


def divide(F, point):
    """Right division of F by x_1 - a_1, ..., x_n - a_n.

    Repeatedly kills a monomial m x_i of top degree by moving its
    coefficient times m into quotient i; every replacement term has
    strictly smaller degree, so the loop terminates with a constant.
    The quotients and the remainder are unique, so the order within one
    degree does not matter, and a monomial once killed never returns.

    Words are nodes of one PushMemo: the prefix m of a node is its
    parent, and the pushes through the prefixes share the memo.  The
    monomials to kill come off a heap keyed by degree, largest first.  A
    node enters the heap when it enters the remainder; an entry whose
    node has since cancelled out of the remainder is stale and skipped.
    The remainder and the quotients hold ring values until the end.

    A division whose pushes _divide_words predicts to make more than
    PUSH_TERM_LIMIT words is refused before the first push.
    """
    frame = F.frame
    point = check_point(frame, point)
    ring = frame.ring
    _check_push_budget(_divide_words(frame, F.terms), "the division")
    unwrap, add, times = ring.unwrap, ring.add_val, ring.mul_val
    point = [unwrap(a) for a in point]
    memo = PushMemo()
    parent, letter, depth, spelled = memo.parent, memo.letter, memo.depth, memo.spelled
    rem = {memo.node(w): unwrap(c) for w, c in F.terms.items()}
    heap = [(-depth[v], v) for v in rem if v]
    heapify(heap)
    quot = [dict() for _ in range(frame.n)]
    while heap:
        v = heappop(heap)[1]
        c = rem.pop(v, None)
        if c is None:
            continue
        prefix, i = parent[v], letter[v] - 1
        if spelled[prefix] is None:
            # a slice of the killed word, not a walk up from the prefix
            spelled[prefix] = memo.word(v)[:-1]
        _accumulate(quot[i], prefix, c, add)
        # F <- F - c * prefix * (x_i - a_i); the x_i part cancelled above.
        # _push is looked up on its module, as in mul, so a wrapper put
        # there (the benchmark's tracer) sees every push
        for w, pc in freering._push(frame, prefix, point[i], memo).items():
            if w and w not in rem:
                heappush(heap, (-depth[w], w))
            _accumulate(rem, w, times(c, pc), add)
    wrap = ring.wrap
    remainder = rem.get(0)
    return DivisionResult(
        [SkewPolynomial(frame, {spelled[v]: wrap(q) for v, q in quo.items()}) for quo in quot],
        ring.zero() if remainder is None else wrap(remainder))


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


def _fundamental_values(frame, point, d):
    """fundamental_table on ring values."""
    phi, ring = frame.point_map_val(point), frame.ring
    table = {(): ring.unwrap(ring.one())}
    level = [()]
    for _ in range(1, d):
        nxt = []
        for w in level:
            for i, val in enumerate(phi(table[w]), 1):
                nw = (i,) + w
                table[nw] = val
                nxt.append(nw)
        level = nxt
    return table


def fundamental_table(frame, point, d):
    """Fundamental values of every monomial of degree < d at one point.

    Walks words by increasing degree; each word of degree e is obtained
    by prepending one variable to a degree e-1 word, so one compiled-map
    application per shorter word yields all n extensions.  Results match
    the naive recursion exactly.
    """
    point = check_point(frame, point)
    wrap = frame.ring.wrap
    return {w: wrap(v) for w, v in _fundamental_values(frame, point, d).items()}


def evaluate(F, point):
    """F(a) as the left combination sum_m F_m N_m(a).

    Agrees with divide(F, point).remainder; the division path is kept
    as an independent cross-check.  The fundamental values are cached in
    a trie of word suffixes: each word walks down its longest cached
    suffix from the right, then extends leftwards, one compiled-map
    application per new suffix giving all n of its one-letter
    extensions.  The walk is iterative, so word length is bounded by
    memory only.  It runs on ring values and builds one element, the
    value.
    """
    frame = F.frame
    point = check_point(frame, point)
    phi = frame.point_map_val(point)
    ring = frame.ring
    unwrap, add, times = ring.unwrap, ring.add_val, ring.mul_val
    total = 0
    # node = (N_suffix(a), {variable index: node of the suffix extended by it})
    root = (unwrap(ring.one()), {})
    for w, c in F.terms.items():
        node = root
        for i in reversed(w):
            children = node[1]
            if not children:
                for j, val in enumerate(phi(node[0]), 1):
                    children[j] = (val, {})
            node = children[i]
        total = add(total, times(unwrap(c), node[0]))
    return ring.wrap(total)


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
