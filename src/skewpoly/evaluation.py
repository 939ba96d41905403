"""Evaluation of skew polynomials at affine points.

The value F(a) is the unique remainder of dividing F on the right by
the polynomials x_1 - a_1, ..., x_n - a_n.  Two independent paths are
provided: the division algorithm itself, and the recursion on the
per-monomial fundamental functions

    N_empty(a) = 1
    N_(x_i m)(a) = row i of  sigma(N_m(a)) a + delta(N_m(a))

which the evaluate() fast path uses.  Points are plain tuples of ring
elements of length frame.n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionByZero, InvalidInput, RingMismatch
from .freering import (
    SkewPolynomial,
    constant,
    mono_key,
    variable,
    word_times_constant,
)


def check_point(frame, point):
    """Validate and normalize a point to a tuple of frame.n ring elements."""
    point = tuple(point)
    if len(point) != frame.n:
        raise InvalidInput(f"point has {len(point)} coordinates, frame has n={frame.n}")
    from .freering import _is_ring_element

    for a in point:
        if not _is_ring_element(frame.ring, a):
            raise RingMismatch(f"coordinate {a!r} does not belong to {frame.ring}")
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

    Repeatedly kills the current leading monomial m x_i by moving its
    coefficient times m into quotient i; every replacement term has
    strictly smaller degree, so the loop terminates with a constant.
    """
    frame = F.frame
    point = check_point(frame, point)
    quot = [dict() for _ in range(frame.n)]
    rem = dict(F.terms)
    memo = {}
    while True:
        lead = None
        for w in rem:
            if w and (lead is None or mono_key(w) > mono_key(lead)):
                lead = w
        if lead is None:
            break
        c = rem.pop(lead)
        prefix, i = lead[:-1], lead[-1]
        cur = quot[i - 1].get(prefix)
        new = c if cur is None else cur + c
        if new.is_zero():
            quot[i - 1].pop(prefix, None)
        else:
            quot[i - 1][prefix] = new
        # F <- F - c * prefix * (x_i - a_i); the x_i part cancelled above
        for w, pc in word_times_constant(frame, prefix, point[i - 1], memo).items():
            add = c * pc
            got = rem.get(w)
            tot = add if got is None else got + add
            if tot.is_zero():
                rem.pop(w, None)
            else:
                rem[w] = tot
    remainder = rem.get((), frame.ring.zero())
    return DivisionResult([SkewPolynomial(frame, q) for q in quot], remainder)


def fundamental(frame, word, point):
    """Value of the fundamental function of the given monomial at the point.

    Consumes the word from its right end, so the running value is the
    fundamental function of an ever longer suffix.
    """
    point = check_point(frame, point)
    val = frame.ring.one()
    for idx in range(len(word) - 1, -1, -1):
        val = _extend(frame, val, point)[word[idx] - 1]
    return val


def _extend(frame, val, point):
    """The n values N_(x_i m)(a) given N_m(a) = val."""
    sig = frame.sigma_at(val)
    dlt = frame.delta_at(val)
    out = []
    for i in range(frame.n):
        acc = dlt[i]
        row = sig[i]
        for j in range(frame.n):
            acc = acc + row[j] * point[j]
        out.append(acc)
    return out


def fundamental_table(frame, point, d):
    """Fundamental values of every monomial of degree < d at one point.

    Walks words by increasing degree; each word of degree e is obtained
    by prepending one variable to a degree e-1 word, so a single
    sigma/delta application per shorter word yields all n extensions.
    Results match the naive recursion exactly.
    """
    point = check_point(frame, point)
    table = {(): frame.ring.one()}
    level = [()]
    for _ in range(1, d):
        nxt = []
        for w in level:
            ext = _extend(frame, table[w], point)
            for i in range(frame.n):
                nw = (i + 1,) + w
                table[nw] = ext[i]
                nxt.append(nw)
        level = nxt
    return table


def evaluate(F, point):
    """F(a) as the left combination sum_m F_m N_m(a).

    Agrees with divide(F, point).remainder; the division path is kept
    as an independent cross-check.  The fundamental values are cached in
    a trie of word suffixes: each word walks down its longest cached
    suffix from the right, then extends leftwards, one sigma/delta
    application per new suffix giving all n of its one-letter
    extensions.  The walk is iterative, so word length is bounded by
    memory only.
    """
    frame = F.frame
    point = check_point(frame, point)
    ring = frame.ring
    total = ring.zero()
    # node = (N_suffix(a), {variable index: node of the suffix extended by it})
    root = (ring.one(), {})
    for w, c in F.terms.items():
        node = root
        for i in reversed(w):
            children = node[1]
            if not children:
                for j, val in enumerate(_extend(frame, node[0], point)):
                    children[j + 1] = (val, {})
            node = children[i]
        total = total + c * node[0]
    return total


def conjugate(frame, point, c):
    """The twisted conjugate sigma(c) a c^(-1) + delta(c) c^(-1) of a point."""
    point = check_point(frame, point)
    if c.is_zero():
        raise DivisionByZero("conjugation by zero")
    cinv = c.inv()
    sig = frame.sigma_at(c)
    dlt = frame.delta_at(c)
    out = []
    for i in range(frame.n):
        acc = frame.ring.zero()
        for j in range(frame.n):
            acc = acc + sig[i][j] * point[j]
        out.append(acc * cinv + dlt[i] * cinv)
    return tuple(out)


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
    from .freering import mul

    lhs = evaluate(mul(F, G), point)
    c = evaluate(G, point)
    if c.is_zero():
        return ProductRuleReport(ok=lhs.is_zero(), lhs=lhs, rhs=None, c=c, conjugate_point=None)
    ac = conjugate(frame, point, c)
    rhs = evaluate(F, ac) * c
    return ProductRuleReport(ok=(lhs == rhs), lhs=lhs, rhs=rhs, c=c, conjugate_point=ac)
