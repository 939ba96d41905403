"""Independent brute-force oracles used to validate the rank-test machinery.

Both oracles decide whether some polynomial of degree <= bound vanishes
on a point set G while staying nonzero at a probe point b, i.e. whether
b escapes the closure of G at that degree.  Neither touches the library
linear algebra:

* the span oracle grows the set of achievable value profiles on the
  probed coordinates by breadth-first closure under "add a scalar
  multiple of a monomial profile"; every coefficient vector realizes a
  profile in that span and every span profile is realized by one, so
  the decision matches literal enumeration,
* the literal oracle enumerates every coefficient vector outright
  (only viable when the count is tiny).

Monomial values feed in through the division-algorithm path, not the
fundamental-function recursion, keeping the data source independent
too.  Finite fields only.

For the rational quaternions the module also keeps the reference
semantics of the map catalog: a tree-walking interpreter of ``QuatMap``
expressions over quaternions written as 4-tuples of ``Fraction`` parts,
with the Hamilton product done part by part.  The library compiles the
catalog to integer matrices and carries quaternions as integers over a
common denominator; neither representation is used here.
"""

from fractions import Fraction
from itertools import product

from skewpoly import divide, monomial, monomials_below


def monomial_values_by_division(frame, words, points, cache=None):
    """values[w][j] = value of monomial w at points[j], via right division."""
    out = {}
    for w in words:
        row = []
        for p in points:
            if cache is None:
                row.append(divide(monomial(frame, w), p).remainder)
                continue
            key = (w, p)
            got = cache.get(key)
            if got is None:
                got = divide(monomial(frame, w), p).remainder
                cache[key] = got
            row.append(got)
        out[w] = row
    return out


def separator_exists_span(frame, base_points, probe, bound, cache=None):
    """Span-closure decision: is there F, deg <= bound, F(base) = 0, F(probe) != 0?

    Works on raw integer element codes with the field's table layer;
    no elimination, no rank, just set closure.
    """
    ring = frame.ring
    pts = list(base_points) + [probe]
    words = monomials_below(frame.n, bound + 1)
    values = monomial_values_by_division(frame, words, pts, cache)
    add = ring.add_val
    mul = ring.mul_val

    width = len(pts)
    zero_vec = (0,) * width
    gens = {tuple(v.val for v in values[w]) for w in words}
    gens.discard(zero_vec)
    scaled = set()
    for g in gens:
        for c in range(1, ring.size):
            scaled.add(tuple(mul(c, x) for x in g))

    span = {zero_vec}
    frontier = [zero_vec]
    while frontier:
        v = frontier.pop()
        for g in scaled:
            u = tuple(add(x, y) for x, y in zip(v, g))
            if u not in span:
                span.add(u)
                frontier.append(u)
    m = len(base_points)
    return any(all(x == 0 for x in prof[:m]) and prof[m] != 0 for prof in span)


def separator_exists_literal(frame, base_points, probe, bound, limit=300_000, cache=None):
    """Plain enumeration of every coefficient vector of degree <= bound.

    Returns None when the q^(#monomials) count exceeds the limit.
    """
    ring = frame.ring
    words = monomials_below(frame.n, bound + 1)
    count = ring.size ** len(words)
    if count > limit:
        return None
    pts = list(base_points) + [probe]
    values = monomial_values_by_division(frame, words, pts, cache)
    cols = [[v.val for v in values[w]] for w in words]
    add = ring.add_val
    mul = ring.mul_val
    m = len(base_points)
    width = len(pts)
    for coeffs in product(range(ring.size), repeat=len(words)):
        vals = [0] * width
        for c, col in zip(coeffs, cols):
            if c == 0:
                continue
            for j in range(width):
                vals[j] = add(vals[j], mul(c, col[j]))
        if all(v == 0 for v in vals[:m]) and vals[m] != 0:
            return True
    return False


def in_closure_bruteforce(frame, probe, generators, bound=None, cache=None):
    """Closure membership by span enumeration; bound defaults to #generators."""
    if probe in tuple(generators):
        return True
    if bound is None:
        bound = len(generators)
    return not separator_exists_span(frame, generators, probe, bound, cache)


def span_dimension_on(frame, points, bound, cache=None):
    """log_q of the number of value profiles on the points achievable by
    polynomials of degree <= bound; the dimension of the function space."""
    ring = frame.ring
    words = monomials_below(frame.n, bound + 1)
    values = monomial_values_by_division(frame, words, list(points), cache)
    add = ring.add_val
    mul = ring.mul_val
    width = len(points)
    zero_vec = (0,) * width
    gens = {tuple(v.val for v in values[w]) for w in words}
    gens.discard(zero_vec)
    scaled = set()
    for g in gens:
        for c in range(1, ring.size):
            scaled.add(tuple(mul(c, x) for x in g))
    span = {zero_vec}
    frontier = [zero_vec]
    while frontier:
        v = frontier.pop()
        for g in scaled:
            u = tuple(add(x, y) for x, y in zip(v, g))
            if u not in span:
                span.add(u)
                frontier.append(u)
    size = len(span)
    dim = 0
    while ring.size ** dim < size:
        dim += 1
    assert ring.size ** dim == size, "span size must be a power of q"
    return dim


# ---------------------------------------------------------------------------
# Quaternion reference: Fraction parts and the interpreted map catalog
# ---------------------------------------------------------------------------

def frac_parts(a):
    """A library quaternion as the 4-tuple of its Fraction parts (w, x, y, z)."""
    return (Fraction(a.w), Fraction(a.x), Fraction(a.y), Fraction(a.z))


def frac_quat_mul(a, b):
    """Hamilton product of two quaternions given as 4-tuples of Fractions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_map_reference(m, a):
    """Apply the catalog expression of a QuatMap to Fraction parts a by
    walking its tree: lmul/rmul multiply by the constant, conj negates the
    vector part, sum adds the children, compose applies them right to left."""
    if m.op == "lmul":
        return frac_quat_mul(frac_parts(m.c), a)
    if m.op == "rmul":
        return frac_quat_mul(a, frac_parts(m.c))
    if m.op == "conj":
        w, x, y, z = a
        return (w, -x, -y, -z)
    if m.op == "sum":
        out = (Fraction(0),) * 4
        for sub in m.maps:
            out = tuple(u + v for u, v in zip(out, quat_map_reference(sub, a)))
        return out
    assert m.op == "compose", m.op
    for sub in reversed(m.maps):
        a = quat_map_reference(sub, a)
    return a
