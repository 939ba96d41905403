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

For finite fields the module keeps the digit arithmetic that the
library's exp/log/Zech tables replace: element codes taken apart into
power-basis coefficient vectors, added digit by digit and multiplied as
polynomials modulo the field's modulus; additive maps applied as their
matrix acting on the coefficient vector; and the frame laws checked on
every pair of field elements with that arithmetic.

The module also keeps the Vandermonde-rank procedures that the
library's image-echelon engine replaced: the two-rank independence test
(b leaves the closure of base when appending its column raises the rank
of the Vandermonde of degree #base + 1), the greedy P-basis, rank and
closure built on it, the two-sidedness check that conjugates every
listed point by every nonzero constant and looks the conjugate, summed
from sigma(c) and delta(c) coordinate by coordinate, up in that
closure, and the dependent-row scan that re-ranks the kept stack
for every candidate row.  They use the library's vandermonde()
and rank(), and work over any division ring.  Likewise the Vandermonde
interpolation that the standard-monomial square replaced: the separator
read off the left null space of the Vandermonde over the base, the
Newton loop adding one separator multiple per point, the duals solved
on the first invertible square of Vandermonde rows, and the verifier
interpolant solved over the whole Vandermonde of degree #basis, which
the solve stopping at the least degree of full column rank replaced.

It keeps the border-relation engine that the conjugacy-class rule of
closure_members and is_two_sided replaced: over the P-basis that the
image echelon keeps, the relations x_i s - (values of x_i s) T, one per
non-standard x_i s with s standard and T the inverse of the square of
standard values, whose residues R(b) all vanish exactly when b lies in
the closure.  The closure decides each conjugate a^c of a basis point by
the additive map c -> R(a^c) c read off a span table over GF(p), and
two-sidedness tests the conjugates by an additive basis of the ring.

The module keeps three more procedures that the library replaced: the
trial-division irreducibility test (every monic divisor of degree up to
half the degree) that Rabin's test replaced; the field tables built by
walking the powers of the primitive element one step at a time, with a
Zech table for every p, which the block-doubled GF(2^k) tables
replaced; and the elimination that rebuilds every row in full together
with the solve read off the rows x rows transform of [A | I], which the
pivot-square solve replaced.

The module keeps the uncompiled step of evaluation, N_(x_i m)(a) =
sum_j sigma_ij(N_m(a)) a_j + delta_i(N_m(a)) applied map by map through
the frame's sigma/delta memos, which the library's compiled point maps
replaced, with the fundamental table and the evaluation built on it.
It also keeps the finite-field point map compiled for each point alone
(chunk tables of the point's n image codes, or scaled columns for
p > 16), which the point's linearized polynomials replaced, and the
column reference for a single GF(p^k) map, sum_j d_j col_j over the
base-p digits d_j of the argument, against which the linearized
polynomial of every map is checked, with the trace by digit arithmetic
that checks the trace-dual basis.

The module keeps the product and division that the library's word
nodes replaced: the push of a coefficient through a word given as a
tuple, recursing on the slice word[:-1] with one memo per
(word, coefficient) and cut every PUSH_REFERENCE_DEPTH letters, the
division that rescans the whole remainder for its leading monomial at
every step, the division's push bound recomputing the frame's
letter reach on every call, and the reconstruction of a division that
sums its terms on tuple words, which the sum on word-table nodes
replaced.

For the rational quaternions the module also keeps the reference
semantics of the map catalog: a tree-walking interpreter of ``QuatMap``
expressions over quaternions written as 4-tuples of ``Fraction`` parts,
with the Hamilton product done part by part.  The library compiles the
catalog to integer matrices and carries quaternions as integers over a
common denominator; neither representation is computed with here, and
value_parts only reads a library value into Fractions, checking its
normal form.  With them it keeps the sampled validation of quaternion
frames that the basis pairs 1, i, j, k replaced: the frame laws on the
pairs of a generator set and of a fixed-seed random sample.
"""

import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import comb, gcd, isqrt
from operator import xor

from skewpoly import (
    Matrix,
    NoSolution,
    NotPIndependent,
    NotSeparable,
    SkewPolynomial,
    all_points,
    conjugate,
    constant,
    divide,
    evaluate,
    from_terms,
    fundamental_table,
    left_apply,
    left_null_space,
    mono_key,
    monomial,
    monomials_below,
    one,
    rank,
    solve_left,
    vandermonde,
    zero,
)
from skewpoly import freering
from skewpoly.errors import RingMismatch
from skewpoly.evaluation import _value_rows, check_point
from skewpoly.frames import _CHUNK_ENTRIES, QuatMap, _matrix_product, _matrix_sum, _mul_matrix
from skewpoly.freering import (PUSH_TERM_LIMIT, _accumulate, _check_push_budget,
                               _product_words, count_monomials_below, frame_memo)
from skewpoly.geometry import _image_echelon
from skewpoly.interpolation import independent_rows
from skewpoly.linalg import _combine, _reduce_with_transform, _solve
from skewpoly.rings import _digits, _encode, _is_prime, _poly_mod, _poly_pow, _poly_trim, _span_codes


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
# Finite-field reference: digit arithmetic on coefficient vectors
# ---------------------------------------------------------------------------

def field_digits(fld, v):
    """Power-basis coefficients of the element code v, constant first."""
    out = []
    for _ in range(fld.k):
        v, d = divmod(v, fld.p)
        out.append(d)
    return out


def field_code(fld, digits):
    v = 0
    for d in reversed(digits):
        v = v * fld.p + d
    return v


def digit_add(fld, a, b):
    p = fld.p
    return field_code(fld, [(x + y) % p for x, y in zip(field_digits(fld, a), field_digits(fld, b))])


def digit_neg(fld, a):
    return field_code(fld, [-x % fld.p for x in field_digits(fld, a)])


def digit_mul(fld, a, b):
    """Schoolbook product of the coefficient vectors, reduced modulo the
    field's monic modulus from the top degree down."""
    p, k, m = fld.p, fld.k, fld.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(field_digits(fld, a)):
        for j, y in enumerate(field_digits(fld, b)):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top] % p
        for j in range(k + 1):
            prod[top - k + j] -= c * m[j]
    return field_code(fld, [c % p for c in prod[:k]])


def matrix_apply_reference(m, v):
    """Code of the image of the code v under a LinearMap: its matrix times
    the coefficient vector."""
    fld = m.fld
    d = field_digits(fld, v)
    return field_code(fld, [sum(r * x for r, x in zip(row, d)) % fld.p for row in m.mat])


def linear_map_reference(fld, cols, v):
    """Code of the image of the code v under the GF(p)-linear map sending
    t^j to the code cols[j]: sum_j d_j cols[j] over the base-p digits d_j
    of v, added digit by digit."""
    p, out = fld.p, [0] * fld.k
    for d, col in zip(field_digits(fld, v), cols):
        out = [(x + d * y) % p for x, y in zip(out, field_digits(fld, col))]
    return field_code(fld, out)


def trace_reference(fld, v):
    """Tr(v) = v + v^p + ... + v^(p^(k-1)) by digit arithmetic, as a code."""
    acc, power = 0, v
    for _ in range(fld.k):
        acc = digit_add(fld, acc, power)
        x = power
        for _ in range(fld.p - 1):
            power = digit_mul(fld, power, x)
    return acc


def frame_laws_hold_all_pairs(frame):
    """Verdict of the frame laws over a finite field checked on every pair
    (a, b) of elements, with digit arithmetic and matrix application:
    sigma(1) = I, sigma(ab) = sigma(a) sigma(b) and
    delta(ab) = sigma(a) delta(b) + delta(a) b."""
    fld, n = frame.ring, frame.n
    add = lambda x, y: digit_add(fld, x, y)  # noqa: E731
    mul = lambda x, y: digit_mul(fld, x, y)  # noqa: E731

    def sigma(a):
        return [[matrix_apply_reference(m, a) for m in row] for row in frame.sigma]

    def delta(a):
        return [matrix_apply_reference(m, a) for m in frame.delta]

    if sigma(1) != [[int(i == j) for j in range(n)] for i in range(n)]:
        return False
    for a in range(fld.q):
        sa, da = sigma(a), delta(a)
        for b in range(fld.q):
            sb, db = sigma(b), delta(b)
            ab = mul(a, b)
            sab, dab = sigma(ab), delta(ab)
            for i in range(n):
                want = mul(da[i], b)
                for j in range(n):
                    want = add(want, mul(sa[i][j], db[j]))
                    prod = 0
                    for c in range(n):
                        prod = add(prod, mul(sa[i][c], sb[c][j]))
                    if sab[i][j] != prod:
                        return False
                if dab[i] != want:
                    return False
    return True


def is_irreducible_reference(mod, p):
    """Whether the little-endian coefficient list mod is a monic
    irreducible over GF(p), by trial division by every monic polynomial
    of degree 1 .. deg // 2."""
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            div = [idx // p ** i % p for i in range(d)] + [1]
            rem = list(mod)
            for top in range(k, d - 1, -1):
                c = rem[top] % p
                for j in range(d + 1):
                    rem[top - d + j] -= c * div[j]
            if all(c % p == 0 for c in rem[:d]):
                return False
    return True


def default_modulus_reference(p, k):
    """The monic irreducible of degree k over GF(p) with the smallest
    code (constant coefficient least significant), by trial division."""
    for code in range(p ** k):
        cand = [code // p ** i % p for i in range(k)] + [1]
        if is_irreducible_reference(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


def _primitive_element_reference(p, k, modulus):
    """Coefficients of the smallest element (by code) whose powers run
    through all q - 1 units, by powers of coefficient lists."""
    n = p ** k - 1
    primes = {r for d in range(1, isqrt(n) + 1) if n % d == 0 for r in (d, n // d) if _is_prime(r)}
    for g in range(1, n + 1):
        a = _poly_trim(_digits(g, p, k))
        if all(_poly_pow(a, n // r, modulus, p) != [1] for r in primes):
            return a


def field_tables_reference(p, k, modulus):
    """exp, log and Zech-logarithm tables of GF(p)[t]/(modulus) by the walk
    through the powers of the primitive element, one step per power, for
    every p: exp[i] = g^i (0 <= i < 2n), log[a] (log[0] = n) and
    zech[i] = log(1 + g^i) (n where 1 + g^i = 0), with n = q - 1."""
    q = p ** k
    n = q - 1
    if p == 2:
        add = xor  # the digit-wise sum mod 2
    else:
        def add(a, b):
            return _encode([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)
    a = _primitive_element_reference(p, k, modulus)
    cols = []  # g t^j
    for _ in range(k):
        cols.append(_encode(a, p))
        a = _poly_mod([0] + a, modulus, p)
    h = (k + 1) // 2
    split = p ** h
    low_images, high_images = _span_codes(cols[:h], p, add), _span_codes(cols[h:], p, add)
    exp = array("H", [0]) * (2 * n)
    log = array("H", [n]) * q
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = add(low_images[x % split], high_images[x // split])
    exp[n:] = exp[:n]
    # log(a + 1) for every code a: adding 1 changes only the constant digit
    log_succ = array("H", log)
    for d in range(p - 1):
        log_succ[d::p] = log[d + 1::p]
    log_succ[p - 1::p] = log[::p]
    zech = array("H", map(log_succ.__getitem__, islice(exp, n)))
    return exp, log, zech


# ---------------------------------------------------------------------------
# Quaternion reference: Fraction parts and the interpreted map catalog
# ---------------------------------------------------------------------------

def frac_parts(a):
    """A library quaternion as the 4-tuple of its Fraction parts (w, x, y, z)."""
    return (Fraction(a.w), Fraction(a.x), Fraction(a.y), Fraction(a.z))


def value_parts(v):
    """A quaternion ring value as the 4-tuple of its Fraction parts, after
    checking its normal form: zero is exactly the int 0, and any other
    value is a tuple (w, x, y, z, den), not all of w..z zero, with
    den > 0 and gcd(w, x, y, z, den) = 1."""
    if not isinstance(v, tuple):
        assert type(v) is int and v == 0, v
        return (Fraction(0),) * 4
    assert len(v) == 5 and all(type(n) is int for n in v), v
    *num, den = v
    assert any(num) and den > 0 and gcd(*num, den) == 1, v
    return tuple(Fraction(n, den) for n in num)


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


def quat_frame_laws_hold_on_samples(frame, pairs=256, seed=0x5EED):
    """Verdict of the frame laws over the quaternions, with Fraction parts
    and quat_map_reference: sigma(1) = I, then sigma(ab) = sigma(a) sigma(b)
    and delta(ab) = sigma(a) delta(b) + delta(a) b on every pair of the
    generators 1, i, j, k, 1/2, 1 + i and on `pairs` seeded random pairs
    (numerators in [-4, 4], denominators in [1, 3])."""
    n, zero, one = frame.n, Fraction(0), Fraction(1)

    def add(x, y):
        return tuple(u + v for u, v in zip(x, y))

    def sigma(a):
        return [[quat_map_reference(m, a) for m in row] for row in frame.sigma]

    def delta(a):
        return [quat_map_reference(m, a) for m in frame.delta]

    def real(c):
        return (Fraction(c), zero, zero, zero)

    if sigma(real(1)) != [[real(i == j) for j in range(n)] for i in range(n)]:
        return False
    gens = [real(1), (zero, one, zero, zero), (zero, zero, one, zero), (zero, zero, zero, one),
            real(Fraction(1, 2)), (one, one, zero, zero)]
    rng = random.Random(seed)

    def draw():
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))

    samples = [(draw(), draw()) for _ in range(pairs)]
    for a, b in [(a, b) for a in gens for b in gens] + samples:
        sa, sb, da, db = sigma(a), sigma(b), delta(a), delta(b)
        ab = frac_quat_mul(a, b)
        sab, dab = sigma(ab), delta(ab)
        for i in range(n):
            want = frac_quat_mul(da[i], b)
            for j in range(n):
                want = add(want, frac_quat_mul(sa[i][j], db[j]))
                prod = real(0)
                for c in range(n):
                    prod = add(prod, frac_quat_mul(sa[i][c], sb[c][j]))
                if sab[i][j] != prod:
                    return False
            if dab[i] != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Vandermonde-rank references for the geometry engine
# ---------------------------------------------------------------------------

def is_p_independent_reference(frame, b, base):
    """Whether appending b's column raises the rank of the Vandermonde of
    degree #base + 1 over base."""
    base = tuple(base)
    d = len(base) + 1
    r_with = rank(vandermonde(frame, base + (b,), d))
    r_without = rank(vandermonde(frame, base, d)) if base else 0
    return r_with == r_without + 1


def find_p_basis_reference(frame, points):
    """(basis, discarded) of the greedy scan in input order."""
    kept, discarded = [], []
    for p in points:
        (kept if is_p_independent_reference(frame, p, kept) else discarded).append(p)
    return tuple(kept), tuple(discarded)


def rank_reference(frame, points):
    """Rank of the Vandermonde of degree #points over the points."""
    points = tuple(points)
    return rank(vandermonde(frame, points, len(points))) if points else 0


def closure_reference(frame, generators):
    """Points of F^n not independent from the reference basis of the generators."""
    if not generators:
        return ()
    basis = find_p_basis_reference(frame, generators)[0]
    return tuple(
        b for b in all_points(frame)
        if b in basis or not is_p_independent_reference(frame, b, basis)
    )


def conjugate_reference(frame, a, c):
    """sigma(c) a c^-1 + delta(c) c^-1, coordinate by coordinate."""
    cinv = c.inv()
    sig, dlt = frame.sigma_at(c), frame.delta_at(c)
    out = []
    for i in range(frame.n):
        acc = frame.ring.zero()
        for j in range(frame.n):
            acc = acc + sig[i][j] * a[j]
        out.append(acc * cinv + dlt[i] * cinv)
    return tuple(out)


def is_two_sided_reference(frame, points):
    """Whether every conjugate a^c of every listed point, c over all nonzero
    constants, lies in the reference closure of the points."""
    closure = set(closure_reference(frame, points))
    units = [c for c in frame.ring.elements() if not c.is_zero()]
    return all(conjugate_reference(frame, a, c) in closure for a in points for c in units)


def _border_residues(frame, generators):
    """The P-basis of the generators that find_p_basis keeps, and the
    residues of a point b: the values R(b) of the border relations
    R = x_i s - (values of x_i s at the basis) T of the basis, one per
    non-standard x_i s with s standard, T the inverse of the square of
    standard values.  They generate the polynomials vanishing on the
    basis, so b lies in the closure exactly when every residue is zero."""
    lead, standard = _image_echelon(frame, generators)
    basis = tuple(generators[k] for k in lead)
    ring = frame.ring
    if not basis:
        # the constant 1 generates the polynomials vanishing on no point
        return basis, lambda b: [ring.unwrap(ring.one())]
    rows = _value_rows(frame, standard, basis)
    T = _reduce_with_transform(ring, [rows[s] for s in standard], len(standard))[1]
    relations = [(w, _combine(ring, row, T, len(basis)))
                 for w, row in rows.items() if w not in set(standard)]

    def residues(b):
        values = _value_rows(frame, standard, (b,))
        at_standard = [values[s][0] for s in standard]
        return [ring.sub_val(values[w][0], _combine(ring, coeffs, [[v] for v in at_standard], 1)[0])
                for w, coeffs in relations]

    return basis, residues


def closure_by_residues(frame, generators):
    """The closure as the border-relation engine listed it: each class of a
    basis point a once, a^c kept when every (R c)(a) = R(a^c) c is zero;
    that value is additive in c, so its values at the power basis give it,
    as a GF(p)-combination, at every c != 0."""
    generators = tuple(generators)
    if not generators:
        return ()
    ring = frame.ring
    basis, residues = _border_residues(frame, generators)
    spanning, times = ring.additive_basis(), ring.mul_val
    members = set()
    for a in basis:
        if a in members:
            continue
        at_basis = [[times(r, e.val) for r in residues(conjugate(frame, a, e))]
                    for e in spanning]
        values = [_span_codes(col, ring.p, ring.add_val) for col in zip(*at_basis)]
        units = [ring.element(v) for v in range(1, ring.size) if not any(t[v] for t in values)]
        members.update(conjugate(frame, a, c) for c in units)
    return tuple(sorted(members, key=lambda b: [x.val for x in b]))


def is_two_sided_by_residues(frame, points):
    """Two-sidedness as the border-relation engine decided it: every
    residue of every conjugate a^c of a basis point a, c over an additive
    basis of the ring, is zero (the c whose conjugate stays in the closure
    form a subspace).  Works over the quaternions too."""
    basis, residues = _border_residues(frame, tuple(points))
    return not any(any(residues(conjugate(frame, a, c)))
                   for a in basis for c in frame.ring.additive_basis())


def independent_rows_reference(A, order=None):
    """Row indices kept by a scan that re-ranks the kept stack plus each
    candidate row, keeping the row when the rank grows."""
    if order is None:
        order = range(A.nrows)
    kept, kept_rows, r = [], [], 0
    for idx in order:
        cand = kept_rows + [A.rows[idx]]
        new_rank = rank(Matrix(A.ring, cand))
        if new_rank > r:
            kept.append(idx)
            kept_rows, r = cand, new_rank
            if r == A.ncols:
                break
    return kept


# ---------------------------------------------------------------------------
# Vandermonde references for separators, interpolation and duals
# ---------------------------------------------------------------------------

def separator_reference(frame, base, b):
    """The first left null vector of the Vandermonde of degree #base + 1
    over base whose pairing with b's column is nonzero, as a polynomial."""
    base = tuple(base)
    if not base:
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


def lagrange_interpolate_reference(frame, basis, values):
    """Newton loop: step i adds the multiple of the reference separator of
    the first i points against point i that fixes the new value."""
    basis = tuple(basis)
    if not basis:
        return zero(frame)
    F = constant(frame, values[0])
    for i in range(1, len(basis)):
        G = separator_reference(frame, basis[:i], basis[i])
        corr = (values[i] - evaluate(F, basis[i])) * evaluate(G, basis[i]).inv()
        F = F + G.scale_left(corr)
    return F


def dual_p_basis_reference(frame, basis):
    """Duals solved one unit vector at a time on the first #basis
    independent rows of the Vandermonde of degree #basis."""
    basis = tuple(basis)
    M = len(basis)
    if not M:
        return ()
    V = vandermonde(frame, basis, M)
    chosen = independent_rows(V)
    if len(chosen) != M:
        raise NotPIndependent("Vandermonde rank below #basis: points are P-dependent")
    sub = Matrix(frame.ring, [V.rows[i] for i in chosen])
    ring = frame.ring
    monos = [V.row_labels[k] for k in chosen]
    duals = []
    for i in range(M):
        unit = [ring.one() if j == i else ring.zero() for j in range(M)]
        duals.append(from_terms(frame, zip(monos, solve_left(sub, unit))))
    return tuple(duals)


def lagrange_via_vandermonde_reference(frame, basis, values):
    """The left linear system coeffs * V = values over every monomial of
    degree < #basis: the whole Vandermonde of degree #basis, solved by
    the library's pivot-square solve; NotPIndependent when inconsistent."""
    basis = tuple(basis)
    if not basis:
        return zero(frame)
    M, ring = len(basis), frame.ring
    rows = _value_rows(frame, monomials_below(frame.n, M - 1), basis)
    monos = monomials_below(frame.n, M)
    try:
        coeffs = _solve(ring, [rows[m] for m in monos], M, [ring.unwrap(v) for v in values])
    except NoSolution as exc:
        raise NotPIndependent("points do not form a P-basis of their closure") from exc
    return from_terms(frame, [(m, ring.wrap(c)) for m, c in zip(monos, coeffs) if c])


# ---------------------------------------------------------------------------
# Linear-algebra references: elimination and the solve on [A | I]
# ---------------------------------------------------------------------------

def eliminate_reference(rows, ncols):
    """Reduce rows in place to reduced row echelon form, pivoting on the
    first nonzero entry of the first ncols columns, every row rebuilt in
    full at each update; return the pivot columns."""
    nrows = len(rows)
    pivots = []
    prow = 0
    for col in range(ncols):
        src = next((r for r in range(prow, nrows) if not rows[r][col].is_zero()), None)
        if src is None:
            continue
        rows[src], rows[prow] = rows[prow], rows[src]
        c = rows[prow][col].inv()
        rows[prow] = [c * x for x in rows[prow]]
        for r in range(nrows):
            f = rows[r][col]
            if r != prow and not f.is_zero():
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return tuple(pivots)


def row_reduce_reference(A):
    """(R, T, pivots) with T * A = R reduced, from elimination on [A | I]."""
    ring = A.ring
    one, zero = ring.one(), ring.zero()
    rows = [list(r) + [one if i == j else zero for j in range(A.nrows)]
            for i, r in enumerate(A.rows)]
    pivots = eliminate_reference(rows, A.ncols)
    return (Matrix(ring, [r[:A.ncols] for r in rows]),
            Matrix(ring, [r[A.ncols:] for r in rows]), pivots)


def solve_left_reference(A, b):
    """lambda = mu * T with mu = b at the pivot columns on the pivot rows
    and 0 on the free rows, after checking mu * R = b; NoSolution when
    the check fails."""
    b = tuple(b)
    if A.nrows == 0:
        if all(x.is_zero() for x in b):
            return ()
        raise NoSolution("empty matrix spans only zero")
    R, T, pivots = row_reduce_reference(A)
    mu = [b[col] for col in pivots] + [A.ring.zero()] * (A.nrows - len(pivots))
    if left_apply(mu, R) != b:
        raise NoSolution("right-hand side outside the left row space")
    return left_apply(mu, T)


# ---------------------------------------------------------------------------
# Product and division references: words as tuples, division by rescanning
# ---------------------------------------------------------------------------

# Most letters one recursive reference push descends.
PUSH_REFERENCE_DEPTH = 512


def push_reference(frame, word, a, memo):
    """(word) * a as a dict word -> left coefficient, memoized per
    (prefix of word, coefficient) in the dict memo.

    A word longer than PUSH_REFERENCE_DEPTH letters is first swept from
    its right end, level by level, collecting the coefficients still to
    be pushed through each prefix whose length is a multiple of
    PUSH_REFERENCE_DEPTH and that the memo lacks; pushing those,
    shortest prefix first, fills the memo.
    """
    if len(word) > PUSH_REFERENCE_DEPTH and (word, a) not in memo:
        cuts = []
        need = {a: None}
        for k in range(len(word), PUSH_REFERENCE_DEPTH, -1):
            i = word[k - 1] - 1
            nxt = {}
            for c in need:
                for s in frame.sigma_at(c)[i]:
                    if not s.is_zero():
                        nxt[s] = None
                d = frame.delta_at(c)[i]
                if not d.is_zero():
                    nxt[d] = None
            need = nxt
            if (k - 1) % PUSH_REFERENCE_DEPTH == 0:
                prefix = word[:k - 1]
                need = {c: None for c in need if (prefix, c) not in memo}
                if not need:
                    break
                cuts.append((prefix, need))
        for prefix, coeffs in reversed(cuts):
            for c in coeffs:
                _push_reference_recursive(frame, prefix, c, memo)
    return _push_reference_recursive(frame, word, a, memo)


def _push_reference_recursive(frame, word, a, memo):
    """(m x_i) a = sum_j m (sigma_ij(a) x_j) + m (delta_i(a)), recursing on m."""
    if a.is_zero():
        return {}
    if not word:
        return {word: a}
    key = (word, a)
    hit = memo.get(key)
    if hit is not None:
        return hit
    prefix, i = word[:-1], word[-1]
    out = {}
    sig_row = frame.sigma_at(a)[i - 1]
    for j in range(frame.n):
        c = sig_row[j]
        if not c.is_zero():
            for w, coeff in _push_reference_recursive(frame, prefix, c, memo).items():
                _accumulate(out, w + (j + 1,), coeff)
    d = frame.delta_at(a)[i - 1]
    if not d.is_zero():
        for w, coeff in _push_reference_recursive(frame, prefix, d, memo).items():
            _accumulate(out, w, coeff)
    memo[key] = out
    return out


def divide_words_reference(frame, terms):
    """The push bound of dividing the given terms, as the library's
    _divide_words predicts it, with the letters each letter reaches
    through nonzero sigma entries recomputed on every call."""
    branching, n, sigma = frame.branching, frame.n, frame.sigma
    if max(branching) == 1:
        return sum(map(len, terms))
    reach = [{i} for i in range(n)]
    for _ in range(n):
        reach = [r | {k for j in r for k in range(n) if not sigma[j][k].is_zero_map()}
                 for r in reach]
    alpha, beta = max(map(len, reach)), max(sum(branching[j] for j in r) for r in reach)
    sizes, words = Counter(map(len, terms)), 0
    for length in range(1, max(sizes, default=0) + 1):
        bound = n ** length * min(max(branching) ** (length - 1), count_monomials_below(n, length))
        weight = alpha * beta ** (length - 1)
        if weight < bound:  # else it loses: the sum of the C(|u|, l) is at least 1
            bound = min(bound, weight * sum(k * comb(size, length) for size, k in sizes.items()))
        words += bound
        if words > PUSH_TERM_LIMIT:
            break
    return words


def divide_reference(F, point):
    """(quotients, remainder) of right division by {x_i - a_i}, taking the
    leading monomial by a scan of the whole remainder at every step."""
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
        _accumulate(quot[i - 1], prefix, c)
        for w, pc in push_reference(frame, prefix, point[i - 1], memo).items():
            _accumulate(rem, w, c * pc)
    remainder = rem.get((), frame.ring.zero())
    return [SkewPolynomial(frame, q) for q in quot], remainder


def reconstruct_reference(result, frame, point):
    """Sum of quotient_i * (x_i - a_i) plus the remainder of the
    DivisionResult result, summed on tuple words.

    Runs on ring values: a quotient term c u gives c u x_i (u 1 = u, so
    the unit needs no push) and -c (u a_i), the push of a_i through u,
    through the frame's PushMemo, each output node spelled as it comes;
    one element is built per result term.
    """
    point = check_point(frame, point)
    ring = frame.ring
    unwrap, add, times, neg = ring.unwrap, ring.add_val, ring.mul_val, ring.neg_val
    for q in result.quotients:
        if q.frame is not frame:
            raise RingMismatch("polynomials built over different frames")
    _check_push_budget(sum(_product_words(q, constant(frame, a))
                           for q, a in zip(result.quotients, point)), "the reconstruction")
    out = {}
    _accumulate(out, (), unwrap(result.remainder), add)
    memo = frame_memo(frame)
    word = memo.word
    for i, (q, a) in enumerate(zip(result.quotients, point), 1):
        a = unwrap(a)
        for u, c in q.terms.items():
            c = unwrap(c)
            _accumulate(out, u + (i,), c, add)
            # looked up on its module, as in divide, so the tracer sees it
            for w, pc in freering._push(frame, memo.node(u), a, memo).items():
                _accumulate(out, word(w), neg(times(c, pc)), add)
    wrap = ring.wrap
    return SkewPolynomial(frame, {w: wrap(c) for w, c in out.items()})


# ---------------------------------------------------------------------------
# The uncompiled recursion step of evaluation
# ---------------------------------------------------------------------------

def extend_reference(frame, val, point):
    """The n values N_(x_i m)(a) = sum_j sigma_ij(val) a_j + delta_i(val)
    given N_m(a) = val, applying every sigma/delta map to val through the
    frame's memos: the step that the library's compiled point maps replace."""
    sig = frame.sigma_at(val)
    dlt = frame.delta_at(val)
    out = []
    for i in range(frame.n):
        acc = dlt[i]
        for j in range(frame.n):
            acc = acc + sig[i][j] * point[j]
        out.append(acc)
    return out


def field_point_map_reference(frame, point):
    """phi_a over GF(p^k) on codes, compiled for the point alone from the
    codes of T_i(t^c) on the power basis (n^2 k code operations: the point
    folded into the frame's images of t^c).  The base-p digits of an argument are cut into
    chunks of at most _CHUNK_ENTRIES values; each chunk's table, filled one
    digit column at a time, holds the n image codes of every digit
    pattern, and an image is the sum of one entry per chunk.  When
    q <= _CHUNK_ENTRIES the single table is the map.  For p > 16 no digit
    fits a table, and each nonzero digit scales its column (n code
    products).
    """
    fld, n = frame.ring, frame.n
    p, k = fld.p, fld.k
    add, mul = (xor if p == 2 else fld.add_val), fld.mul_val
    rows = []  # rows[i][c] = the code of T_i(t^c)
    for sigma_row, delta in zip(frame.sigma, frame.delta):
        row = delta._cols
        for m, a in zip(sigma_row, point):
            if a.val and any(m._cols):
                row = list(map(add, row, [mul(x, a.val) for x in m._cols]))
        rows.append(row)

    width = 0  # base-p digits per chunk
    while p ** (width + 1) <= _CHUNK_ENTRIES:
        width += 1
    if not width:
        columns, zero = list(zip(*rows)), (0,) * n

        def scaled(x):
            out = zero
            for col in columns:
                if not x:
                    break
                x, r = divmod(x, p)
                if r:
                    out = tuple(map(add, out, [mul(r, c) for c in col]))
            return out

        return scaled
    base = p ** width
    tables = [[_span_codes(row[start:start + width], p, add) for row in rows]
              for start in range(0, k, width)]
    first, *rest = [list(zip(*coords)) for coords in tables]
    if not rest:
        return first.__getitem__

    def apply(v):
        x, r = divmod(v, base)
        out = first[r]
        for table in rest:
            if not x:
                break
            x, r = divmod(x, base)
            if r:
                out = tuple(map(add, out, table[r]))
        return out

    return apply


def quat_point_map_reference(frame, point):
    """The maps T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v) of a quaternion
    point built as catalog trees: each T_i the QuatMap sum of the
    compositions rmul(a_j) o sigma_ij and of delta_i, compiled node by
    node by the catalog, where the library sums the matrices directly."""
    ring = frame.ring
    return [QuatMap(ring, "sum", maps=[QuatMap(ring, "compose", maps=(QuatMap(ring, "rmul", a), s))
                                       for s, a in zip(row, point) if not s.is_zero_map()] + [d])
            for row, d in zip(frame.sigma, frame.delta)]


def quat_point_matrices_reference(frame, point):
    """The (matrix, den) pair of each T_i built as an earlier version built
    it: each R(a_j) S_ij a normalized product, then their sum with D_i
    normalized once more."""
    out = []
    for row, d in zip(frame.sigma, frame.delta):
        parts = [_matrix_product([_mul_matrix(a.val, False), (s.mat, s.den)])
                 for s, a in zip(row, point) if a.val and any(s.mat)]
        out.append(_matrix_sum([(d.mat, d.den)] + parts))
    return out


def fundamental_table_reference(frame, point, d):
    """N_w(a) for every word w of degree < d, each from its tail by extend_reference."""
    table = {(): frame.ring.one()}
    level = [()]
    for _ in range(1, d):
        nxt = []
        for w in level:
            for i, val in enumerate(extend_reference(frame, table[w], point)):
                table[(i + 1,) + w] = val
                nxt.append((i + 1,) + w)
        level = nxt
    return table


def evaluate_reference(F, point):
    """sum_w F_w N_w(a), every N_w(a) by extend_reference from the right end of w."""
    frame = F.frame
    total = frame.ring.zero()
    for w, c in F.terms.items():
        val = frame.ring.one()
        for i in reversed(w):
            val = extend_reference(frame, val, point)[i - 1]
        total = total + c * val
    return total
