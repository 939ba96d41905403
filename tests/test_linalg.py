"""Left-sided exact linear algebra, checked against span-enumeration oracles
and against the reference elimination and solve."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    FiniteField,
    Matrix,
    NoSolution,
    QuaternionRing,
    all_points,
    find_p_basis,
    left_apply,
    left_null_space,
    mat_mul,
    rank,
    row_reduce_left,
    solve_left,
    vandermonde,
)
from skewpoly.linalg import _eliminate
from oracles import row_reduce_reference, solve_left_reference

# GF(5), GF(8), GF(2^8), GF(2^16) and the quaternions
REFERENCE_RINGS = (FiniteField(5), FiniteField(2, 3), FiniteField(2, 8), FiniteField(2, 16),
                   QuaternionRing())


def identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])


def span_size(ring, rows):
    """Number of distinct left combinations of the rows (finite fields)."""
    els = list(ring.elements())
    seen = set()
    for coeffs in product(els, repeat=len(rows)):
        vec = tuple(sum((c * x for c, x in zip(coeffs, col)), ring.zero())
                    for col in zip(*rows)) if rows else ()
        seen.add(vec)
    return len(seen)


def test_identity_reduces_to_itself(gf5):
    A = identity(gf5, 3)
    red = row_reduce_left(A)
    assert red.R == A and red.T == A
    assert red.pivots == (0, 1, 2)
    assert rank(A) == 3


def test_zero_matrix(gf5):
    z = gf5.zero()
    A = Matrix(gf5, [[z, z], [z, z]])
    red = row_reduce_left(A)
    assert red.pivots == ()
    assert rank(A) == 0
    assert all(x.is_zero() for row in red.R.rows for x in row)


def test_transform_times_input_equals_echelon(gf4, gf5, quat, rng):
    cases = []
    for ring in (gf4, gf5):
        for _ in range(15):
            rows = [[ring.random_element(rng) for _ in range(4)] for _ in range(3)]
            cases.append(Matrix(ring, rows))
    for _ in range(8):
        rows = [[quat.random_element(rng, 2) for _ in range(3)] for _ in range(3)]
        cases.append(Matrix(quat, rows))
    for A in cases:
        red = row_reduce_left(A)
        assert mat_mul(red.T, A) == red.R
        # T is invertible: reducing it reaches full rank
        assert rank(red.T) == A.nrows


def test_quaternion_rank_two(quat):
    i, j = quat.i(), quat.j()
    A = Matrix(quat, [[i, quat.one()], [j, quat.zero()]])
    assert rank(A) == 2
    # both unit rows are reachable: solve and substitute back
    for b in ([quat.one(), quat.zero()], [quat.zero(), quat.one()]):
        lam = solve_left(A, b)
        assert list(left_apply(lam, A)) == b


def test_gf2_rank_matches_span_enumeration(gf2):
    one, zero = gf2.one(), gf2.zero()
    A = Matrix(gf2, [[one, one], [one, one], [zero, one]])
    assert rank(A) == 2
    assert span_size(gf2, A.rows) == 2 ** 2


def test_row_rank_equals_column_rank_exhaustive_gf2(gf2):
    # every 3x3 matrix over GF(2): pivot count = log2(row span) = log2(col span)
    els = [gf2.zero(), gf2.one()]
    for bits in range(512):
        rows = [[els[bits >> (3 * r + c) & 1] for c in range(3)] for r in range(3)]
        A = Matrix(gf2, rows)
        r = rank(A)
        assert span_size(gf2, A.rows) == 2 ** r
        cols = [tuple(A.rows[i][j] for i in range(3)) for j in range(3)]
        assert span_size(gf2, cols) == 2 ** r


def test_rank_of_repeated_row(gf3, rng):
    row = [gf3.random_element(rng) for _ in range(3)]
    A = Matrix(gf3, [row, row, [gf3.random_element(rng) for _ in range(3)]])
    assert rank(A) <= 2


def test_null_space_of_identity_is_empty(gf5):
    assert left_null_space(identity(gf5, 4)) == []


def test_null_space_detects_equal_rows(gf5, rng):
    row = [gf5.random_element(rng) for _ in range(3)]
    other = [gf5.random_element(rng) for _ in range(3)]
    A = Matrix(gf5, [row, row, other])
    nulls = left_null_space(A)
    assert len(nulls) >= 1
    for lam in nulls:
        assert all(x.is_zero() for x in left_apply(lam, A))
    # (1, -1, 0) lies in the null space span: check it directly
    lam = (gf5.one(), -gf5.one(), gf5.zero())
    assert all(x.is_zero() for x in left_apply(lam, A))


def test_null_space_size_and_independence(gf4, quat, rng):
    for ring, rounds in ((gf4, 20), (quat, 6)):
        for _ in range(rounds):
            nrows, ncols = 4, 2
            if ring.is_finite:
                rows = [[ring.random_element(rng) for _ in range(ncols)] for _ in range(nrows)]
            else:
                rows = [[ring.random_element(rng, 2) for _ in range(ncols)] for _ in range(nrows)]
            A = Matrix(ring, rows)
            nulls = left_null_space(A)
            assert len(nulls) == nrows - rank(A)
            for lam in nulls:
                assert all(x.is_zero() for x in left_apply(lam, A))
            if nulls:
                assert rank(Matrix(ring, nulls)) == len(nulls)


def test_null_space_exhaustive_gf4(gf4):
    # 3 rows, 2 columns: the returned basis must span every solution
    one, w = gf4.one(), gf4.gen()
    A = Matrix(gf4, [[one, one], [one, w], [one, w * w]])
    nulls = left_null_space(A)
    assert len(nulls) == 3 - rank(A) == 1
    solutions = set()
    for coeffs in product(list(gf4.elements()), repeat=3):
        if all(x.is_zero() for x in left_apply(coeffs, A)):
            solutions.add(tuple(coeffs))
    spanned = set()
    for c in gf4.elements():
        spanned.add(tuple(c * x for x in nulls[0]))
    assert spanned == solutions


def test_solve_left_identity(gf5, rng):
    A = identity(gf5, 3)
    b = [gf5.random_element(rng) for _ in range(3)]
    assert list(solve_left(A, b)) == b


def test_solve_left_zero_rhs_gives_zero(gf4, rng):
    rows = [[gf4.random_element(rng) for _ in range(2)] for _ in range(3)]
    A = Matrix(gf4, rows)
    lam = solve_left(A, [gf4.zero(), gf4.zero()])
    assert all(x.is_zero() for x in lam)


def test_solve_left_quaternion_noncommuting(quat):
    i, j, k = quat.i(), quat.j(), quat.k()
    A = Matrix(quat, [[i], [j]])
    b = [k]
    lam = solve_left(A, b)
    assert left_apply(lam, A) == (k,)
    # canonical solution: first pivot row carries the value, free row is zero
    assert lam[1].is_zero()
    assert lam[0] == k * i.inv()


def test_solve_left_inconsistent(gf5):
    one, zero = gf5.one(), gf5.zero()
    A = Matrix(gf5, [[one, zero]])
    with pytest.raises(NoSolution):
        solve_left(A, [zero, one])


def test_solve_left_deterministic(gf9, rng):
    rows = [[gf9.random_element(rng) for _ in range(3)] for _ in range(5)]
    A = Matrix(gf9, rows)
    b = left_apply([gf9.random_element(rng) for _ in range(5)], A)
    assert solve_left(A, b) == solve_left(A, b)


def test_solutions_substitute_exactly(gf9, quat, rng):
    for ring, rounds in ((gf9, 20), (quat, 6)):
        for _ in range(rounds):
            if ring.is_finite:
                rows = [[ring.random_element(rng) for _ in range(2)] for _ in range(4)]
                mu = [ring.random_element(rng) for _ in range(4)]
            else:
                rows = [[ring.random_element(rng, 2) for _ in range(2)] for _ in range(4)]
                mu = [ring.random_element(rng, 2) for _ in range(4)]
            A = Matrix(ring, rows)
            b = left_apply(mu, A)  # consistent by construction
            lam = solve_left(A, b)
            assert left_apply(lam, A) == b


def test_empty_edge_cases(gf5):
    A = Matrix(gf5, [[]])  # 1 x 0
    assert rank(A) == 0
    assert len(left_null_space(A)) == 1
    B = Matrix(gf5, [])
    assert rank(B) == 0
    assert solve_left(B, []) == ()


# ---------------------------------------------------------------------------
# Equality with the references: elimination rebuilding full rows, and the
# solve read off the transform of [A | I]
# ---------------------------------------------------------------------------

def _outcome(solve, A, b):
    try:
        return solve(A, b)
    except NoSolution:
        return NoSolution


def assert_matches_reference(A, rhs):
    R, T, pivots = row_reduce_reference(A)
    red = row_reduce_left(A)
    assert (red.R, red.T, red.pivots) == (R, T, pivots)
    assert rank(A) == len(pivots)
    # the rows named first are the pivot rows: their square on the pivot
    # columns is invertible and the transform's pivot rows live on them;
    # _eliminate runs on ring values
    ring = A.ring
    rows = [[ring.unwrap(x) for x in r] for r in A.rows]
    got, order = _eliminate(ring, rows, A.ncols)
    assert got == pivots and sorted(order) == list(range(A.nrows))
    assert Matrix(ring, [[ring.wrap(x) for x in r] for r in rows]) == R
    chosen = order[:len(pivots)]
    square = Matrix(A.ring, [[A.rows[i][c] for c in pivots] for i in chosen])
    assert rank(square) == len(pivots)
    for row in T.rows[:len(pivots)]:
        assert all(x.is_zero() for i, x in enumerate(row) if i not in chosen)
    for b in rhs:
        assert _outcome(solve_left, A, b) == _outcome(solve_left_reference, A, b)


def _element(ring, rng):
    return ring.random_element(rng) if ring.is_finite else ring.random_element(rng, 2)


def random_deficient_matrix(ring, rng, nrows, ncols, rank_cap):
    """Rows are left combinations of rank_cap random rows, a quarter of
    them zero, with an occasional zero column."""
    base = [[_element(ring, rng) for _ in range(ncols)] for _ in range(rank_cap)]
    dead = rng.randrange(ncols) if ncols and rng.random() < 0.3 else None
    rows = []
    for _ in range(nrows):
        row = [ring.zero()] * ncols
        if rng.random() >= 0.25:
            for b in base:
                if rng.random() < 0.6:
                    c = _element(ring, rng)
                    row = [x + c * y for x, y in zip(row, b)]
        if dead is not None:
            row[dead] = ring.zero()
        rows.append(row)
    return Matrix(ring, rows)


def right_hand_sides(A, rng):
    """A consistent b, a random b and, when the row space misses a unit
    vector, that unit vector (inconsistent)."""
    ring = A.ring
    out = [left_apply([_element(ring, rng) for _ in range(A.nrows)], A),
           tuple(_element(ring, rng) for _ in range(A.ncols))]
    for c in range(A.ncols):
        unit = tuple(ring.one() if j == c else ring.zero() for j in range(A.ncols))
        if _outcome(solve_left_reference, A, unit) is NoSolution:
            out.append(unit)
            break
    return out


def test_elimination_and_solve_match_reference_seeded(rng):
    inconsistent = 0
    for ring in REFERENCE_RINGS:
        rounds = 12 if ring.is_finite else 6
        for _ in range(rounds):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 4)
            A = random_deficient_matrix(ring, rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            rhs = right_hand_sides(A, rng)
            inconsistent += len(rhs) - 2
            assert_matches_reference(A, rhs)
    assert inconsistent > 10  # the NoSolution branch is exercised


def test_elimination_and_solve_match_reference_on_vandermonde(frob_gf4_2, rng):
    # tall verifier matrices: the pivot rows sit deep in the monomial order
    pts = list(all_points(frob_gf4_2))
    for size in (3, 5):
        basis = find_p_basis(frob_gf4_2, rng.sample(pts, size)).basis
        V = vandermonde(frob_gf4_2, basis, len(basis))
        assert_matches_reference(V, right_hand_sides(V, rng))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    which=st.integers(0, len(REFERENCE_RINGS) - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(0, 4)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_elimination_and_solve_match_reference_hypothesis(which, shape, seed):
    ring = REFERENCE_RINGS[which]
    nrows, ncols, rank_cap = shape
    rng = random.Random(seed)
    A = random_deficient_matrix(ring, rng, nrows, ncols, min(rank_cap, nrows, ncols))
    assert_matches_reference(A, right_hand_sides(A, rng))
