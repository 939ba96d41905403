"""Separators, both interpolation paths, dual bases and quotient classes."""

import random
import time

import pytest

from skewpoly import (
    FiniteField,
    NotARing,
    NotPIndependent,
    NotSeparable,
    all_points,
    closure_members,
    complementary_p_basis,
    conjugate,
    constant,
    conventional_frame,
    dual_p_basis,
    evaluate,
    find_p_basis,
    frobenius_frame,
    is_two_sided,
    lagrange_interpolate,
    lagrange_via_vandermonde,
    monomial,
    mul,
    one,
    quotient_mul,
    rank_of,
    reduce_mod_ideal,
    separator,
    set_is_p_independent,
    variable,
    vandermonde,
    zero,
)
from skewpoly import geometry, interpolation, linalg
from skewpoly.errors import InvalidInput
from skewpoly.frames import Frame
from skewpoly.freering import count_monomials_below
from skewpoly.geometry import CLOSURE_POINT_LIMIT
from skewpoly.interpolation import independent_rows
from skewpoly.linalg import Matrix, rank
from conftest import random_point, random_poly, seeded_set
from oracles import (
    dual_p_basis_reference,
    independent_rows_reference,
    lagrange_interpolate_reference,
    lagrange_via_vandermonde_reference,
    separator_reference,
)


@pytest.fixture(scope="module")
def conv_gf2_2():
    from skewpoly import FiniteField

    return conventional_frame(FiniteField(2), 2)


@pytest.fixture(scope="module")
def frob_gf4_1(gf4):
    return frobenius_frame(gf4, 1)


# ---------------------------------------------------------------------------
# Separators
# ---------------------------------------------------------------------------

def test_separator_of_empty_base_is_one(conv_gf5_2, rng):
    b = random_point(conv_gf5_2, rng)
    assert separator(conv_gf5_2, (), b) == one(conv_gf5_2)


def test_separator_univariate_conventional(gf7):
    f = conventional_frame(gf7, 1)
    a, b = (gf7(2),), (gf7(5),)
    F = separator(f, (a,), b)
    assert evaluate(F, a).is_zero()
    assert not evaluate(F, b).is_zero()
    assert F.degree() <= 1


def test_separator_multivariate_frobenius(frob_gf4_2, gf4, rng):
    pts = []
    while len(pts) < 3:
        p = random_point(frob_gf4_2, rng)
        if p not in pts and (not pts or
                             __import__("skewpoly").is_p_independent_from(frob_gf4_2, p, pts)):
            pts.append(p)
    base, probe = tuple(pts[:2]), pts[2]
    F = separator(frob_gf4_2, base, probe)
    assert all(evaluate(F, p).is_zero() for p in base)
    assert not evaluate(F, probe).is_zero()
    assert F.degree() <= 2


def test_separator_refuses_closure_member(frob_gf4_1, gf4):
    one_, w = gf4.one(), gf4.gen()
    with pytest.raises(NotSeparable):
        separator(frob_gf4_1, ((one_,), (w,)), (w * w,))


# ---------------------------------------------------------------------------
# Lagrange interpolation, both paths
# ---------------------------------------------------------------------------

def test_single_point_interpolation_is_constant(conv_gf5_2, rng):
    gf5 = conv_gf5_2.ring
    b = random_point(conv_gf5_2, rng)
    v = gf5(3)
    assert lagrange_interpolate(conv_gf5_2, (b,), (v,)) == constant(conv_gf5_2, v)
    assert lagrange_via_vandermonde(conv_gf5_2, (b,), (v,)) == constant(conv_gf5_2, v)


def test_zero_values_interpolate_to_vanishing_poly(conv_gf5_2, rng):
    pts = []
    while len(pts) < 3:
        p = random_point(conv_gf5_2, rng)
        if p not in pts:
            pts.append(p)
    zeros = [conv_gf5_2.ring.zero()] * 3
    F = lagrange_interpolate(conv_gf5_2, pts, zeros)
    assert all(evaluate(F, p).is_zero() for p in pts)


def test_gf5_three_point_instance(gf5, conv_gf5_2):
    B = ((gf5(0), gf5(0)), (gf5(1), gf5(0)), (gf5(0), gf5(1)))
    values = (gf5(1), gf5(2), gf5(3))
    for builder in (lagrange_interpolate, lagrange_via_vandermonde):
        F = builder(conv_gf5_2, B, values)
        for b, v in zip(B, values):
            assert evaluate(F, b) == v
        assert F.degree() <= 2


def test_interpolation_across_frames(
    conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng
):
    for frame in (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        ring = frame.ring
        rounds = 10 if ring.is_finite else 4
        for _ in range(rounds):
            pts = []
            while len(pts) < 3:
                p = random_point(frame, rng)
                if p in pts:
                    continue
                from skewpoly import is_p_independent_from

                if is_p_independent_from(frame, p, pts):
                    pts.append(p)
            if ring.is_finite:
                values = [ring.random_element(rng) for _ in pts]
            else:
                values = [ring.random_element(rng, 2) for _ in pts]
            F = lagrange_interpolate(frame, pts, values)
            G = lagrange_via_vandermonde(frame, pts, values)
            for p, v in zip(pts, values):
                assert evaluate(F, p) == v
                assert evaluate(G, p) == v
            assert F.degree() is not None and F.degree() < 3 or F.is_zero()
            assert G.is_zero() or G.degree() < 3


def test_newton_matches_classical_lagrange(gf7):
    f = conventional_frame(gf7, 1)
    xs = [gf7(1), gf7(3), gf7(5)]
    ys = [gf7(2), gf7(0), gf7(6)]
    pts = [(x,) for x in xs]

    def classical(t):
        total = gf7.zero()
        for i in range(3):
            num, den = gf7.one(), gf7.one()
            for j in range(3):
                if i == j:
                    continue
                num = num * (t - xs[j])
                den = den * (xs[i] - xs[j])
            total = total + ys[i] * num * den.inv()
        return total

    for builder in (lagrange_interpolate, lagrange_via_vandermonde):
        F = builder(f, pts, ys)
        # degree < 3 interpolants are unique classically, so values agree
        # at every point of the field, not just the nodes
        for t in gf7.elements():
            assert evaluate(F, (t,)) == classical(t)


def test_paths_agree_on_whole_closure(frob_gf4_1, gf4, rng):
    one_, w = gf4.one(), gf4.gen()
    B = ((one_,), (w,))
    closure = closure_members(frob_gf4_1, B)
    for _ in range(15):
        values = [gf4.random_element(rng) for _ in B]
        F = lagrange_interpolate(frob_gf4_1, B, values)
        G = lagrange_via_vandermonde(frob_gf4_1, B, values)
        for p in closure:
            assert evaluate(F, p) == evaluate(G, p)


def test_dependent_points_rejected(frob_gf4_1, gf4):
    one_, w = gf4.one(), gf4.gen()
    dependent = ((one_,), (w,), (w * w,))
    # the Newton path trips on the structure no matter the values
    with pytest.raises(NotPIndependent):
        lagrange_interpolate(frob_gf4_1, dependent, (gf4(1), gf4(1), gf4(1)))
    # the linear-system path trips once the values contradict the
    # dependency: w^2 sits in the closure of {1, w}, so no polynomial
    # vanishes on those two but not at w^2
    with pytest.raises(NotPIndependent):
        lagrange_via_vandermonde(frob_gf4_1, dependent, (gf4(0), gf4(0), gf4(1)))


def test_vandermonde_solve_eliminates_no_square_above_the_point_count(frob_gf4_2, gf4,
                                                                      monkeypatch, rng):
    # the verifier's Vandermonde has (2^M - 1) rows; only the pivot square
    # of M rows may reach the elimination that builds a transform
    shapes = []
    reduce = linalg._reduce_with_transform

    def recording(ring, rows, ncols):
        shapes.append((len(rows), ncols))
        return reduce(ring, rows, ncols)

    monkeypatch.setattr(linalg, "_reduce_with_transform", recording)
    pts = list(all_points(frob_gf4_2))
    for size in (4, 6):
        basis = find_p_basis(frob_gf4_2, rng.sample(pts, size)).basis
        values = [gf4.random_element(rng) for _ in basis]
        F = lagrange_via_vandermonde(frob_gf4_2, basis, values)
        assert [evaluate(F, b) for b in basis] == values
        assert shapes and all(rows <= len(basis) for rows, _ in shapes), shapes
        shapes.clear()


def test_verifier_matches_the_whole_degree_solve(gf3, gf4, gf5, frob_gf4_2, nondiag_gf8_2_inner,
                                                 quat_inner_2, frob_gf65536_2, monkeypatch):
    # the verifier stops at the least degree whose Vandermonde has full
    # column rank; solving over every row of degree M must give the same
    # polynomial, or refuse the same sets.  P-dependent sets go on to
    # degree M: they answer when the values are those of a polynomial and
    # refuse when the values contradict their dependency.
    solved = []
    solve = interpolation._solve

    def recording(ring, rows, ncols, b):
        solved.append(len(rows))
        return solve(ring, rows, ncols, b)

    monkeypatch.setattr(interpolation, "_solve", recording)
    frames = (
        (conventional_frame(gf3, 2), 6), (frob_gf4_2, 6),
        (frobenius_frame(FiniteField(2, 3), 2), 6), (frobenius_frame(gf4, 1), 4),
        (conventional_frame(gf5, 1), 5), (conventional_frame(gf3, 3), 5),
        (nondiag_gf8_2_inner, 6), (quat_inner_2, 4), (frob_gf65536_2, 6),
    )
    seen = set()
    for seed, (frame, largest) in enumerate(frames):
        rng, ring = random.Random(seed), frame.ring
        for size in range(1, largest + 1):
            for _ in range(3):
                pts = seeded_set(frame, rng, size)
                dependent = not set_is_p_independent(frame, pts)
                least = next((d for d in range(1, size)
                              if rank(vandermonde(frame, pts, d)) == size), size)
                F = random_poly(frame, rng, size, 4)
                drawn = [ring.random_element(rng) if ring.is_finite else ring.random_element(rng, 2)
                         for _ in pts]
                for values in (drawn, [evaluate(F, p) for p in pts]):
                    try:
                        want = lagrange_via_vandermonde_reference(frame, pts, values)
                    except NotPIndependent:
                        want = None
                    solved.clear()
                    try:
                        got = lagrange_via_vandermonde(frame, pts, values)
                    except NotPIndependent:
                        assert want is None, (frame, pts)
                    else:
                        assert got == want, (frame, pts)
                    assert solved == [count_monomials_below(frame.n, least)]
                    seen.add((dependent, want is None, least < size))
    # dependent sets answered and refused, and independent ones stopped early
    assert {(True, False, False), (True, True, False), (False, False, True)} <= seen


def test_verifier_budgets_follow_the_degree_it_stops_at(gf5, monkeypatch):
    # 10 points of GF(5)^3 reach full rank at degree 6 (364 rows), so the
    # verifier answers without the degree-10 Vandermonde (29524 rows, 295240
    # cells) that its own degree, M = 10, would build
    frame = conventional_frame(gf5, 3)
    pts = list(all_points(frame))[:10]
    rng = random.Random("gf5-cubed")
    values = [gf5.random_nonzero(rng) for _ in pts]
    start = time.perf_counter()
    G = lagrange_via_vandermonde(frame, pts, values)
    assert time.perf_counter() - start < 1
    F = lagrange_interpolate(frame, pts, values)
    assert [evaluate(G, p) for p in pts] == [evaluate(F, p) for p in pts] == values
    # the vandermonde verb builds the degree it is given, so the cell budget
    # at degree 10 still refuses it before any row is built
    def refuse(*args):
        raise AssertionError("a Vandermonde row was built")

    monkeypatch.setattr(geometry, "_value_rows", refuse)
    with pytest.raises(InvalidInput, match="a degree-10 Vandermonde over 10 points has 295240 "
                                           "cells, over the limit of 262144"):
        vandermonde(frame, pts, 10)


def test_verifier_budgets_refuse_the_degree_that_passes_them(monkeypatch):
    # a P-dependent set never reaches full rank and runs on towards d = M:
    # the 16 points of the Frobenius GF(4)^2 plane have rank 11, and degree
    # 15 (32767 rows x 16^2) is the first to pass the work budget, so the
    # rows of degree 13 are the last built
    frame = frobenius_frame(FiniteField(2, 2), 2)
    plane = list(all_points(frame))
    built, value_rows = [], geometry._value_rows

    def counted(frame, words, points, rows=None):
        built.extend(words)
        return value_rows(frame, words, points, rows)

    monkeypatch.setattr(geometry, "_value_rows", counted)
    with pytest.raises(InvalidInput, match="the Vandermonde solve over 16 points takes about "
                                           "8388352 ring operations, over the limit of 4194304"):
        lagrange_via_vandermonde(frame, plane, [frame.ring.one()] * len(plane))
    assert max(map(len, built)) == 12


# ---------------------------------------------------------------------------
# Dual P-bases
# ---------------------------------------------------------------------------

def test_dual_of_singleton_is_one(conv_gf5_2, rng):
    b = random_point(conv_gf5_2, rng)
    dual = dual_p_basis(conv_gf5_2, (b,))
    assert dual.duals == (one(conv_gf5_2),)


def test_duals_evaluate_to_identity(conv_gf2_2, frob_gf4_1, quat_inner_2, rng):
    instances = []
    pts2 = tuple(all_points(conv_gf2_2))
    instances.append((conv_gf2_2, pts2))
    gf4 = frob_gf4_1.ring
    instances.append((frob_gf4_1, ((gf4.one(),), (gf4.gen(),))))
    qpts = []
    while len(qpts) < 2:
        p = random_point(quat_inner_2, rng)
        from skewpoly import is_p_independent_from

        if p not in qpts and is_p_independent_from(quat_inner_2, p, qpts):
            qpts.append(p)
    instances.append((quat_inner_2, tuple(qpts)))

    for frame, basis in instances:
        dual = dual_p_basis(frame, basis)
        M = len(basis)
        for i, F in enumerate(dual.duals):
            assert F.is_zero() or F.degree() < M
            for j, b in enumerate(basis):
                want = frame.ring.one() if i == j else frame.ring.zero()
                assert evaluate(F, b) == want


def test_different_pivot_choices_same_functions(frob_gf4_1, gf4, rng):
    B = ((gf4.one(),), (gf4.gen(),))
    n_rows = count_monomials_below(frob_gf4_1.n, len(B))
    d1 = dual_p_basis(frob_gf4_1, B)
    d2 = dual_p_basis(frob_gf4_1, B, row_order=range(n_rows - 1, -1, -1))
    closure = closure_members(frob_gf4_1, B)
    for F1, F2 in zip(d1.duals, d2.duals):
        for p in closure:
            assert evaluate(F1, p) == evaluate(F2, p)


def test_independent_rows_matches_rerank_reference(frob_gf4_2, frob_gf9_2, quat_inner_2, gf5):
    rng = random.Random("independent-rows")
    cases = []
    for frame, M in ((frob_gf4_2, 5), (frob_gf9_2, 4), (quat_inner_2, 3)):
        for _ in range(4):
            pts = []
            while len(pts) < M:
                p = random_point(frame, rng)
                if p not in pts:
                    pts.append(p)
            cases.append(vandermonde(frame, pts, M))
    for _ in range(10):
        # repeated and combined rows, so some rows are dependent
        rows = [[gf5.random_element(rng) for _ in range(4)] for _ in range(3)]
        rows += [[a + gf5(2) * b for a, b in zip(rows[0], rows[1])], rows[2], rows[0]]
        rng.shuffle(rows)
        cases.append(Matrix(gf5, rows))
    for A in cases:
        for order in (None, range(A.nrows - 1, -1, -1)):
            assert independent_rows(A, order) == independent_rows_reference(A, order)


# ---------------------------------------------------------------------------
# The standard-monomial square against the Vandermonde references
# ---------------------------------------------------------------------------

SQUARE_FRAMES = (
    # fixture, set sizes, seeded sets
    ("conv_gf5_2", (2, 3, 4), 6),
    ("frob_gf4_1", (2, 3), 6),
    ("frob_gf4_2", (3, 4, 5, 6), 8),
    ("frob_gf9_2", (3, 4, 5), 6),
    ("quat_inner_2", (2, 3, 4), 4),
    ("nondiag_gf8_2", (3, 4, 5, 6), 8),
    ("nondiag_gf8_2_inner", (3, 4, 5, 6), 8),
    ("frob_gf256_2", (3, 4, 5), 4),
    ("frob_gf65536_2", (3, 4, 5), 4),
)


@pytest.mark.parametrize("name, sizes, count", SQUARE_FRAMES)
def test_square_matches_vandermonde_references(name, sizes, count, request):
    frame = request.getfixturevalue(name)
    ring = frame.ring
    rng = random.Random(f"square-{name}")
    for _ in range(count):
        basis = find_p_basis(frame, seeded_set(frame, rng, rng.choice(sizes))).basis
        # a dual supported on the standard monomials is unique
        assert dual_p_basis(frame, basis).duals == dual_p_basis_reference(frame, basis), basis
        # closures list F^n up to CLOSURE_POINT_LIMIT points, not GF(2^16)^2
        listable = ring.is_finite and ring.size ** frame.n <= CLOSURE_POINT_LIMIT
        closure = closure_members(frame, basis) if listable else basis
        values = [random_point(frame, rng)[0] for _ in basis]
        F = lagrange_interpolate(frame, basis, values)
        G = lagrange_interpolate_reference(frame, basis, values)
        assert F.is_zero() or F.degree() < len(basis)
        assert all(evaluate(F, p) == evaluate(G, p) for p in closure), basis
        # separate the basis minus one point, and the basis, from a probe
        probe = seeded_set(frame, rng, 1)[0]
        if rng.random() < 0.5:
            probe = conjugate(frame, rng.choice(basis), ring.random_nonzero(rng))
        for base, b in ((basis[:-1], basis[-1]), (basis, probe)):
            if b in base:
                continue
            try:
                want = separator_reference(frame, base, b)
            except NotSeparable:
                with pytest.raises(NotSeparable):
                    separator(frame, base, b)
                continue
            got = separator(frame, base, b)
            assert evaluate(got, b) == ring.one() and not evaluate(want, b).is_zero()
            assert got.degree() <= len(base)
            assert all(evaluate(got, p).is_zero() for p in base)


def test_square_paths_build_no_vandermonde(frob_gf4_2, nondiag_gf8_2_inner, monkeypatch):
    import skewpoly.geometry as geometry
    import skewpoly.interpolation as interpolation

    def refuse(*args, **kwargs):
        raise AssertionError("a Vandermonde was built")

    monkeypatch.setattr(geometry, "_vandermonde_values", refuse)
    monkeypatch.setattr(interpolation, "_vandermonde_values", refuse)
    for frame in (frob_gf4_2, nondiag_gf8_2_inner):
        basis = find_p_basis(frame, list(all_points(frame))[:12]).basis
        values = [frame.ring.one()] * len(basis)
        assert len(dual_p_basis(frame, basis).duals) == len(basis)
        F = lagrange_interpolate(frame, basis, values)
        assert all(evaluate(F, b) == v for b, v in zip(basis, values))
        G = separator(frame, basis[:-1], basis[-1])
        assert evaluate(G, basis[-1]) == frame.ring.one()
        assert set(basis[:3]) <= set(closure_members(frame, basis[:3]))


def test_readme_interpolation_over_the_full_plane_basis(frob_gf4_2):
    # the README quick tour: 11 points of the Frobenius GF(4)^2 plane; the
    # Newton loop over Vandermonde separators took about 85 s here
    gf4 = frob_gf4_2.ring
    basis = find_p_basis(frob_gf4_2, list(all_points(frob_gf4_2))).basis
    values = [gf4.random_element(random.Random(0)) for _ in basis]
    start = time.perf_counter()
    G = lagrange_interpolate(frob_gf4_2, basis, values)
    elapsed = time.perf_counter() - start
    assert all(evaluate(G, b) == v for b, v in zip(basis, values))
    assert G.degree() < len(basis) == 11
    assert elapsed < 1


# ---------------------------------------------------------------------------
# Quotient classes
# ---------------------------------------------------------------------------

def test_reduce_dual_gives_unit_coordinates(conv_gf2_2):
    pts = tuple(all_points(conv_gf2_2))
    dual = dual_p_basis(conv_gf2_2, pts)
    for i, F in enumerate(dual.duals):
        q = reduce_mod_ideal(F, dual)
        for j, c in enumerate(q.coords):
            want = conv_gf2_2.ring.one() if i == j else conv_gf2_2.ring.zero()
            assert c == want


def test_reduce_vanishing_poly_gives_zero(conv_gf2_2, rng):
    pts = tuple(all_points(conv_gf2_2))
    dual = dual_p_basis(conv_gf2_2, pts)
    gf2 = conv_gf2_2.ring
    # x1^2 - x1 vanishes on all of GF(2)^2
    F = mul(variable(conv_gf2_2, 1), variable(conv_gf2_2, 1)) - variable(conv_gf2_2, 1)
    q = reduce_mod_ideal(F, dual)
    assert all(c.is_zero() for c in q.coords)
    assert q.representative(conv_gf2_2) == zero(conv_gf2_2)


def test_reduce_word_example(conv_gf2_2):
    pts = tuple(all_points(conv_gf2_2))
    dual = dual_p_basis(conv_gf2_2, pts)
    F = monomial(conv_gf2_2, (1, 2, 1))
    q = reduce_mod_ideal(F, dual)
    assert q.coords == tuple(evaluate(F, p) for p in pts)
    rep = q.representative(conv_gf2_2)
    assert rep.is_zero() or rep.degree() < 4
    for p in pts:
        assert evaluate(rep, p) == evaluate(F, p)


def test_representative_matches_everywhere_on_closure(frob_gf4_1, gf4, rng):
    B = ((gf4.one(),), (gf4.gen(),))
    dual = dual_p_basis(frob_gf4_1, B)
    closure = closure_members(frob_gf4_1, B)
    for _ in range(20):
        F = random_poly(frob_gf4_1, rng, max_deg=4, max_terms=4)
        rep = reduce_mod_ideal(F, dual).representative(frob_gf4_1)
        for p in closure:
            assert evaluate(rep, p) == evaluate(F, p)


def test_quotient_mul_unit(conv_gf2_2, rng):
    pts = tuple(all_points(conv_gf2_2))
    dual = dual_p_basis(conv_gf2_2, pts)
    unit = reduce_mod_ideal(one(conv_gf2_2), dual)
    v = reduce_mod_ideal(random_poly(conv_gf2_2, rng), dual)
    assert quotient_mul(unit, v, conv_gf2_2).coords == v.coords
    assert quotient_mul(v, unit, conv_gf2_2).coords == v.coords


def test_quotient_mul_is_pointwise_on_full_plane(conv_gf2_2, rng):
    # over the full conventional plane the quotient is the algebra of
    # functions: coordinates multiply pointwise
    pts = tuple(all_points(conv_gf2_2))
    dual = dual_p_basis(conv_gf2_2, pts)
    for _ in range(15):
        F = random_poly(conv_gf2_2, rng)
        G = random_poly(conv_gf2_2, rng)
        u, v = reduce_mod_ideal(F, dual), reduce_mod_ideal(G, dual)
        w = quotient_mul(u, v, conv_gf2_2)
        assert w.coords == tuple(a * b for a, b in zip(u.coords, v.coords))


def test_square_reduces_to_itself_over_gf2(gf2):
    f = conventional_frame(gf2, 1)
    pts = ((gf2(0),), (gf2(1),))
    dual = dual_p_basis(f, pts)
    x = reduce_mod_ideal(variable(f, 1), dual)
    assert quotient_mul(x, x, f).coords == x.coords  # x^2 = x on GF(2)


def test_quotient_mul_refuses_one_sided_ideal(frob_gf4_1, gf4, rng):
    dual = dual_p_basis(frob_gf4_1, ((gf4.one(),),))
    u = reduce_mod_ideal(random_poly(frob_gf4_1, rng), dual)
    with pytest.raises(NotARing):
        quotient_mul(u, u, frob_gf4_1)


def test_quaternion_quotient_of_rational_points_is_pointwise(quat, rng):
    # rational points are central, so they are their own conjugates: the
    # ideal is two-sided and (FG)(b) = F(b^G(b)) G(b) = F(b) G(b)
    frame = conventional_frame(quat, 2)
    pts = ((quat(1), quat(2)), (quat(3), quat("1/2")), (quat(0), quat(-1)))
    dual = dual_p_basis(frame, pts)
    for _ in range(5):
        u = reduce_mod_ideal(random_poly(frame, rng), dual)
        v = reduce_mod_ideal(random_poly(frame, rng), dual)
        w = quotient_mul(u, v, frame)
        assert w.coords == tuple(a * b for a, b in zip(u.coords, v.coords))


def test_quaternion_quotient_refuses_one_sided_ideal(quat, rng):
    frame = conventional_frame(quat, 1)
    u = reduce_mod_ideal(random_poly(frame, rng), dual_p_basis(frame, ((quat.i(),),)))
    with pytest.raises(NotARing):
        quotient_mul(u, u, frame)


# ---------------------------------------------------------------------------
# Kernel decomposition at desk scale
# ---------------------------------------------------------------------------

def test_kernel_splits_into_global_ideal_plus_complementary_duals(conv_gf2_2, gf2, rng):
    # polynomials vanishing on Omega = closure(B) decompose as (vanishing
    # everywhere) + left span of the complementary dual polynomials
    everything = tuple(all_points(conv_gf2_2))
    B = ((gf2(0), gf2(0)), (gf2(1), gf2(1)))
    C = complementary_p_basis(conv_gf2_2, B, everything)
    full_dual = dual_p_basis(conv_gf2_2, B + C)
    comp_duals = full_dual.duals[len(B):]

    for _ in range(25):
        F = random_poly(conv_gf2_2, rng, max_deg=4, max_terms=5)
        # project F onto the kernel of evaluation at B
        correction = zero(conv_gf2_2)
        for b, dual_poly in zip(B, full_dual.duals[: len(B)]):
            correction = correction + dual_poly.scale_left(evaluate(F, b))
        K = F - correction
        assert all(evaluate(K, b).is_zero() for b in B)
        # subtract the complementary-dual component; the rest vanishes everywhere
        G = zero(conv_gf2_2)
        for c, dual_poly in zip(C, comp_duals):
            G = G + dual_poly.scale_left(evaluate(K, c))
        rest = K - G
        assert all(evaluate(rest, p).is_zero() for p in everything)


class _Admitted(Exception):
    pass


def test_verifier_work_budget_admits_the_largest_jobs(gf5, monkeypatch):
    # 14 points of GF(5)^2, whose degree-14 rows (16383 x 14^2) are the most
    # the budget (VERIFIER_WORK_LIMIT = 2^22) admits, answer on the real
    # path, with each degree's budget checked as it is built
    frame = conventional_frame(gf5, 2)
    pts = list(all_points(frame))[:14]
    rng = random.Random("gf5-squared")
    values = [gf5.random_nonzero(rng) for _ in pts]
    G = lagrange_via_vandermonde(frame, pts, values)
    F = lagrange_interpolate(frame, pts, values)
    assert [evaluate(G, p) for p in pts] == [evaluate(F, p) for p in pts] == values
    # for n = 1 the budget is checked before the Vandermonde is built: a
    # stub in its place tells admitted jobs from refused ones unsolved
    def stub(*args):
        raise _Admitted

    monkeypatch.setattr(interpolation, "_vandermonde_values", stub)
    gf = FiniteField(2, 16)
    line = conventional_frame(gf, 1)
    elements = list(gf.elements())
    # 161 univariate points: 161^3 = 4173281
    with pytest.raises(_Admitted):
        lagrange_via_vandermonde(line, [(e,) for e in elements[:161]], [gf.one()] * 161)
    with pytest.raises(InvalidInput, match="4251528"):
        lagrange_via_vandermonde(line, [(e,) for e in elements[:162]], [gf.one()] * 162)


def test_vandermonde_rows_run_the_point_map_once_per_row_and_point(monkeypatch):
    # rows grown a degree at a time extend each row from the one below:
    # 64 points and degree 200 (12800 cells, past the point cache's bound)
    # run each point's map once per row and compile each point once
    from skewpoly import frames

    gf = FiniteField(2, 8)
    frame = conventional_frame(gf, 1)
    pts = [(e,) for e in list(gf.elements())[:64]]
    point_map, compiled, calls = frames._field_point_map, [], []

    def counted(frame, point):
        compiled.append(point)
        phi = point_map(frame, point)

        def wrapped(v):
            calls.append(v)
            return phi(v)

        return wrapped

    monkeypatch.setattr(frames, "_field_point_map", counted)
    V = vandermonde(frame, pts, 200)
    assert len(compiled) == 64 and len(calls) <= 64 * 200
    # conventional maps: the row of x1^e holds the powers b^e
    assert list(V.rows[199]) == [e ** 199 for (e,) in pts]


# ---------------------------------------------------------------------------
# The frame's factorization slot
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def conv_gf3_2(gf3):
    return conventional_frame(gf3, 2)


@pytest.fixture(scope="module")
def frob_gf8_2():
    return frobenius_frame(FiniteField(2, 3), 2)


SLOT_FRAMES = (
    # fixture, whether the chain lists closures (F^n of GF(8)^2 and H are not listed)
    ("frob_gf4_2", True),
    ("conv_gf3_2", True),
    ("frob_gf8_2", False),
    ("quat_inner_2", False),
)


def _fresh(frame):
    """A new frame with the maps of frame, its slot empty."""
    return Frame(frame.ring, frame.sigma, frame.delta)


def _count_builds(monkeypatch):
    """Counts of the image echelon and inverse square builds from now on."""
    counts = {"_image_echelon": 0, "_inverse_square": 0}
    for name in counts:
        def counted(*args, _work=getattr(geometry, name), _name=name):
            counts[_name] += 1
            return _work(*args)

        monkeypatch.setattr(geometry, name, counted)
    return counts


def _outcome(call):
    try:
        return call()
    except NotPIndependent as exc:
        return str(exc)


def _chain(frame_of, pts, values, closure):
    """The answers of one set: its P-basis and rank, the interpolant and the
    duals of the basis and of the set itself (refused when it is dependent),
    the closure when listed, and last the P-basis of the set reversed; each
    call asks frame_of() for its frame."""
    res = find_p_basis(frame_of(), pts)
    basis = res.basis
    out = [res.basis, res.discarded, rank_of(frame_of(), pts),
           set_is_p_independent(frame_of(), pts)]
    for points in (basis, pts):
        out.append(_outcome(lambda: lagrange_interpolate(
            frame_of(), points, values[:len(points)]).terms))
        out.append(_outcome(lambda: [D.terms for D in dual_p_basis(frame_of(), points).duals]))
    if closure:
        out += [closure_members(frame_of(), pts), is_two_sided(frame_of(), basis)]
    out.append(find_p_basis(frame_of(), pts[::-1]).basis)
    return out


@pytest.mark.parametrize("name, closure", SLOT_FRAMES)
def test_each_point_set_is_factored_once(name, closure, request, monkeypatch):
    # the basis, rank, interpolant, duals and closure of one set share one
    # image echelon and one inverse square
    frame = _fresh(request.getfixturevalue(name))
    rng = random.Random(f"slot-{name}")
    counts = _count_builds(monkeypatch)
    for sets, size in enumerate((3, 4, 4, 5), 1):
        pts = seeded_set(frame, rng, size)
        values = [frame.ring.random_nonzero(rng) for _ in pts]
        basis = find_p_basis(frame, pts).basis
        assert rank_of(frame, pts) == len(basis)
        lagrange_interpolate(frame, basis, values[:len(basis)])
        dual_p_basis(frame, basis)
        if closure:
            closure_members(frame, basis)
        assert counts == {"_image_echelon": sets, "_inverse_square": sets}, pts


def test_a_second_set_replaces_the_slot(frob_gf4_2, monkeypatch):
    frame = _fresh(frob_gf4_2)
    rng = random.Random("slot-replace")
    first, second = seeded_set(frame, rng, 4), seeded_set(frame, rng, 4)
    counts = _count_builds(monkeypatch)
    builds = []
    for pts in (first, first, second, first):
        dual_p_basis(frame, find_p_basis(frame, pts).basis)
        assert frame._factored.points == pts
        builds.append(tuple(counts.values()))
    assert builds == [(1, 1), (1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("name, closure", SLOT_FRAMES)
def test_a_primed_slot_answers_as_a_fresh_frame(name, closure, request):
    # every set of distinct points of a conventional frame is P-independent;
    # in the other frames conjugates make dependent sets, whose P-basis is a
    # proper subset
    shared = request.getfixturevalue(name)
    frame = _fresh(shared)
    rng = random.Random(f"slot-answers-{name}")
    dependent = 0
    for size in (2, 3, 3, 4, 4, 5, 5, 6):
        pts = seeded_set(frame, rng, size)
        values = [frame.ring.random_nonzero(rng) for _ in pts]
        want = _chain(lambda: _fresh(shared), pts, values, closure and size <= 4)
        # a chain starts on the slot of the previous set, then of this set
        # reversed, and answers from its own set's after its first call
        for _ in range(2):
            assert _chain(lambda: frame, pts, values, closure and size <= 4) == want, pts
        dependent += len(want[1]) > 0
    assert dependent or name == "conv_gf3_2"


def test_a_primed_slot_is_refused_by_the_same_budgets(frob_gf4_2, monkeypatch):
    frame = _fresh(frob_gf4_2)
    pts = seeded_set(frame, random.Random("slot-budgets"), 5)
    basis = find_p_basis(frame, pts).basis
    values = [frame.ring.one()] * len(basis)
    echelon = [lambda: find_p_basis(frame, pts), lambda: rank_of(frame, pts),
               lambda: set_is_p_independent(frame, pts),
               lambda: lagrange_interpolate(frame, basis, values),
               lambda: dual_p_basis(frame, basis)]
    membership = [lambda: closure_members(frame, basis), lambda: is_two_sided(frame, basis)]
    for call in echelon + membership:
        call()  # primes the slot with the basis and its square
    assert frame._factored.inverse is not None
    monkeypatch.setattr(geometry, "IMAGE_WORK_LIMIT", frame.n * len(basis) ** 3 - 1)
    for call in echelon + membership:
        with pytest.raises(InvalidInput, match="image echelon"):
            call()
    monkeypatch.undo()
    monkeypatch.setattr(geometry, "MEMBERSHIP_WORK_LIMIT", 0)
    for call in echelon:
        call()
    for call in membership:
        with pytest.raises(InvalidInput, match="membership tests"):
            call()


def test_a_poisoned_slot_leaves_the_verifiers_right(frob_gf4_2):
    # the Vandermonde interpolant and the duals of a row order never read
    # the slot, so they still cross-check the standard square
    frame = _fresh(frob_gf4_2)
    ring = frame.ring
    rng = random.Random("slot-poison")
    basis = find_p_basis(frame, seeded_set(frame, rng, 5)).basis
    M = len(basis)
    values = [ring.random_nonzero(rng) for _ in basis]
    assert values != values[::-1]
    lagrange_interpolate(frame, basis, values)
    frame._factored.inverse = frame._factored.inverse[::-1]
    F = lagrange_interpolate(frame, basis, values)
    assert [evaluate(F, b) for b in basis] == values[::-1]
    assert evaluate(dual_p_basis(frame, basis).duals[0], basis[-1]) == ring.one()
    G = lagrange_via_vandermonde(frame, basis, values)
    assert [evaluate(G, b) for b in basis] == values
    order = reversed(range(count_monomials_below(frame.n, M)))
    for i, D in enumerate(dual_p_basis(frame, basis, row_order=order).duals):
        assert [evaluate(D, b) for b in basis] == [ring.one() if i == j else ring.zero()
                                                  for j in range(M)]
