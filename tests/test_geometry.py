"""P-closure geometry against the brute-force membership oracles."""

import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    DuplicatePoint,
    InvalidInput,
    NotFinite,
    all_points,
    closure_members,
    complementary_p_basis,
    conjugate,
    conventional_frame,
    find_p_basis,
    frobenius_frame,
    fundamental,
    in_closure,
    is_p_independent_from,
    is_two_sided,
    matroid_check,
    monomials_below,
    rank,
    rank_of,
    row_reduce_left,
    set_is_p_independent,
    vandermonde,
)
from skewpoly import geometry
from skewpoly.geometry import _image_echelon
from skewpoly.interpolation import independent_rows
from conftest import random_point, seeded_set
from oracles import (
    closure_reference,
    find_p_basis_reference,
    in_closure_bruteforce,
    is_p_independent_reference,
    is_two_sided_reference,
    rank_reference,
    separator_exists_literal,
    span_dimension_on,
)


@pytest.fixture(scope="module")
def conv_gf2_2():
    from skewpoly import FiniteField

    return conventional_frame(FiniteField(2), 2)


@pytest.fixture(scope="module")
def conv_gf3_2():
    from skewpoly import FiniteField

    return conventional_frame(FiniteField(3), 2)


@pytest.fixture(scope="module")
def frob_gf4_1(gf4):
    return frobenius_frame(gf4, 1)


# ---------------------------------------------------------------------------
# Vandermonde assembly
# ---------------------------------------------------------------------------

def test_vandermonde_degree_one_is_all_ones(conv_gf5_2, rng):
    from conftest import random_point

    pts = []
    while len(pts) < 3:
        p = random_point(conv_gf5_2, rng)
        if p not in pts:
            pts.append(p)
    V = vandermonde(conv_gf5_2, pts, 1)
    assert V.nrows == 1 and V.ncols == 3
    assert all(x == conv_gf5_2.ring.one() for x in V.rows[0])


def test_vandermonde_univariate_classical(gf7):
    f = conventional_frame(gf7, 1)
    pts = [(gf7(2),), (gf7(3),), (gf7(5),)]
    V = vandermonde(f, pts, 4)
    for r in range(4):
        for j, p in enumerate(pts):
            assert V.rows[r][j] == p[0] ** r
    assert V.row_labels == ((), (1,), (1, 1), (1, 1, 1))


def test_vandermonde_row_count_and_labels(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    pts = [(gf5(0), gf5(0)), (gf5(1), gf5(2))]
    V = vandermonde(conv_gf5_2, pts, 3)
    assert V.nrows == (2 ** 3 - 1) // (2 - 1)  # 1 + n + n^2 for n = 2
    assert list(V.row_labels) == monomials_below(2, 3)
    assert V.col_labels == tuple(pts)
    for r, w in enumerate(V.row_labels):
        for j, p in enumerate(pts):
            assert V.rows[r][j] == fundamental(conv_gf5_2, w, p)


def test_vandermonde_full_plane_rank(conv_gf2_2):
    gf2 = conv_gf2_2.ring
    pts = [(gf2(a), gf2(b)) for a in range(2) for b in range(2)]
    V = vandermonde(conv_gf2_2, pts, 4)
    assert V.nrows == 15 and V.ncols == 4
    assert rank(V) == 4


# ---------------------------------------------------------------------------
# Independence and the load-bearing degree bound
# ---------------------------------------------------------------------------

def test_everything_is_independent_from_empty(conv_gf5_2, rng):
    from conftest import random_point

    b = random_point(conv_gf5_2, rng)
    assert is_p_independent_from(conv_gf5_2, b, ())


def test_duplicate_point_raises(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    b = (gf5(1), gf5(2))
    with pytest.raises(DuplicatePoint):
        is_p_independent_from(conv_gf5_2, b, (b,))


def test_conventional_independence_is_set_membership(conv_gf2_2, conv_gf3_2):
    # closure of any set equals the set itself in the conventional case;
    # cross-checked with both brute-force oracles
    for frame in (conv_gf2_2, conv_gf3_2):
        pts = list(all_points(frame))
        for base_size in range(0, 3):
            for base in combinations(pts, base_size):
                for b in pts:
                    if b in base:
                        continue
                    got = is_p_independent_from(frame, b, base)
                    assert got  # distinct points never fall into the closure
                    assert not in_closure_bruteforce(frame, b, base)
                    lit = separator_exists_literal(frame, base, b, len(base))
                    if lit is not None:
                        assert lit


def test_rank_test_matches_span_oracle_frobenius(frob_gf4_1):
    gf4 = frob_gf4_1.ring
    pts = [(a,) for a in gf4.elements()]
    for base_size in range(0, 3):
        for base in combinations(pts, base_size):
            if not set_is_p_independent(frob_gf4_1, base):
                continue
            for b in pts:
                if b in base:
                    continue
                got = is_p_independent_from(frob_gf4_1, b, base)
                want = not in_closure_bruteforce(frob_gf4_1, b, base)
                assert got == want, (base, b)


def test_frobenius_closure_swallows_third_root(frob_gf4_1, gf4):
    # over GF(4) with a Frobenius twist, x^2 evaluates to a^3 = 1 on every
    # nonzero a, so {1, w} already pins down w^2
    one, w = gf4.one(), gf4.gen()
    assert not is_p_independent_from(frob_gf4_1, (w * w,), ((one,), (w,)))
    assert in_closure(frob_gf4_1, (w * w,), ((one,), (w,)))


# ---------------------------------------------------------------------------
# P-bases
# ---------------------------------------------------------------------------

def test_find_p_basis_single_point(conv_gf5_2, rng):
    from conftest import random_point

    p = random_point(conv_gf5_2, rng)
    res = find_p_basis(conv_gf5_2, (p,))
    assert res.basis == (p,) and res.rank == 1 and res.discarded == ()


def test_find_p_basis_full_plane(conv_gf2_2):
    gf2 = conv_gf2_2.ring
    pts = [(gf2(a), gf2(b)) for a in range(2) for b in range(2)]
    res = find_p_basis(conv_gf2_2, pts)
    assert res.rank == 4
    assert res.basis == tuple(pts)
    assert rank(res.vandermonde) == 4


def test_find_p_basis_discards_dependent_point(frob_gf4_1, gf4):
    one, w = gf4.one(), gf4.gen()
    res = find_p_basis(frob_gf4_1, ((one,), (w,), (w * w,)))
    assert res.basis == ((one,), (w,))
    assert res.discarded == ((w * w,),)
    assert res.rank == 2


def test_pbasis_certificate_invariant(conv_gf3_2, rng):
    from conftest import random_point

    pts = []
    while len(pts) < 4:
        p = random_point(conv_gf3_2, rng)
        if p not in pts:
            pts.append(p)
    res = find_p_basis(conv_gf3_2, pts)
    assert len(res.basis) == res.rank == rank(res.vandermonde)


def test_rank_examples(conv_gf2_2, conv_gf3_2):
    for frame, q in ((conv_gf2_2, 2), (conv_gf3_2, 3)):
        pts = list(all_points(frame))
        assert rank_of(frame, pts) == q ** 2
        single = pts[:1]
        assert rank_of(frame, single) == 1


def test_rank_is_order_invariant(frob_gf4_1, gf4):
    pts = [(a,) for a in gf4.elements()]
    ranks = {rank_of(frob_gf4_1, list(perm)) for perm in permutations(pts)}
    assert len(ranks) == 1
    sizes = {len(find_p_basis(frob_gf4_1, list(perm)).basis) for perm in permutations(pts)}
    assert sizes == ranks


def test_greedy_basis_is_a_matroid_basis(frob_gf4_1, gf4):
    pts = tuple((a,) for a in gf4.elements())
    res = find_p_basis(frob_gf4_1, pts)
    rep = matroid_check(frob_gf4_1, pts)
    basis_indices = tuple(pts.index(p) for p in res.basis)
    assert basis_indices in rep.bases


def test_rank_bounded_by_size_with_equality_iff_independent(conv_gf3_2, frob_gf4_1, rng):
    from conftest import random_point

    frames = [conv_gf3_2, frob_gf4_1]
    for frame in frames:
        pts = list(all_points(frame))
        for size in (1, 2, 3):
            for base in combinations(pts, size):
                r = rank_of(frame, base)
                assert r <= size
                assert (r == size) == set_is_p_independent(frame, base)


# ---------------------------------------------------------------------------
# Closure enumeration
# ---------------------------------------------------------------------------

def test_closure_of_empty_is_empty(conv_gf2_2):
    assert closure_members(conv_gf2_2, ()) == ()


def test_closure_conventional_is_the_set_itself(conv_gf2_2, conv_gf3_2):
    for frame in (conv_gf2_2, conv_gf3_2):
        pts = list(all_points(frame))
        for size in range(1, 4):
            for gen in combinations(pts, size):
                assert set(closure_members(frame, gen)) == set(gen)


def test_closure_of_everything_is_everything(conv_gf2_2, frob_gf4_1):
    for frame in (conv_gf2_2, frob_gf4_1):
        pts = list(all_points(frame))
        assert set(closure_members(frame, pts)) == set(pts)


def test_closure_frobenius_example(frob_gf4_1, gf4):
    one, w = gf4.one(), gf4.gen()
    closed = closure_members(frob_gf4_1, ((one,), (w,)))
    assert set(closed) == {(one,), (w,), (w * w,)}


def test_closure_idempotent_and_monotone(frob_gf4_1, gf4):
    pts = [(a,) for a in gf4.elements()]
    for size in range(1, 3):
        for gen in combinations(pts, size):
            closed = closure_members(frob_gf4_1, gen)
            assert set(closure_members(frob_gf4_1, closed)) == set(closed)
    small = closure_members(frob_gf4_1, (pts[1],))
    big = closure_members(frob_gf4_1, (pts[1], pts[2]))
    assert set(small) <= set(big)


def test_closure_matches_bruteforce(frob_gf4_1, conv_gf3_2):
    for frame in (frob_gf4_1, conv_gf3_2):
        pts = list(all_points(frame))
        for size in (1, 2):
            for gen in combinations(pts, size):
                closed = set(closure_members(frame, gen))
                oracle = {b for b in pts if in_closure_bruteforce(frame, b, gen)}
                assert closed == oracle


def test_closure_requires_finite_ring(quat_inner_2, quat):
    with pytest.raises(NotFinite):
        closure_members(quat_inner_2, ((quat.one(), quat.i()),))


# ---------------------------------------------------------------------------
# Two-sidedness
# ---------------------------------------------------------------------------

def test_full_space_ideal_is_two_sided(conv_gf2_2, frob_gf4_1):
    for frame in (conv_gf2_2, frob_gf4_1):
        assert is_two_sided(frame, tuple(all_points(frame)))


def test_conventional_ideals_always_two_sided(conv_gf3_2):
    pts = list(all_points(conv_gf3_2))
    for size in (1, 2):
        for gen in combinations(pts, size):
            assert is_two_sided(conv_gf3_2, gen)


def test_frobenius_singleton_not_two_sided(frob_gf4_1, gf4):
    # conjugating 1 by w gives w, which escapes closure({1}) = {1}
    assert not is_two_sided(frob_gf4_1, ((gf4.one(),),))


def _conjugates_stay_in_closure(frame, pts, rng, count=6):
    return all(
        in_closure(frame, conjugate(frame, rng.choice(pts), frame.ring.random_nonzero(rng)), pts)
        for _ in range(count)
    )


def test_quaternion_two_sidedness_conventional(quat):
    frame = conventional_frame(quat, 1)
    i, j = quat.i(), quat.j()
    rng = random.Random("quaternion-conventional")
    # i^j = j i j^-1 = -i, and x - i does not vanish at -i
    assert conjugate(frame, (i,), j) == (-i,)
    assert not in_closure(frame, (-i,), ((i,),))
    assert not is_two_sided(frame, ((i,),))
    # rational points are central; x^2 + 1 vanishes on i and j, so their
    # closure is the whole class {q : q^2 = -1}
    for pts in (((quat(2),), (quat("-1/3"),)), ((i,), (j,))):
        assert is_two_sided(frame, pts)
        assert _conjugates_stay_in_closure(frame, pts, rng)


def test_quaternion_two_sidedness_inner_frame(quat_inner_2, quat):
    # the fixture's sigma_i(c) = u_i c u_i^-1 and delta(c) = sigma(c) beta -
    # beta c give a^c = sigma(c) (a + beta) c^-1 - beta, so the points
    # a = u z - beta conjugate as z does: z -> c z c^-1 in each coordinate
    u = (quat(1, 1, 0, 0), quat.j())
    beta = (quat.i(), quat(0, 0, 1, 1))
    i, j, k, zero = quat.i(), quat.j(), quat.k(), quat.zero()

    def point(*z):
        return tuple(u_ * z_ - b_ for u_, z_, b_ in zip(u, z, beta))

    rng = random.Random("quaternion-inner")
    for pts in ((point(zero, zero), point(quat(1), quat(2)), point(quat(3), quat(-1))),
                (point(i, i), point(j, j), point(k, k)),
                (point(i, zero), point(j, zero))):
        assert is_two_sided(quat_inner_2, pts)
        assert _conjugates_stay_in_closure(quat_inner_2, pts, rng)
    for pts in ((point(i, zero),), (point(i, j),)):
        assert not is_two_sided(quat_inner_2, pts)
        assert not _conjugates_stay_in_closure(quat_inner_2, pts, rng)


# ---------------------------------------------------------------------------
# Matroid structure
# ---------------------------------------------------------------------------

def test_singleton_is_a_matroid(conv_gf5_2, rng):
    from conftest import random_point

    rep = matroid_check(conv_gf5_2, (random_point(conv_gf5_2, rng),))
    assert rep.ok and rep.rank == 1


def test_full_plane_is_free_matroid(conv_gf2_2):
    pts = list(all_points(conv_gf2_2))
    rep = matroid_check(conv_gf2_2, pts)
    assert rep.ok
    assert rep.independent_count == 16  # every subset independent
    assert rep.bases == (tuple(range(4)),)
    assert rep.rank == 4


def test_frobenius_ground_set_matroid(frob_gf4_1, gf4):
    pts = [(a,) for a in gf4.elements()]
    rep = matroid_check(frob_gf4_1, pts)
    assert rep.ok, rep.violations
    # all maximal independent subsets share one size
    sizes = {len(b) for b in rep.bases}
    assert len(sizes) == 1 and rep.rank in sizes


def test_matroid_check_size_cap(conv_gf5_2, gf5):
    pts = [(gf5(a), gf5(b)) for a in range(5) for b in range(3)]
    with pytest.raises(InvalidInput):
        matroid_check(conv_gf5_2, pts[:11])


# ---------------------------------------------------------------------------
# Complementary bases
# ---------------------------------------------------------------------------

def test_complement_of_full_basis_is_empty(conv_gf2_2):
    pts = tuple(all_points(conv_gf2_2))
    assert complementary_p_basis(conv_gf2_2, pts, pts) == ()


def test_complement_of_empty_is_a_basis(conv_gf2_2):
    pts = tuple(all_points(conv_gf2_2))
    C = complementary_p_basis(conv_gf2_2, (), pts)
    assert set(C) == set(pts)


def test_complement_count_matches_rank_split(conv_gf2_2, gf2):
    pts = tuple(all_points(conv_gf2_2))
    origin = ((gf2(0), gf2(0)),)
    C = complementary_p_basis(conv_gf2_2, origin, pts)
    assert len(C) == 3
    assert set_is_p_independent(conv_gf2_2, origin + C)


def test_complement_rejects_dependent_base(frob_gf4_1, gf4):
    one, w = gf4.one(), gf4.gen()
    dependent = ((one,), (w,), (w * w,))
    with pytest.raises(InvalidInput):
        complementary_p_basis(frob_gf4_1, dependent, tuple(all_points(frob_gf4_1)))


def test_complement_rejects_base_outside_ambient_closure(conv_gf3_2, gf3):
    inside = ((gf3(0), gf3(0)),)
    outside_base = ((gf3(1), gf3(1)),)
    with pytest.raises(InvalidInput):
        complementary_p_basis(conv_gf3_2, outside_base, inside)


# ---------------------------------------------------------------------------
# The image echelon against the Vandermonde references
# ---------------------------------------------------------------------------

ENGINE_FRAMES = (
    # fixture, set sizes, seeded sets
    ("conv_gf2_2", (2, 3, 4), 12),
    ("conv_gf3_2", (2, 3, 4, 5), 12),
    ("frob_gf4_1", (2, 3, 4), 12),
    ("conv_gf5_2", (3, 4, 5), 8),
    ("frob_gf4_2", (3, 4, 5, 6), 12),
    ("frob_gf9_2", (3, 4, 5), 8),
    ("quat_inner_2", (3, 4, 5), 10),
    ("nondiag_gf8_2", (3, 4, 5, 6), 10),
    ("nondiag_gf8_2_inner", (3, 4, 5, 6), 10),
    ("frob_gf256_2", (3, 4, 5, 6), 6),
    ("frob_gf65536_2", (3, 4, 5, 6), 6),
)


@pytest.mark.parametrize("name, sizes, count", ENGINE_FRAMES)
def test_engine_matches_vandermonde_references(name, sizes, count, request):
    frame = request.getfixturevalue(name)
    rng = random.Random(f"engine-{name}")
    for _ in range(count):
        pts = seeded_set(frame, rng, rng.choice(sizes))
        probe = seeded_set(frame, rng, 1)[0]
        if rng.random() < 0.5:
            probe = conjugate(frame, rng.choice(pts), frame.ring.random_nonzero(rng))
        res = find_p_basis(frame, pts)
        assert (res.basis, res.discarded) == find_p_basis_reference(frame, pts), pts
        assert rank_of(frame, pts) == res.rank == rank_reference(frame, pts)
        # the leading positions are the pivot columns of the Vandermonde
        kept = tuple(k for k, p in enumerate(pts) if p in res.basis)
        V = vandermonde(frame, pts, len(pts))
        assert row_reduce_left(V).pivots == kept
        # the standard monomials are the rows the greedy row scan keeps
        standard = tuple(V.row_labels[i] for i in independent_rows(V))
        assert _image_echelon(frame, pts) == (kept, standard), pts
        if probe not in pts:
            assert is_p_independent_from(frame, probe, pts) == is_p_independent_reference(
                frame, probe, pts
            )
            assert in_closure(frame, probe, pts) != is_p_independent_reference(frame, probe, pts)


FINITE_FRAMES = ("conv_gf2_2", "conv_gf3_2", "frob_gf4_1", "conv_gf5_2", "frob_gf4_2",
                 "frob_gf9_2", "nondiag_gf8_2", "nondiag_gf8_2_inner")


def class_set(frame, rng, size=None):
    """Distinct conjugates of one random point: up to size of them, or its
    whole conjugacy class when size is None (a two-sided set)."""
    a = random_point(frame, rng)
    units = [c for c in frame.ring.elements() if not c.is_zero()]
    if size is not None:
        units = rng.sample(units, min(len(units), 2 * size))
    return tuple(dict.fromkeys(conjugate(frame, a, c) for c in units))[:size]


def _closure_sets(frame, rng):
    sets = [seeded_set(frame, rng, size) for size in (1, 2, 3, 4) for _ in range(2)]
    sets += [class_set(frame, rng, size) for size in (2, 3, 4)]
    sets += [class_set(frame, rng) for _ in range(3)]
    return sets


def _check_against_references(frame, gens, rng):
    closure = closure_members(frame, gens)
    assert closure == closure_reference(frame, gens), gens
    two_sided = is_two_sided(frame, gens)
    assert two_sided == is_two_sided_reference(frame, gens), gens
    if two_sided:
        for _ in range(4):
            c = frame.ring.random_nonzero(rng)
            assert conjugate(frame, rng.choice(closure), c) in closure
    if len(gens) <= 2:
        probes = {conjugate(frame, rng.choice(gens), frame.ring.random_nonzero(rng)),
                  random_point(frame, rng)}
        for b in probes:
            assert in_closure(frame, b, gens) == in_closure_bruteforce(frame, b, gens)


@pytest.mark.parametrize("name", FINITE_FRAMES)
def test_engine_closure_matches_reference(name, request):
    # closure_members, is_two_sided and in_closure against their references
    frame = request.getfixturevalue(name)
    rng = random.Random(f"closure-{name}")
    for gens in _closure_sets(frame, rng):
        _check_against_references(frame, gens, rng)


@pytest.fixture(scope="module")
def finite_frames(request):
    return {name: request.getfixturevalue(name) for name in FINITE_FRAMES}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(name=st.sampled_from(FINITE_FRAMES), seed=st.integers(0, 1 << 32),
       size=st.integers(1, 4), one_class=st.booleans())
def test_closure_and_two_sidedness_match_references_on_drawn_sets(
    finite_frames, name, seed, size, one_class
):
    frame = finite_frames[name]
    rng = random.Random(seed)
    gens = class_set(frame, rng, size) if one_class else seeded_set(frame, rng, size)
    _check_against_references(frame, gens, rng)


def test_closure_and_two_sidedness_enumerate_no_points(monkeypatch, frob_gf9_2,
                                                       nondiag_gf8_2_inner):
    rng = random.Random("no-scan")
    cases = [(frame, _closure_sets(frame, rng)) for frame in (frob_gf9_2, nondiag_gf8_2_inner)]
    want = [[(closure_members(f, g), is_two_sided(f, g)) for g in sets] for f, sets in cases]

    def refuse(*args):
        raise AssertionError("F^n enumerated")

    monkeypatch.setattr(geometry, "all_points", refuse)
    assert [[(closure_members(f, g), is_two_sided(f, g)) for g in sets]
            for f, sets in cases] == want


def test_readme_full_plane_p_basis_rank_eleven(frob_gf4_2):
    # the README quick tour; the Vandermonde-rank procedures gave no result
    # within minutes.  The rank and the kept indices match the pivot columns
    # of the degree-12 Vandermonde (rank 11 < 12, so the rank is final).
    pts = list(all_points(frob_gf4_2))
    start = time.perf_counter()
    res = find_p_basis(frob_gf4_2, pts)
    elapsed = time.perf_counter() - start
    assert res.rank == 11
    assert [pts.index(p) for p in res.basis] == [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]
    assert elapsed < 1


def test_pbasis_certificate_is_built_on_first_access(frob_gf4_1, gf4):
    one, w = gf4.one(), gf4.gen()
    res = find_p_basis(frob_gf4_1, ((one,), (w,), (w * w,)))
    assert "vandermonde" not in vars(res)
    V = res.vandermonde
    assert V is res.vandermonde
    assert V == vandermonde(frob_gf4_1, res.basis, 2)


_SMALL_FRAMES = {}


def _small_frame(key):
    """Conventional GF(2)^2 and GF(3)^2, Frobenius GF(4)^1 and GF(4)^2."""
    if key not in _SMALL_FRAMES:
        from skewpoly import FiniteField

        build = {
            "conv-gf2-2": lambda: conventional_frame(FiniteField(2), 2),
            "conv-gf3-2": lambda: conventional_frame(FiniteField(3), 2),
            "frob-gf4-1": lambda: frobenius_frame(FiniteField(2, 2), 1),
            "frob-gf4-2": lambda: frobenius_frame(FiniteField(2, 2), 2),
        }[key]
        frame = build()
        _SMALL_FRAMES[key] = (frame, list(all_points(frame)), {})
    return _SMALL_FRAMES[key]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    key=st.sampled_from(["conv-gf2-2", "conv-gf3-2", "frob-gf4-1", "frob-gf4-2"]),
    picks=st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
)
def test_engine_matches_bruteforce_span_oracle(key, picks):
    frame, plane, cache = _small_frame(key)
    idx = list(dict.fromkeys(i % len(plane) for i in picks))
    if len(idx) < 2:
        return
    gens, probe = tuple(plane[i] for i in idx[:-1]), plane[idx[-1]]
    assert in_closure(frame, probe, gens) == in_closure_bruteforce(frame, probe, gens, cache=cache)
    pts = gens + (probe,)
    assert rank_of(frame, pts) == span_dimension_on(frame, pts, len(pts) - 1, cache=cache)


@pytest.mark.parametrize("name", ["conv_gf3_2", "frob_gf4_2", "nondiag_gf8_2_inner"])
def test_single_probe_membership_builds_no_inverse_square(monkeypatch, name, request):
    # one probe is decided by the image echelon of the generators plus the
    # probe, not by the border relations of the generators
    frame = request.getfixturevalue(name)
    rng = random.Random(f"single-probe-{name}")

    def refuse(*args):
        raise AssertionError("inverse square built for one probe")

    monkeypatch.setattr(geometry, "_inverse_square", refuse)
    for size in (1, 2, 2, 3):
        gens = seeded_set(frame, rng, size)
        probes = [conjugate(frame, rng.choice(gens), frame.ring.random_nonzero(rng)),
                  random_point(frame, rng)]
        for b in probes:
            want = in_closure_bruteforce(frame, b, gens)
            assert in_closure(frame, b, gens) == want
            if b not in gens:
                assert is_p_independent_from(frame, b, gens) != want
        # a probe among the generators lies in their closure
        assert in_closure(frame, gens[-1], gens)
        with pytest.raises(DuplicatePoint):
            is_p_independent_from(frame, gens[0], gens)


def test_closure_is_refused_by_its_membership_work():
    # 64 points of Frobenius GF(2^8)^2: k = 8 residue computations of about
    # n M^2 ring operations and a q = 256 entry span table per relation, for
    # each of up to M basis points, n M^2 (k M + q) in all; 60 points
    # (5299200) take about 1.3 s when the work is done
    from skewpoly import FiniteField

    frame = frobenius_frame(FiniteField(2, 8), 2)
    rng = random.Random(64)
    points = list(dict.fromkeys(random_point(frame, rng) for _ in range(64)))
    M = len(points)
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match=str(2 * M ** 2 * (8 * M + 256))):
        closure_members(frame, points)
    assert time.perf_counter() - start < 1


def test_closure_budget_admits_what_closure_can_do():
    # 21 points of Frobenius GF(2^8)^2 predict 373968 ring operations, well
    # under the budget: each point's conjugacy class is listed
    from skewpoly import FiniteField

    frame = frobenius_frame(FiniteField(2, 8), 2)
    rng = random.Random(21)
    points = list(dict.fromkeys(random_point(frame, rng) for _ in range(21)))
    members = closure_members(frame, points)
    assert set(points) <= set(members)
    assert rank_of(frame, members) == rank_of(frame, points)


def _seven_points(frame):
    """7 random points of frame and a nonzero value at each (seed 16),
    after the generator that drew them."""
    rng = random.Random(16)
    points = list(dict.fromkeys(random_point(frame, rng) for _ in range(7)))
    return rng, points, [frame.ring.random_nonzero(rng) for _ in points]


def test_geometry_builds_elements_per_output_not_per_ring_operation(frob_gf65536_2,
                                                                   monkeypatch):
    # the kernels run on codes: an element is built for each coefficient,
    # point coordinate or constant a public function returns, and a few
    # for the units 0 and 1, never once per ring operation (kernels on
    # elements built 258, 1094, 8916 and 392 elements for these calls)
    from skewpoly import FiniteField, FieldElement, dual_p_basis, lagrange_via_vandermonde

    gf = frob_gf65536_2.ring
    rng, points, values = _seven_points(frob_gf65536_2)
    # a closure over GF(2^16)^2 lists more than CLOSURE_POINT_LIMIT points:
    # the one-variable Frobenius frame stands in for it
    line = frobenius_frame(gf, 1)
    generators = [(gf.random_nonzero(rng),) for _ in range(3)]
    made, ops = [0], [0]
    init, mul_val = FieldElement.__init__, FiniteField.mul_val

    def counted(self, field, val):
        made[0] += 1
        init(self, field, val)

    def counted_mul(self, a, b):
        ops[0] += 1
        return mul_val(self, a, b)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    monkeypatch.setattr(FiniteField, "mul_val", counted_mul)

    def run(fn, *args):
        made[0] = ops[0] = 0
        return fn(*args)

    basis = run(find_p_basis, frob_gf65536_2, points).basis
    assert len(basis) == 7 and made[0] <= 4 < ops[0]
    duals = run(dual_p_basis, frob_gf65536_2, basis).duals
    assert made[0] <= sum(len(D.terms) for D in duals) + 8 < ops[0]
    G = run(lagrange_via_vandermonde, frob_gf65536_2, basis, values)
    assert made[0] <= len(G.terms) + len(basis) + 8 < ops[0] / 20
    members = run(closure_members, line, generators)
    assert made[0] <= gf.k * (len(generators) + 1) + 2 * len(members) + 8


def test_verifier_solves_only_as_deep_as_full_rank(frob_gf65536_2, monkeypatch):
    # the 7 rows of degree < 3 already have rank 7, so the verifier solves
    # over them, not over the 127 rows of degree < 7: 847 ring products,
    # where the whole degree-7 solve made 4046
    from skewpoly import FiniteField, evaluate, lagrange_via_vandermonde

    _, points, values = _seven_points(frob_gf65536_2)
    basis = find_p_basis(frob_gf65536_2, points).basis
    ops, mul_val = [0], FiniteField.mul_val

    def counted_mul(self, a, b):
        ops[0] += 1
        return mul_val(self, a, b)

    monkeypatch.setattr(FiniteField, "mul_val", counted_mul)
    G = lagrange_via_vandermonde(frob_gf65536_2, basis, values)
    assert len(basis) == 7 and ops[0] <= 1000
    assert [evaluate(G, b) for b in basis] == values
