"""Division, evaluation paths, fundamental functions, conjugacy, product rule."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    DivisionByZero,
    check_product_rule,
    conjugate,
    constant,
    conventional_frame,
    divide,
    evaluate,
    from_terms,
    frobenius_frame,
    fundamental,
    fundamental_table,
    inner_frame,
    monomial,
    monomials_below,
    mul,
    one,
    variable,
    zero,
)
from skewpoly import frames, freering
from skewpoly.evaluation import DivisionResult
from skewpoly.frames import Frame, QuatMap, block_frame
from conftest import random_nonzero_poly, random_point, random_poly
from oracles import (conjugate_reference, divide_reference, evaluate_reference, push_reference,
                     reconstruct_reference, value_parts)


def all_frames(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
    return [conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2]


# ---------------------------------------------------------------------------
# Division
# ---------------------------------------------------------------------------

def test_divide_single_variable(conv_gf5_2, rng):
    gf5 = conv_gf5_2.ring
    a = (gf5(2), gf5(4))
    res = divide(variable(conv_gf5_2, 1), a)
    assert res.quotients[0] == one(conv_gf5_2)
    assert res.quotients[1].is_zero()
    assert res.remainder == gf5(2)


def test_divide_constant(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    res = divide(constant(conv_gf5_2, gf5(4)), (gf5(1), gf5(2)))
    assert all(g.is_zero() for g in res.quotients)
    assert res.remainder == gf5(4)


def test_divide_reversed_plugin_value(conv_gf5_2):
    # remainder of x1 x2 at (a1, a2) is a2 a1
    gf5 = conv_gf5_2.ring
    F = mul(variable(conv_gf5_2, 1), variable(conv_gf5_2, 2))
    res = divide(F, (gf5(2), gf5(3)))
    assert res.remainder == gf5(1)


def test_divide_reconstruction_and_uniqueness(
    conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng
):
    for frame in all_frames(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        rounds = 30 if frame.ring.is_finite else 10
        for _ in range(rounds):
            F = random_poly(frame, rng)
            a = random_point(frame, rng)
            res = divide(F, a)
            assert res.reconstruct(frame, a) == F
            # quotient degrees stay below deg F for nonconstant F
            if not F.is_zero() and F.degree() > 0:
                for g in res.quotients:
                    assert g.is_zero() or g.degree() < F.degree()
            # a perturbed remainder cannot reconstruct
            bad = DivisionResult(res.quotients, res.remainder + frame.ring.one())
            assert bad.reconstruct(frame, a) != F


def test_reconstruct_matches_reference(frob_gf65536_2, quat_inner_2):
    # divisions of 1000-letter words over Frobenius GF(2^16)^2 and of
    # quaternion inner-frame products; perturbed quotients and remainders
    # reconstruct some other polynomial, the same on both paths
    rng = random.Random("reconstruct")
    frame, cases = frob_gf65536_2, []
    for _ in range(2):
        word = tuple(rng.randint(1, 2) for _ in range(1000))
        F = monomial(frame, word, frame.ring.random_nonzero(rng))
        cases.append((frame, mul(F, random_nonzero_poly(frame, rng)), random_point(frame, rng)))
    for _ in range(8):
        F, G = random_poly(quat_inner_2, rng), random_poly(quat_inner_2, rng)
        cases.append((quat_inner_2, mul(F, G), random_point(quat_inner_2, rng)))
    for frame, P, a in cases:
        res = divide(P, a)
        bad = DivisionResult([q + random_poly(frame, rng) for q in res.quotients],
                             res.remainder + frame.ring.one())
        assert res.reconstruct(frame, a) == reconstruct_reference(res, frame, a) == P
        assert bad.reconstruct(frame, a) == reconstruct_reference(bad, frame, a)


def _cancelling_pair(ring):
    """Two nonzero elements of the ring: over H, with coprime denominators."""
    if ring.is_finite:
        return ring(5), ring(7)
    return ring("1/2", 1, 0, "1/3"), ring("2/3", 0, "1/5", 1)


@pytest.mark.parametrize("name", ["quat", "gf9"])
def test_sums_that_cancel_are_dropped_in_divide_and_reconstruct(name, request):
    ring = request.getfixturevalue(name)
    frame = conventional_frame(ring, 1)
    c, a = _cancelling_pair(ring)
    # F = c x (x - a): killing x^2 cancels the x term, which closes to zero
    # and is skipped, not killed; the remainder at this zero of F is 0.  A
    # kill of u x_i puts one term u in quotient i and pushes a_i through u,
    # so one quotient term is one kill and one push
    F = from_terms(frame, [((1, 1), c), ((1,), -(c * a))])
    res = divide(F, (a,))
    assert sum(len(q.terms) for q in res.quotients) == 1
    assert res.quotients[0].terms == {(1,): c}
    assert res.remainder == ring.zero() and res.remainder.val == 0
    # c (x - a) + c a = c x: the constant term cancels
    res = DivisionResult([constant(frame, c)], c * a)
    assert res.reconstruct(frame, (a,)).terms == {(1,): c}


@pytest.fixture(scope="module")
def quat_fractional_2(quat):
    """A quaternion inner frame whose push maps have denominators 3^e:
    sigma_1 conjugation by 1 + i + j, sigma_2 by 2 + j + k, and
    beta = (1/2 + i, i/3 + j)."""
    zero_map = QuatMap.zero(quat)
    sigma = [[QuatMap.inner_automorphism(quat, quat(1, 1, 1, 0)), zero_map],
             [zero_map, QuatMap.inner_automorphism(quat, quat(2, 0, 1, 1))]]
    return inner_frame(quat, sigma, (quat("1/2", 1, 0, 0), quat(0, "1/3", 1, 0)))


def _mul_by_push_reference(F, G):
    frame, memo, out = F.frame, {}, {}
    for mw, fc in F.terms.items():
        for nw, gc in G.terms.items():
            for w, c in push_reference(frame, mw, gc, memo).items():
                out[w + nw] = out.get(w + nw, frame.ring.zero()) + fc * c
    return from_terms(frame, out.items())


def _assert_normal(*polys):
    """Every coefficient is in normal form: den > 0, gcd 1, never an open
    (0, 0, 0, 0, den); value_parts checks it."""
    for P in polys:
        for c in P.terms.values():
            assert c.val != 0 and value_parts(c.val)


def test_fractional_quaternion_maps_match_the_references(quat_fractional_2):
    # push images come out of the maps open, off the normal form; no open
    # value may reach a returned coefficient
    frame = quat_fractional_2
    ring = frame.ring
    memo = freering.frame_memo(frame)
    assert any(m.key[1] % 3 == 0 for _, m in freering._push_list(frame, memo.node((1, 2)), memo))
    # delta_i(c) = sigma_i(c) beta_i - beta_i c is 0 at a rational c: those
    # images cancel to the int 0 and are dropped, the others are open
    third = ring.unwrap(ring("1/3", 0, 0, 0))
    for word in [(1,), (2,), (1, 2), (2, 1, 1)]:
        v = memo.node(word)
        images = [m.apply(third) for _, m in freering._push_list(frame, v, memo)]
        assert 0 in images and all(c == 0 and type(c) is int or c[4] > 0 and any(c[:4])
                                   for c in images)
        pushed = freering._push(frame, v, third, memo)
        assert len(pushed) == sum(c != 0 for c in images)
        assert all(value_parts(c) for c in pushed.values())
    rng = random.Random("fractional")
    for k in range(40):
        F = random_poly(frame, rng, max_deg=3, max_terms=3)
        G = random_poly(frame, rng, max_deg=2, max_terms=3)
        a = random_point(frame, rng) if k % 4 else (ring("1/3", 0, 0, 0), ring("-2/9", 0, 0, 0))
        P = mul(F, G)
        assert P == _mul_by_push_reference(F, G)
        res = divide(P, a)
        quotients, remainder = divide_reference(P, a)
        assert res.quotients == quotients and res.remainder == remainder
        back = res.reconstruct(frame, a)
        assert back == reconstruct_reference(res, frame, a) == P
        value = evaluate(P, a)
        assert value == evaluate_reference(P, a) == remainder
        _assert_normal(P, back, *res.quotients)
        for c in (res.remainder, value):
            assert c.val == 0 or value_parts(c.val)


DIVIDE_FRAMES = ("conv_gf5_2", "frob_gf4_2", "frob_gf9_2", "quat_inner_2", "nondiag_gf8_2",
                 "nondiag_gf8_2_inner")


def _assert_division_matches_reference(F, point):
    res = divide(F, point)
    quotients, remainder = divide_reference(F, point)
    assert res.quotients == quotients and res.remainder == remainder


@pytest.mark.parametrize("limit", [512, 2])
@pytest.mark.parametrize("name", DIVIDE_FRAMES)
def test_divide_matches_reference(name, limit, request, monkeypatch):
    # a limit of 2 gives every division an empty word table and empties the
    # frame's map and image tables over and over within one division
    monkeypatch.setattr(frames, "_MEMO_LIMIT", limit)
    shared = request.getfixturevalue(name)
    frame = Frame(shared.ring, shared.sigma, shared.delta)
    rng = random.Random(f"divide:{name}")
    max_deg = 6 if name.startswith("nondiag") or name.startswith("quat") else 9
    for k in range(12):
        F = random_poly(frame, rng, max_deg=max_deg if k % 3 == 0 else 3, max_terms=5)
        a = random_point(frame, rng)
        _assert_division_matches_reference(F, a)
        # a product by x_i - a_i: its remainder cancels to F's value at a
        i = rng.randint(1, frame.n)
        _assert_division_matches_reference(
            F + mul(F, variable(frame, i) - constant(frame, a[i - 1])), a)


def test_long_word_division_matches_reference(frob_gf9_2, gf9):
    # 600 letters, past the reference's own recursion depth
    rng = random.Random(600)
    word = tuple(rng.randint(1, 2) for _ in range(600))
    F = monomial(frob_gf9_2, word, gf9.gen()) + random_poly(frob_gf9_2, rng)
    _assert_division_matches_reference(F, random_point(frob_gf9_2, rng))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(index=st.integers(0, len(DIVIDE_FRAMES) - 1), seed=st.integers(0, 2 ** 32),
       max_deg=st.integers(0, 5), max_terms=st.integers(1, 6))
def test_divide_matches_reference_on_drawn_polynomials(conv_gf5_2, frob_gf4_2, frob_gf9_2,
                                                       quat_inner_2, nondiag_gf8_2,
                                                       nondiag_gf8_2_inner, index, seed,
                                                       max_deg, max_terms):
    frame = (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, nondiag_gf8_2,
             nondiag_gf8_2_inner)[index]
    rng = random.Random(seed)
    F = random_poly(frame, rng, max_deg=max_deg, max_terms=max_terms)
    _assert_division_matches_reference(F, random_point(frame, rng))


def _words_pushed(frame, res, point):
    """The nonzero words the pushes of a division made: a kill of u x_i puts
    u in quotient i and pushes a_i through u, one word per nonzero image."""
    memo, ring = freering.frame_memo(frame), frame.ring
    return sum(len(freering._push(frame, memo.node(u), ring.unwrap(a), memo))
               for q, a in zip(res.quotients, point) for u in q.terms)


@pytest.mark.parametrize("name", DIVIDE_FRAMES)
def test_divide_prediction_bounds_the_words_pushed(name, request):
    # every word that a push of the division makes counts against the
    # budget's prediction, made before the first push
    frame = request.getfixturevalue(name)
    rng = random.Random(f"predict:{name}")
    max_deg = 7 if name.startswith("nondiag") else 9
    total = 0
    for k in range(10):
        F = random_poly(frame, rng, max_deg=max_deg if k % 2 else 3, max_terms=5)
        point = random_point(frame, rng)
        pushed = _words_pushed(frame, divide(F, point), point)
        assert pushed <= freering._divide_words(frame, F.terms)
        total += pushed
    assert total > 10


# ---------------------------------------------------------------------------
# Evaluation and fundamental functions
# ---------------------------------------------------------------------------

def test_evaluate_basics(conv_gf5_2, quat_inner_2, rng):
    for frame in (conv_gf5_2, quat_inner_2):
        a = random_point(frame, rng)
        c = a[0]
        assert evaluate(constant(frame, c), a) == c
        assert evaluate(zero(frame), a) == frame.ring.zero()
        for i in range(1, frame.n + 1):
            assert evaluate(variable(frame, i), a) == a[i - 1]


def test_both_evaluation_paths_agree(
    conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng
):
    for frame in all_frames(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        rounds = 50 if frame.ring.is_finite else 15
        for _ in range(rounds):
            F = random_poly(frame, rng)
            a = random_point(frame, rng)
            assert evaluate(F, a) == divide(F, a).remainder


def test_evaluate_runs_the_point_map_once_per_extended_suffix(frob_gf65536_2, monkeypatch):
    # a frame of its own, so the point's table starts empty
    shared = frob_gf65536_2
    frame = Frame(shared.ring, shared.sigma, shared.delta)
    rng = random.Random("walk")
    u = tuple(rng.randint(1, 2) for _ in range(1000))
    # words u g and x2 x1 u g: every suffix of the first is one of the second
    U = monomial(frame, u, frame.ring.random_nonzero(rng))
    P = mul(U + monomial(frame, (2, 1) + u, frame.ring.random_nonzero(rng)),
            random_nonzero_poly(frame, rng))
    a = random_point(frame, rng)
    expect, point_map, calls = divide(P, a).remainder, frames._field_point_map, []

    def counted(frame, point):
        phi = point_map(frame, point)

        def wrapped(v):
            calls.append(v)
            return phi(v)

        return wrapped

    monkeypatch.setattr(frames, "_field_point_map", counted)
    assert evaluate(P, a) == expect
    # the suffixes w[j:] that a walk from the right end extends by w[j - 1]
    extended = {w[j:] for w in P.terms for j in range(1, len(w) + 1)}
    assert 1000 <= len(calls) <= len(extended)


def test_evaluation_is_left_linear(frob_gf9_2, quat_inner_2, rng):
    for frame in (frob_gf9_2, quat_inner_2):
        for _ in range(25):
            F = random_poly(frame, rng)
            G = random_poly(frame, rng)
            a = random_point(frame, rng)
            if frame.ring.is_finite:
                c = frame.ring.random_element(rng)
            else:
                c = frame.ring.random_element(rng, 3)
            assert evaluate(c * F + G, a) == c * evaluate(F, a) + evaluate(G, a)


def test_fundamental_empty_word_is_one(frob_gf4_2, rng):
    a = random_point(frob_gf4_2, rng)
    assert fundamental(frob_gf4_2, (), a) == frob_gf4_2.ring.one()


def test_fundamental_reverses_order_conventionally(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    a = (gf5(2), gf5(3))
    assert fundamental(conv_gf5_2, (1, 2), a) == gf5(3) * gf5(2)


def test_fundamental_frobenius_square(gf4):
    fr1 = frobenius_frame(gf4, 1)
    w = gf4.gen()
    # N of x^2 at w: sigma(w) * w = w^2 * w = w^3 = 1
    assert fundamental(fr1, (1, 1), (w,)) == gf4.one()
    # same value through the division path
    F = monomial(fr1, (1, 1))
    assert divide(F, (w,)).remainder == gf4.one()


def test_fundamental_table_matches_naive(
    conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng
):
    for frame in all_frames(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        a = random_point(frame, rng)
        table = fundamental_table(frame, a, 4)
        assert set(table) == set(monomials_below(frame.n, 4))
        for w, val in table.items():
            assert val == fundamental(frame, w, a)


def test_univariate_norm_formula(gf9, rng):
    # n = 1, delta = 0: the fundamental function is the twisted power chain
    fr1 = frobenius_frame(gf9, 1)
    for a in gf9.elements():
        acc = gf9.one()
        for i in range(1, 8):
            # N_{x^i}(a) = sigma^(i-1)(a) ... sigma(a) a
            chain = gf9.one()
            for e in range(i - 1, -1, -1):
                chain = chain * (a ** (3 ** e))
            assert fundamental(fr1, (1,) * i, (a,)) == chain
            acc = acc * a


# ---------------------------------------------------------------------------
# Conjugacy
# ---------------------------------------------------------------------------

def test_conjugate_by_one_is_identity(
    conv_gf5_2, frob_gf4_2, quat_inner_2, rng
):
    for frame in (conv_gf5_2, frob_gf4_2, quat_inner_2):
        a = random_point(frame, rng)
        assert conjugate(frame, a, frame.ring.one()) == a


def test_conjugate_trivial_over_commutative_conventional(conv_gf5_2, rng):
    gf5 = conv_gf5_2.ring
    a = random_point(conv_gf5_2, rng)
    for c in gf5.elements():
        if c.is_zero():
            continue
        assert conjugate(conv_gf5_2, a, c) == a


def test_conjugate_quaternion_example(quat):
    f = conventional_frame(quat, 1)
    assert conjugate(f, (quat.i(),), quat.j()) == (-quat.i(),)


def test_conjugate_by_zero_raises(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    with pytest.raises(DivisionByZero):
        conjugate(conv_gf5_2, (gf5(1), gf5(2)), gf5.zero())


def test_conjugate_matches_reference(frob_gf9_2, quat_inner_2, nondiag_gf8_2_inner, rng):
    for frame in (frob_gf9_2, quat_inner_2, nondiag_gf8_2_inner):
        for _ in range(20):
            a, c = random_point(frame, rng), frame.ring.random_nonzero(rng)
            assert conjugate(frame, a, c) == conjugate_reference(frame, a, c)


def test_conjugacy_composes(frob_gf9_2, quat_inner_2, rng):
    # (a^c)^d = a^(dc)
    for frame in (frob_gf9_2, quat_inner_2):
        for _ in range(30):
            a = random_point(frame, rng)
            if frame.ring.is_finite:
                c = frame.ring.random_nonzero(rng)
                d = frame.ring.random_nonzero(rng)
            else:
                c = frame.ring.random_nonzero(rng, 3)
                d = frame.ring.random_nonzero(rng, 3)
            assert conjugate(frame, conjugate(frame, a, c), d) == conjugate(frame, a, d * c)


# ---------------------------------------------------------------------------
# Product rule
# ---------------------------------------------------------------------------

def test_product_rule_random(
    conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng
):
    for frame in all_frames(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        rounds = 40 if frame.ring.is_finite else 12
        for _ in range(rounds):
            F = random_poly(frame, rng)
            G = random_poly(frame, rng)
            a = random_point(frame, rng)
            report = check_product_rule(F, G, a)
            assert report.ok, (frame, F, G, a, report)


def test_product_rule_vanishing_factor(conv_gf5_2, rng):
    gf5 = conv_gf5_2.ring
    a = random_point(conv_gf5_2, rng)
    # G = x1 - a1 vanishes at a, so any FG vanishes at a
    G = variable(conv_gf5_2, 1) - constant(conv_gf5_2, a[0])
    for _ in range(10):
        F = random_poly(conv_gf5_2, rng)
        report = check_product_rule(F, G, a)
        assert report.ok and report.c.is_zero()
        assert evaluate(mul(F, G), a).is_zero()


def test_product_rule_constants(quat_inner_2, rng):
    ring = quat_inner_2.ring
    c1 = ring.random_element(rng, 3)
    c2 = ring.random_element(rng, 3)
    a = random_point(quat_inner_2, rng)
    F, G = constant(quat_inner_2, c1), constant(quat_inner_2, c2)
    assert evaluate(mul(F, G), a) == c1 * c2


def test_left_zero_does_not_annihilate_products(quat):
    # over a noncommutative ring F(a) = 0 does not force (FG)(a) = 0:
    # F = x - i vanishes at i, yet (F j)(i) = -2k
    f = conventional_frame(quat, 1)
    i, j = quat.i(), quat.j()
    F = variable(f, 1) - constant(f, i)
    G = constant(f, j)
    assert evaluate(F, (i,)).is_zero()
    prod_val = evaluate(mul(F, G), (i,))
    assert prod_val == quat(0, 0, 0, -2)
    # and the product rule explains it: c = j, i^j = -i, F(-i) j = -2k
    report = check_product_rule(F, G, (i,))
    assert report.ok
    assert report.conjugate_point == (-i,)


# ---------------------------------------------------------------------------
# Block embedding
# ---------------------------------------------------------------------------

def test_block_embedding_preserves_evaluation(gf4, rng):
    small = frobenius_frame(gf4, 1)
    big = block_frame(small, conventional_frame(gf4, 1))
    for _ in range(40):
        F = random_poly(small, rng, max_deg=3, max_terms=3)
        # words over variable 1 embed verbatim into the 2-variable ring
        F_big = from_terms(big, F.terms.items())
        a_tau = random_point(small, rng)
        a_nu = random_point(small, rng)
        assert evaluate(F, a_tau) == evaluate(F_big, (a_tau[0], a_nu[0]))
