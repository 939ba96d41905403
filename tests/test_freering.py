"""Free skew polynomial arithmetic against a reference expander.

The reference multiplier below recurses on words from the *left* end
(production code pushes constants in from the right), so agreement on
random inputs exercises both the product formula and associativity of
the expansion order.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    BOTTOM,
    FieldElement,
    FiniteField,
    QuaternionRing,
    RingMismatch,
    SkewPolynomial,
    ZeroPolynomial,
    constant,
    conventional_frame,
    divide,
    frobenius_frame,
    from_terms,
    inner_frame,
    mono_key,
    monomial,
    mul,
    mul_monomial_constant,
    one,
    poly_from_json,
    variable,
    zero,
)
from skewpoly import freering
from skewpoly.freering import PushMemo, word_times_constant
from conftest import random_nonzero_poly, random_point, random_poly
from oracles import push_reference


def ref_word_times_constant(frame, word, a):
    """(word) * a, recursing on the leftmost character."""
    if a.is_zero():
        return {}
    if not word:
        return {(): a}
    rest = ref_word_times_constant(frame, word[1:], a)
    i = word[0]
    out = {}
    for w, c in rest.items():
        sig = frame.sigma_at(c)[i - 1]
        for j in range(frame.n):
            if not sig[j].is_zero():
                key = (j + 1,) + w
                out[key] = out.get(key, frame.ring.zero()) + sig[j]
        d = frame.delta_at(c)[i - 1]
        if not d.is_zero():
            out[w] = out.get(w, frame.ring.zero()) + d
    return {w: c for w, c in out.items() if not c.is_zero()}


def reference_mul(F, G):
    frame = F.frame
    out = {}
    for mw, fc in F.terms.items():
        for nw, gc in G.terms.items():
            for w, c in ref_word_times_constant(frame, mw, gc).items():
                key = w + nw
                out[key] = out.get(key, frame.ring.zero()) + fc * c
    return SkewPolynomial(frame, out)


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def test_add_identities(conv_gf5_2, rng):
    F = random_poly(conv_gf5_2, rng)
    assert F + zero(conv_gf5_2) == F
    assert F.scale_left(conv_gf5_2.ring.zero()) == zero(conv_gf5_2)
    assert F - F == zero(conv_gf5_2)


def test_add_over_gf2():
    import skewpoly as sp

    gf2 = sp.FiniteField(2)
    f = conventional_frame(gf2, 1)
    x = variable(f, 1)
    assert (x + one(f)) + x == one(f)


def test_scale_left_is_left_action(frob_gf4_2, rng):
    gf4 = frob_gf4_2.ring
    w = gf4.gen()
    F = random_poly(frob_gf4_2, rng)
    assert w * F == F.scale_left(w)
    assert (w * F).coefficient((1,)) == w * F.coefficient((1,))


def test_frame_mismatch_raises(conv_gf5_2, gf5):
    other = conventional_frame(gf5, 2)
    with pytest.raises(RingMismatch):
        variable(conv_gf5_2, 1) + variable(other, 1)
    with pytest.raises(RingMismatch):
        mul(variable(conv_gf5_2, 1), variable(other, 1))


def test_mul_monomial_constant_examples(conv_gf5_2, frob_gf4_2):
    gf5 = conv_gf5_2.ring
    a = gf5(3)
    assert mul_monomial_constant(conv_gf5_2, (), a) == constant(conv_gf5_2, a)
    # conventional frame: constants slide through unchanged
    assert mul_monomial_constant(conv_gf5_2, (1, 2), a) == monomial(conv_gf5_2, (1, 2), a)
    # Frobenius twist: x1 * w = w^2 x1
    gf4 = frob_gf4_2.ring
    w = gf4.gen()
    assert mul_monomial_constant(frob_gf4_2, (1,), w) == monomial(frob_gf4_2, (1,), w * w)


def test_mul_gf4_frobenius_hand_value(frob_gf4_2):
    gf4 = frob_gf4_2.ring
    w = gf4.gen()
    got = mul(variable(frob_gf4_2, 1), w * variable(frob_gf4_2, 1))
    assert got == monomial(frob_gf4_2, (1, 1), w * w)


def test_monomials_concatenate(conv_gf5_2, frob_gf4_2, quat_inner_2):
    for frame in (conv_gf5_2, frob_gf4_2, quat_inner_2):
        m = monomial(frame, (1, 2))
        n = monomial(frame, (2, 1, 1))
        assert mul(m, n) == monomial(frame, (1, 2, 2, 1, 1))


def test_free_variables_do_not_commute(conv_gf5_2):
    x1, x2 = variable(conv_gf5_2, 1), variable(conv_gf5_2, 2)
    assert mul(x1, x2) == monomial(conv_gf5_2, (1, 2))
    assert mul(x2, x1) == monomial(conv_gf5_2, (2, 1))
    assert mul(x1, x2) != mul(x2, x1)


def test_degree_and_bottom(conv_gf5_2):
    assert zero(conv_gf5_2).degree() is BOTTOM
    assert repr(BOTTOM) == "BOTTOM"
    F = monomial(conv_gf5_2, (1, 2)) + variable(conv_gf5_2, 1)
    assert F.degree() == 2
    with pytest.raises(TypeError):
        BOTTOM + 1  # the sentinel refuses arithmetic


def test_leading_monomial_order(conv_gf5_2):
    # graded first, then rightmost character decides
    F = monomial(conv_gf5_2, (1, 2)) + monomial(conv_gf5_2, (2, 1))
    assert F.leading_monomial() == (1, 2)
    assert mono_key((2, 1)) < mono_key((1, 2))
    assert mono_key((1,)) < mono_key((2, 2))  # degree dominates
    with pytest.raises(ZeroPolynomial):
        zero(conv_gf5_2).leading_monomial()


def test_right_append_raises_leading_monomial(conv_gf5_2, frob_gf4_2, rng):
    # multiplying by (x_n - a_n) must append x_n to the leading monomial
    for frame in (conv_gf5_2, frob_gf4_2):
        n = frame.n
        a = random_point(frame, rng)[0]
        rhs = variable(frame, n) - constant(frame, a)
        for _ in range(25):
            G = random_nonzero_poly(frame, rng)
            assert mul(G, rhs).leading_monomial() == G.leading_monomial() + (n,)


def test_reference_mul_agrees(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng):
    for frame in (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        rounds = 40 if frame.ring.is_finite else 15
        for _ in range(rounds):
            F = random_poly(frame, rng, max_deg=3, max_terms=3)
            G = random_poly(frame, rng, max_deg=3, max_terms=3)
            assert mul(F, G) == reference_mul(F, G)


def test_pushes_through_cut_words_match_reference(frob_gf9_2, quat_inner_2, rng, monkeypatch):
    # cutting every 2 letters runs the sweep that keeps long words off the
    # Python stack; prefixes longest first with one memo, as division does
    monkeypatch.setattr(freering, "_PUSH_DEPTH", 2)
    for frame in (frob_gf9_2, quat_inner_2):
        memo = PushMemo()
        word = tuple(rng.randint(1, 2) for _ in range(8))
        for k in range(len(word), -1, -1):
            a = random_point(frame, rng)[0]
            got = word_times_constant(frame, word[:k], a, memo)
            assert got == ref_word_times_constant(frame, word[:k], a)


def test_cut_words_keep_the_stack_shallow(gf9, monkeypatch):
    # Frobenius twist and an inner derivation over GF(9), one variable: each
    # letter both keeps x (sigma) and drops it (delta), so prefixes are
    # reached with several coefficients and the sweep must collect them all
    frame = inner_frame(gf9, frobenius_frame(gf9, 1), (gf9.gen() + gf9.one(),))
    monkeypatch.setattr(freering, "_PUSH_DEPTH", 8)
    word, a = (1,) * 60, gf9.gen()
    code = freering._push_recursive.__code__
    depth = [0, 0]  # current and deepest nesting of the recursive push

    def profile(f, event, arg):
        if f.f_code is code:
            if event == "call":
                depth[0] += 1
                depth[1] = max(depth)
            elif event == "return":
                depth[0] -= 1

    sys.setprofile(profile)
    try:
        got = word_times_constant(frame, word, a)
    finally:
        sys.setprofile(None)
    assert got == ref_word_times_constant(frame, word, a)
    assert len(got) > 2
    # one piece of 8 letters plus the call that finds the next prefix memoized
    assert depth[1] <= 9


PUSH_FRAMES = ("conv_gf5_2", "frob_gf4_2", "frob_gf9_2", "quat_inner_2", "nondiag_gf8_2",
               "nondiag_gf8_2_inner")


def _assert_pushes_match_reference(frame, cases):
    """Push every (word, coefficient) through one shared memo, as mul and
    divide do, and compare with the tuple reference sharing one dict.  The
    push runs on ring values, so each coefficient is unwrapped on the way
    in and each result wrapped on the way out."""
    ring = frame.ring
    memo, ref_memo = PushMemo(), {}
    for word, a in cases:
        got = freering._push(frame, memo.node(word), ring.unwrap(a), memo)
        assert ({memo.word(v): ring.wrap(c) for v, c in got.items()}
                == push_reference(frame, word, a, ref_memo))


@pytest.mark.parametrize("depth", [512, 3])
@pytest.mark.parametrize("name", PUSH_FRAMES)
def test_node_pushes_match_reference(name, depth, request, monkeypatch):
    # depth 3 cuts the 4- to 8-letter words, so the node sweep runs too
    monkeypatch.setattr(freering, "_PUSH_DEPTH", depth)
    frame = request.getfixturevalue(name)
    rng = random.Random(f"push:{name}")
    words = [tuple(rng.randint(1, frame.n) for _ in range(rng.randint(0, 8))) for _ in range(12)]
    # prefixes of the drawn words, longest first, and repeats, as in division
    words += [w[:k] for w in words[:3] for k in range(len(w), -1, -1)]
    cases = [(w, random_point(frame, rng)[0]) for w in words]
    cases += [(w, frame.ring.zero()) for w in words[:2]]
    _assert_pushes_match_reference(frame, cases)


def test_long_node_pushes_match_reference(frob_gf9_2, gf9):
    # past the default depth: 700 and 1100 letters, cut once and twice
    rng = random.Random(700)
    cases = []
    for length in (700, 1100):
        word = tuple(rng.randint(1, 2) for _ in range(length))
        cases += [(word, gf9.gen()), (word[:-1], gf9.gen() + gf9.one()), (word, gf9.one())]
    _assert_pushes_match_reference(frob_gf9_2, cases)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(index=st.integers(0, len(PUSH_FRAMES) - 1),
       words=st.lists(st.lists(st.integers(1, 2), max_size=7), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32), depth=st.sampled_from([512, 2]))
def test_node_pushes_match_reference_on_drawn_words(conv_gf5_2, frob_gf4_2, frob_gf9_2,
                                                     quat_inner_2, nondiag_gf8_2,
                                                     nondiag_gf8_2_inner, index, words,
                                                     seed, depth):
    frame = (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, nondiag_gf8_2,
             nondiag_gf8_2_inner)[index]
    rng = random.Random(seed)
    saved = freering._PUSH_DEPTH
    freering._PUSH_DEPTH = depth
    try:
        _assert_pushes_match_reference(
            frame, [(tuple(w), random_point(frame, rng)[0]) for w in words])
    finally:
        freering._PUSH_DEPTH = saved


def test_push_memo_hash_conses_words():
    memo = PushMemo()
    v = memo.node((1, 2, 1))
    assert memo.node((1, 2, 1)) == v and memo.append(memo.node((1, 2)), 1) == v
    assert memo.depth[v] == 3 and memo.letter[v] == 1 and memo.word(memo.parent[v]) == (1, 2)
    assert memo.node(()) == 0 and memo.word(0) == ()
    # a node reached only by appends is spelled on demand, once
    u = memo.append(memo.append(v, 2), 2)
    assert memo.spelled[u] is None
    assert memo.word(u) == (1, 2, 1, 2, 2) and memo.word(u) is memo.word(u)


def test_degree_additivity(conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, rng):
    for frame in (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2):
        rounds = 60 if frame.ring.is_finite else 20
        for _ in range(rounds):
            F = random_nonzero_poly(frame, rng)
            G = random_nonzero_poly(frame, rng)
            assert mul(F, G).degree() == F.degree() + G.degree()


def test_associativity_random(conv_gf5_2, frob_gf4_2, quat_inner_2, rng):
    for frame in (conv_gf5_2, frob_gf4_2, quat_inner_2):
        rounds = 25 if frame.ring.is_finite else 8
        for _ in range(rounds):
            F = random_poly(frame, rng, max_deg=2, max_terms=3)
            G = random_poly(frame, rng, max_deg=2, max_terms=3)
            H = random_poly(frame, rng, max_deg=2, max_terms=3)
            assert mul(mul(F, G), H) == mul(F, mul(G, H))


def test_distributivity_random(frob_gf9_2, quat_inner_2, rng):
    for frame in (frob_gf9_2, quat_inner_2):
        rounds = 30 if frame.ring.is_finite else 10
        for _ in range(rounds):
            F, G, H = (random_poly(frame, rng) for _ in range(3))
            assert mul(F, G + H) == mul(F, G) + mul(F, H)
            assert mul(F + G, H) == mul(F, H) + mul(G, H)


def test_conventional_frame_reduces_to_free_algebra(conv_gf5_2, rng):
    # with sigma = Id and delta = 0 the product is the free-algebra one:
    # coefficients commute out front, words concatenate
    for _ in range(40):
        F = random_poly(conv_gf5_2, rng)
        G = random_poly(conv_gf5_2, rng)
        expect = {}
        zero_el = conv_gf5_2.ring.zero()
        for mw, fc in F.terms.items():
            for nw, gc in G.terms.items():
                key = mw + nw
                expect[key] = expect.get(key, zero_el) + fc * gc
        assert mul(F, G) == SkewPolynomial(conv_gf5_2, expect)


def test_one_is_identity(frob_gf4_2, quat_inner_2, rng):
    for frame in (frob_gf4_2, quat_inner_2):
        F = random_poly(frame, rng)
        assert mul(one(frame), F) == F
        assert mul(F, one(frame)) == F


def test_text_rendering(conv_gf5_2):
    gf5 = conv_gf5_2.ring
    F = from_terms(conv_gf5_2, [((1, 2, 1), gf5(3)), ((), gf5(2))])
    assert F.to_text() == "3*x1.x2.x1 + 2*1"
    assert zero(conv_gf5_2).to_text() == "0"


def test_json_round_trip(conv_gf5_2, frob_gf9_2, quat_inner_2, rng):
    for frame in (conv_gf5_2, frob_gf9_2, quat_inner_2):
        F = random_poly(frame, rng)
        assert poly_from_json(frame, F.to_json()) == F
    obj = random_poly(conv_gf5_2, rng).to_json()
    for term in obj:
        assert set(term) == {"monomial", "coeff"}


# ---------------------------------------------------------------------------
# Ring values at the boundary, and the push budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["nondiag_gf8_2", "quat_inner_2"])
def test_coefficients_of_another_ring_are_refused(name, request):
    frame = request.getfixturevalue(name)
    ring = frame.ring
    foreign = [FiniteField(3, 2).gen()]  # GF(9) against GF(8), and against H
    if ring.is_finite:
        foreign.append(QuaternionRing().i())
    x1, point = variable(frame, 1), (ring.one(),) * frame.n
    for c in foreign:
        bad = SkewPolynomial(frame, {(1, 2): c})
        for job in (lambda: mul(x1, bad), lambda: mul(bad, x1), lambda: divide(bad, point),
                    lambda: word_times_constant(frame, (1, 2), c)):
            with pytest.raises(RingMismatch):
                job()
    if ring.is_finite:
        # an equal field built apart passes the check
        twin = FiniteField(ring.p, ring.k, ring.modulus).gen()
        assert word_times_constant(frame, (1,), twin) == word_times_constant(frame, (1,), ring.gen())


def test_from_terms_and_monomial_refuse_coefficients_of_another_ring():
    # unchecked, the GF(9) code 5 was written out as the GF(8) coefficient [2, 1]
    frame = frobenius_frame(FiniteField(2, 3), 1)
    foreign = FiniteField(3, 2).element(5)
    with pytest.raises(RingMismatch):
        from_terms(frame, [((1,), foreign)])
    with pytest.raises(RingMismatch):
        monomial(frame, (1,), foreign)
    with pytest.raises(RingMismatch):
        from_terms(conventional_frame(QuaternionRing(), 1), [((1,), foreign)])


def test_branching_counts_nonzero_sigma_and_delta(conv_gf5_2, frob_gf9_2, quat_inner_2,
                                                  nondiag_gf8_2, nondiag_gf8_2_inner):
    assert conv_gf5_2.branching == frob_gf9_2.branching == (1, 1)
    # diagonal sigma, delta != 0: a letter stays or goes
    assert quat_inner_2.branching == (2, 2)
    assert nondiag_gf8_2.branching == (2, 2)
    assert nondiag_gf8_2_inner.branching == (3, 3)


def test_push_predictions(frob_gf9_2, quat_inner_2, nondiag_gf8_2_inner):
    word = (1, 2) * 8
    # one word per push on a frame whose every branching is 1
    assert freering._push_words(frob_gf9_2, word) == 1
    assert freering._divide_words(frob_gf9_2, [word, (1,), ()]) == 17
    assert freering._push_words(quat_inner_2, word[:5]) == 2 ** 5
    # 3^5 words, but the words of at most 5 letters over 2 variables are 63
    assert freering._push_words(nondiag_gf8_2_inner, word[:5]) == 63
    # sum over l of 2^l min(3^(l-1), 2^l - 1)
    assert freering._divide_words(nondiag_gf8_2_inner, [word[:3], (2,)]) == 2 * 1 + 4 * 3 + 8 * 7
    # four terms at the bound of degree 20 would pass the limit; word by
    # word the product stays under it
    one = nondiag_gf8_2_inner.ring.one()
    F = from_terms(nondiag_gf8_2_inner, [((1, 2) * 10, one), ((1,), one), ((1, 2), one), ((2, 1), one)])
    assert freering._product_words(F, constant(nondiag_gf8_2_inner, one)) == (2 ** 21 - 1) + 3 + 7 + 7


def test_products_and_divisions_build_elements_per_term_not_per_push(monkeypatch):
    gf = FiniteField(2, 16)
    frame = frobenius_frame(gf, 2)
    rng = random.Random(16)
    word = tuple(rng.randint(1, 2) for _ in range(40))
    F = from_terms(frame, [(word, gf.random_nonzero(rng)), ((1, 2), gf.random_nonzero(rng))])
    G = from_terms(frame, [((), gf.random_nonzero(rng)), ((2,), gf.random_nonzero(rng))])
    point = (gf.random_nonzero(rng), gf.random_nonzero(rng))
    made, init = [0], FieldElement.__init__

    def counted(self, field, val):
        made[0] += 1
        init(self, field, val)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    P = mul(F, G)
    # the pushes pass about 80 letters; one element is built per term out
    assert made[0] == len(P.terms) == 4
    made[0] = 0
    res = divide(F, point)
    assert made[0] == sum(len(q.terms) for q in res.quotients) + 1


def test_quaternion_kernels_build_elements_per_term_not_per_push(quat_inner_2, monkeypatch):
    # the pushes, the division and the evaluation run on ring values: an
    # element is built per term or value returned, plus the unit 1 the
    # evaluation starts from, never once per normalized ring value
    from skewpoly import evaluate, frames, rings

    quat = quat_inner_2.ring
    frame = frames.Frame(quat, quat_inner_2.sigma, quat_inner_2.delta)  # empty memos
    rng = random.Random(17)
    word = tuple(rng.randint(1, 2) for _ in range(6))
    F = from_terms(frame, [(word, quat.random_nonzero(rng)), ((1, 2), quat.random_nonzero(rng))])
    G = from_terms(frame, [((), quat.random_nonzero(rng)), ((2,), quat.random_nonzero(rng))])
    point = (quat.random_nonzero(rng), quat.random_nonzero(rng))
    made, ops = [0], [0]
    new, init, value = rings._new, rings.Quaternion.__init__, rings._quat_value

    def counted_new(cls):
        made[0] += cls is rings.Quaternion
        return new(cls)

    def counted_init(self, *args):
        made[0] += 1
        init(self, *args)

    def counted_value(*parts):
        ops[0] += 1
        return value(*parts)

    monkeypatch.setattr(rings, "_new", counted_new)
    monkeypatch.setattr(rings.Quaternion, "__init__", counted_init)
    for module in (rings, frames):
        monkeypatch.setattr(module, "_quat_value", counted_value)

    def run(fn, *args):
        made[0] = ops[0] = 0
        return fn(*args)

    P = run(mul, F, G)
    assert made[0] == len(P.terms) and ops[0] > 10 * made[0]
    res = run(divide, F, point)
    assert made[0] == sum(len(q.terms) for q in res.quotients) + 1 and ops[0] > 10 * made[0]
    run(evaluate, F, point)
    assert made[0] <= 2 and ops[0] > 10
