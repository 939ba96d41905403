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
    InvalidInput,
    QuaternionRing,
    RingMismatch,
    SkewPolynomial,
    ZeroPolynomial,
    check_product_rule,
    constant,
    conventional_frame,
    divide,
    evaluate,
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
from skewpoly import frames, freering
from skewpoly.frames import Frame, LinearMap, QuatMap, diagonal_frame
from skewpoly.freering import PUSH_TERM_LIMIT, PushMemo, count_monomials_below, monomials_below
from conftest import random_nonzero_poly, random_point, random_poly
from oracles import divide_words_reference, push_reference


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


def pushed(frame, word, a, memo=None):
    """(word) * a through freering._push, as a dict word -> element; pass
    one PushMemo to several calls to share their pushes, as mul does."""
    if memo is None:
        memo = PushMemo()
    ring = frame.ring
    got = freering._push(frame, memo.node(word), ring.unwrap(a), memo)
    return {memo.word(v): ring.wrap(c) for v, c in got.items()}


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


@pytest.mark.parametrize("name", ["quat", "gf9"])
def test_products_drop_the_sums_that_cancel(name, request):
    # (x + c)(d x + e) = d x^2 + (e + c d) x + c e, and e = -c d cancels
    # the x term, summed from two pushes
    ring = request.getfixturevalue(name)
    frame = conventional_frame(ring, 1)
    c, d = (ring(5), ring(7)) if ring.is_finite else (ring("1/2", 1, 0, "1/3"), ring("2/3", 0, "1/5", 1))
    e = -(c * d)
    F = from_terms(frame, [((1,), ring.one()), ((), c)])
    G = from_terms(frame, [((1,), d), ((), e)])
    assert mul(F, G).terms == {(1, 1): d, (): c * e}


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


def test_prefix_pushes_match_reference(frob_gf9_2, quat_inner_2, rng):
    # prefixes longest first with one memo, as division pushes them: the
    # longest builds every list, the shorter ones find theirs built
    for frame in (frob_gf9_2, quat_inner_2):
        memo = PushMemo()
        word = tuple(rng.randint(1, 2) for _ in range(8))
        for k in range(len(word), -1, -1):
            a = random_point(frame, rng)[0]
            got = pushed(frame, word[:k], a, memo)
            assert got == ref_word_times_constant(frame, word[:k], a)


@pytest.fixture(scope="module")
def inner_gf9_1(gf9):
    """Frobenius twist and an inner derivation over GF(9), one variable:
    each letter both keeps x (sigma) and drops it (delta), so the maps of
    a push list meet on one word and sum."""
    return inner_frame(gf9, frobenius_frame(gf9, 1), (gf9.gen() + gf9.one(),))


def test_long_pushes_never_nest(inner_gf9_1, gf9):
    # a 600-letter push builds 600 lists, parent first, without one push
    # or list build inside another, and its deepest Python call chain is
    # no deeper than that of a 6-letter push
    codes = (freering._push.__code__, freering._push_list.__code__)

    def profiled(word, a):
        frame = Frame(gf9, inner_gf9_1.sigma, inner_gf9_1.delta)
        # current and deepest nesting: of all calls, and of each push function
        active, depth, other = {code: [0, 0] for code in codes}, [0, 0], [0, 0]

        def profile(f, event, arg):
            if event == "call":
                count = active.get(f.f_code, other)
                depth[0] += 1
                count[0] += 1
                depth[1], count[1] = max(depth), max(count)
            elif event == "return":
                depth[0] -= 1
                active.get(f.f_code, other)[0] -= 1

        sys.setprofile(profile)
        try:
            got = pushed(frame, word, a)
        finally:
            sys.setprofile(None)
        assert [count[1] for count in active.values()] == [1, 1]
        return frame, got, depth[1]

    word, a = (1,) * 600, gf9.gen()
    frame, got, deepest = profiled(word, a)
    assert deepest == profiled(word[:6], a)[2]
    # the reference expands from the left end on ring values, x^m keyed by
    # m: x (c x^m) = sigma(c) x^(m+1) + delta(c) x^m
    expect = {0: gf9.unwrap(a)}
    for _ in word:
        step = {}
        for m, c in expect.items():
            for key, d in ((m + 1, frame.sigma_val(c)[0][0][1]), (m, frame.delta_val(c)[0])):
                step[key] = gf9.add_val(step.get(key, 0), d)
        expect = {m: c for m, c in step.items() if c}
    assert got == {(1,) * m: gf9.wrap(c) for m, c in expect.items()}
    assert len(got) > 300


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


@pytest.mark.parametrize("limit", [512, 3])
@pytest.mark.parametrize("name", PUSH_FRAMES)
def test_node_pushes_match_reference(name, limit, request, monkeypatch):
    # a limit of 3 empties the frame's map and image tables over and over,
    # so lists hold maps the tables no longer know
    monkeypatch.setattr(frames, "_MEMO_LIMIT", limit)
    shared = request.getfixturevalue(name)
    frame = Frame(shared.ring, shared.sigma, shared.delta)
    rng = random.Random(f"push:{name}")
    words = [tuple(rng.randint(1, frame.n) for _ in range(rng.randint(0, 8))) for _ in range(12)]
    # prefixes of the drawn words, longest first, and repeats, as in division
    words += [w[:k] for w in words[:3] for k in range(len(w), -1, -1)]
    cases = [(w, random_point(frame, rng)[0]) for w in words]
    cases += [(w, frame.ring.zero()) for w in words[:2]]
    _assert_pushes_match_reference(frame, cases)


def test_long_node_pushes_match_reference(frob_gf9_2, gf9):
    # 700 and 1100 letters, past the reference's own recursion depth
    rng = random.Random(700)
    cases = []
    for length in (700, 1100):
        word = tuple(rng.randint(1, 2) for _ in range(length))
        cases += [(word, gf9.gen()), (word[:-1], gf9.gen() + gf9.one()), (word, gf9.one())]
    _assert_pushes_match_reference(frob_gf9_2, cases)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(index=st.integers(0, len(PUSH_FRAMES) - 1),
       words=st.lists(st.lists(st.integers(1, 2), max_size=7), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32), limit=st.sampled_from([512, 2]))
def test_node_pushes_match_reference_on_drawn_words(conv_gf5_2, frob_gf4_2, frob_gf9_2,
                                                     quat_inner_2, nondiag_gf8_2,
                                                     nondiag_gf8_2_inner, index, words,
                                                     seed, limit):
    frame = (conv_gf5_2, frob_gf4_2, frob_gf9_2, quat_inner_2, nondiag_gf8_2,
             nondiag_gf8_2_inner)[index]
    rng = random.Random(seed)
    saved = frames._MEMO_LIMIT
    frames._MEMO_LIMIT = limit
    try:
        _assert_pushes_match_reference(
            frame, [(tuple(w), random_point(frame, rng)[0]) for w in words])
    finally:
        frames._MEMO_LIMIT = saved


@pytest.mark.parametrize("name", PUSH_FRAMES + ("inner_gf9_1",))
def test_push_lists_hold_exactly_the_nonzero_maps(name, request):
    # a map is zero when it kills the additive basis: every listed map
    # moves some basis element, and every word a basis push reaches is
    # listed, for every word of up to 5 letters (up to 9 over one variable)
    shared = request.getfixturevalue(name)
    frame = Frame(shared.ring, shared.sigma, shared.delta)
    ring, memo = frame.ring, PushMemo()
    basis = [ring.unwrap(e) for e in ring.additive_basis()]
    for word in monomials_below(frame.n, 6 if frame.n > 1 else 10):
        v = memo.node(word)
        reached = set()
        for e in basis:
            reached.update(freering._push(frame, v, e, memo))
        listed = memo.pushes[v]
        assert len({w for w, _ in listed}) == len(listed)
        assert all(any(m.apply(e) for e in basis) for _, m in listed), word
        assert reached == {w for w, _ in listed}, word


# -- diagonal frames: one composite map per word ------------------------------


@pytest.fixture(scope="module")
def frob_1_3_gf256_2():
    """GF(2^8)^2 with sigma_1 = Frobenius and sigma_2 = Frobenius^3."""
    gf = FiniteField(2, 8)
    return diagonal_frame(gf, [LinearMap.frobenius(gf, 1), LinearMap.frobenius(gf, 3)])


@pytest.fixture(scope="module")
def conj_1_2i_quat_2(quat):
    """x_1 twisted by conjugation with 1 + 2i, of infinite order, and x_2 by
    conjugation with 1 + j, which does not commute with it."""
    return diagonal_frame(quat, [QuatMap.inner_automorphism(quat, quat(1, 2, 0, 0)),
                                 QuatMap.inner_automorphism(quat, quat(1, 0, 1, 0))])


def _prefix_cases(frame, rng, lengths):
    """A random word of each length with random coefficients, then the
    prefixes of the longest, longest first, as division pushes them."""
    words = [tuple(rng.randint(1, frame.n) for _ in range(m)) for m in lengths]
    longest = max(words, key=len)
    words += [longest[:k] for k in range(len(longest) - 1, -1, -max(1, len(longest) // 20))]
    return [(w, random_point(frame, rng)[0]) for w in words]


def test_composite_pushes_match_reference_over_frobenius_gf65536(frob_gf65536_2):
    rng = random.Random(65536)
    cases = _prefix_cases(frob_gf65536_2, rng, (1, 2, 3, 17, 400, 1100))
    _assert_pushes_match_reference(frob_gf65536_2, cases)


@pytest.mark.parametrize("name", ["frob_1_3_gf256_2", "conv_gf5_2", "frob_gf9_2"])
def test_composite_pushes_match_reference(name, request):
    frame = request.getfixturevalue(name)
    rng = random.Random(f"composite:{name}")
    _assert_pushes_match_reference(frame, _prefix_cases(frame, rng, (0, 1, 2, 5, 9, 24, 60)))


def test_composite_pushes_over_an_infinite_order_map_survive_emptied_tables(
        conj_1_2i_quat_2, monkeypatch):
    # conjugation by 1 + 2i has infinite order: every word length is a new
    # composite, so a 4-entry limit empties the tables many times per word
    monkeypatch.setattr(frames, "_MEMO_LIMIT", 4)
    frame = Frame(conj_1_2i_quat_2.ring, conj_1_2i_quat_2.sigma, conj_1_2i_quat_2.delta)
    rng = random.Random(12)
    _assert_pushes_match_reference(frame, _prefix_cases(frame, rng, (1, 3, 7, 18, 30)))
    assert len(frame._push_maps) <= 4


def test_composite_tables_are_built_on_the_first_push_of_a_diagonal_frame(request):
    # a fresh frame has no tables; after one product, a frame whose every
    # branching is 1 has the one pair (u, sigma_u) in each list, and the
    # others have some list of more pairs
    for name in PUSH_FRAMES:
        frame = request.getfixturevalue(name)
        fresh = Frame(frame.ring, frame.sigma, frame.delta)
        assert fresh._push_memo is None and not fresh._push_maps
        ring = fresh.ring
        a = ring.gen() if ring.is_finite else ring.i()
        mul(monomial(fresh, (1, 2, 1)), constant(fresh, a))
        memo = fresh._push_memo
        lists = [(v, p) for v, p in enumerate(memo.pushes) if p is not None]
        assert len(lists) == 4 and fresh._push_maps, name
        if set(frame.branching) == {1}:
            assert all(len(p) == 1 and p[0][0] == v for v, p in lists), name
        else:
            assert max(len(p) for _, p in lists) > 1, name


class _Writes(list):
    """A list that records the indices written, in order."""

    def __init__(self, items):
        super().__init__(items)
        self.order = []

    def __setitem__(self, i, x):
        self.order.append(i)
        super().__setitem__(i, x)


@pytest.mark.parametrize("name", ["frob_gf65536_2", "quat_inner_2", "nondiag_gf8_2_inner"])
def test_push_lists_are_built_once_from_the_parent(name, request):
    # the pushes through the prefixes of a word, longest first and then
    # again, write each node's list once, after its parent's; over GF(2^16)
    # the diagonal lists hold the 16 Frobenius powers at most
    shared = request.getfixturevalue(name)
    frame = Frame(shared.ring, shared.sigma, shared.delta)
    ring = frame.ring
    rng = random.Random(400)
    length = 400 if set(frame.branching) == {1} else 7
    word, a = tuple(rng.randint(1, 2) for _ in range(length)), ring.random_nonzero(rng)
    memo = PushMemo()
    memo.pushes = writes = _Writes(memo.pushes)
    for _ in range(2):
        for k in range(length, 0, -1):
            got = pushed(frame, word[:k], a, memo)
            if length < 40 or k % 40 == 0:
                assert got == ref_word_times_constant(frame, word[:k], a)
    order = writes.order
    assert sorted(order) == list(range(length + 1))
    assert all(order.index(memo.parent[u]) < order.index(u) for u in order[1:])
    if ring.is_finite and set(frame.branching) == {1}:
        assert len(frame._push_maps) <= ring.k


def test_frame_word_tables_are_bounded_and_kept_whole_through_a_call(frob_gf9_2, monkeypatch):
    # a product takes the frame's table once and may fill it past the limit;
    # the next call finds it full and starts an empty one
    monkeypatch.setattr(frames, "_MEMO_LIMIT", 64)
    frame = Frame(frob_gf9_2.ring, frob_gf9_2.sigma, frob_gf9_2.delta)
    g = frame.ring.gen()
    word = tuple(random.Random(64).randint(1, 2) for _ in range(100))
    # x_i g = g^3 x_i on Frobenius GF(9)
    F, G, FG = monomial(frame, word), constant(frame, g), monomial(frame, word, g ** 3 ** 100)
    assert mul(F, G) == FG
    first = frame._push_memo
    assert first.size == 100 + 101  # the nodes of the prefixes, the entries of their lists
    assert mul(monomial(frame, (1,)), G) == monomial(frame, (1,), g ** 3)
    assert frame._push_memo is not first and frame._push_memo.size < 64
    assert mul(F, G) == FG


def test_a_long_word_op_keeps_one_word_table_through_its_calls(frob_gf256_2):
    # the nodes and list entries of a 400-letter word stay far below the
    # limit, so the product, the division, its reconstruction and the
    # product rule's product all share one table; counting the letters of
    # its prefixes (80200) in the size made a new table at each call
    frame = Frame(frob_gf256_2.ring, frob_gf256_2.sigma, frob_gf256_2.delta)
    rng = random.Random(400)
    word = tuple(rng.randint(1, 2) for _ in range(400))
    F = monomial(frame, word, frame.ring.random_nonzero(rng))
    G, a = random_nonzero_poly(frame, rng), random_point(frame, rng)
    P = mul(F, G)
    memo = frame._push_memo
    res = divide(P, a)
    assert res.remainder == evaluate(P, a) and frame._push_memo is memo
    # the quotients spell every prefix of the word, more letters than the
    # limit: the next call forgets those spellings and keeps the table
    assert memo.letters >= frames._MEMO_LIMIT
    assert res.reconstruct(frame, a) == P and frame._push_memo is memo
    assert check_product_rule(F, G, a).ok and frame._push_memo is memo
    assert memo.size < frames._MEMO_LIMIT


def test_push_memo_node_walks_from_the_shared_prefix():
    # nested prefixes in both orders, and words that share a long prefix
    rng = random.Random(60)
    word = tuple(rng.randint(1, 2) for _ in range(60))
    words = [word[:k] for k in range(60, -1, -1)] + [word[:k] for k in range(61)]
    words += [word[:k] + tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 12)))
              for k in (60, 59, 20, 50, 3, 0, 60)]
    memo, nodes = PushMemo(), {}
    for w in words:
        v = memo.node(w)
        assert memo.word(v) == w and memo.depth[v] == len(w)
        assert nodes.setdefault(w, v) == v
    # one node per distinct prefix of the words, as walks from the root make
    assert len(memo.parent) == len({w[:k] for w in words for k in range(len(w) + 1)})


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
    # size counts nodes, one per letter appended, not the letters they spell
    assert memo.size == len(memo.parent) - 1 == 5


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
                    lambda: mul_monomial_constant(frame, (1, 2), c)):
            with pytest.raises(RingMismatch):
                job()
    if ring.is_finite:
        # an equal field built apart passes the check
        twin = FiniteField(ring.p, ring.k, ring.modulus).gen()
        x1 = mul_monomial_constant(frame, (1,), ring.gen())
        assert mul_monomial_constant(frame, (1,), twin) == x1


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


def test_division_bounds_match_the_reference(conv_gf5_2, frob_gf9_2, quat_inner_2,
                                             nondiag_gf8_2, nondiag_gf8_2_inner):
    # the frame computes its letter reach once; every prediction stays the
    # one recomputing it per division, also where reach runs through a
    # chain x1 -> x2 -> x3 of nonzero sigma entries
    gf4 = FiniteField(2, 2)
    ident, nil = LinearMap.identity(gf4), LinearMap.zero(gf4)
    chain = Frame(gf4, [[ident, ident, nil], [nil, ident, ident], [nil, nil, ident]], [nil] * 3)
    assert chain.reach == (3, 5)
    frames = (conv_gf5_2, frob_gf9_2, quat_inner_2, nondiag_gf8_2, nondiag_gf8_2_inner, chain)
    for seed, frame in enumerate(frames):
        rng = random.Random(seed)
        for _ in range(30):
            size = rng.randint(0, 6)
            terms = [tuple(rng.randint(1, frame.n) for _ in range(rng.randint(0, 24)))
                     for _ in range(size)]
            assert freering._divide_words(frame, terms) == divide_words_reference(frame, terms)


def test_mul_monomial_constant_refuses_a_push_past_the_limit(nondiag_gf8_2, monkeypatch):
    # branching 2 over 30 letters predicts 2^30 words: refused before any
    # push list is read or built
    def no_push(*args):
        raise AssertionError("pushed past the budget")

    monkeypatch.setattr(freering, "_push_list", no_push)
    with pytest.raises(InvalidInput, match=str(PUSH_TERM_LIMIT)):
        mul_monomial_constant(nondiag_gf8_2, (1, 2) * 15, nondiag_gf8_2.ring.gen())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_monomials_below_counts_the_monomials(n):
    for d in range(-1, 7):
        assert count_monomials_below(n, d) == len(monomials_below(n, d))


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
    # evaluation starts from, never once per ring value normalized or
    # summed: per map image, product added into an open sum, or sum closed
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
    mul_add, wrap_sums = rings._quat_mul_add, rings._quat_wrap_sums

    def counted_new(cls):
        made[0] += cls is rings.Quaternion
        return new(cls)

    def counted_init(self, *args):
        made[0] += 1
        init(self, *args)

    def counted_value(*parts):
        ops[0] += 1
        return value(*parts)

    def counted_mul_add(acc, a, b):
        ops[0] += 1
        return mul_add(acc, a, b)

    def counted_wrap_sums(ring, pairs):
        pairs = list(pairs)
        ops[0] += len(pairs)
        return wrap_sums(ring, pairs)

    monkeypatch.setattr(rings, "_new", counted_new)
    monkeypatch.setattr(rings.Quaternion, "__init__", counted_init)
    for module in (rings, frames):
        monkeypatch.setattr(module, "_quat_value", counted_value)
    monkeypatch.setattr(rings.QuaternionRing, "mul_add_val", staticmethod(counted_mul_add))
    monkeypatch.setattr(rings.QuaternionRing, "wrap_sums", counted_wrap_sums)

    def run(fn, *args):
        made[0] = ops[0] = 0
        return fn(*args)

    # a push is one open image per output word, with no gcd of its own,
    # each added into an open sum, and each sum is closed once, so the
    # products and the division make at least two ring values per element
    # they build
    P = run(mul, F, G)
    assert made[0] == len(P.terms) and ops[0] >= 2 * made[0]
    res = run(divide, F, point)
    assert made[0] == sum(len(q.terms) for q in res.quotients) + 1 and ops[0] >= 2 * made[0]
    run(evaluate, F, point)
    assert made[0] <= 2 and ops[0] > 10
