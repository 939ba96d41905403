"""Division ring arithmetic: field axioms, quaternion axioms, JSON codecs."""

import random
from fractions import Fraction
from math import gcd
from itertools import product

import pytest
from hypothesis import given, settings

from skewpoly import (
    DivisionByZero,
    FiniteField,
    NotFinite,
    QuaternionRing,
    RingMismatch,
    ring_from_json,
)
from skewpoly.rings import _is_irreducible, _span_codes, default_modulus
from oracles import (
    default_modulus_reference,
    digit_add,
    digit_mul,
    digit_neg,
    frac_parts,
    frac_quat_mul,
    is_irreducible_reference,
    value_parts,
)
from conftest import quaternion_values

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (7, 2), (2, 6)]

# every prime power up to 64, as (p, k)
ALL_SMALL_ORDERS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6),
]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_pair_axioms_exhaustive(p, k):
    F = FiniteField(p, k)
    els = list(F.elements())
    zero, one = F.zero(), F.one()
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inv() == one
            assert a.inv() * a == one
    for a, b in product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a


def test_field_triple_axioms_exhaustive_all_orders():
    # associativity and distributivity on every triple of every field
    # of order at most 64 (about 1.4 million triples)
    for p, k in ALL_SMALL_ORDERS:
        F = FiniteField(p, k)
        els = list(F.elements())
        for a, b, c in product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_gf4_omega_cube(gf4):
    w = gf4.gen()
    assert w * (w * w) == gf4.one()
    assert w.inv() == w * w


def test_gf5_examples(gf5):
    assert gf5(2) + gf5(4) == gf5(1)
    assert gf5(3).inv() == gf5(2)


def test_enumerate_order_and_count():
    gf4 = FiniteField(2, 2)
    assert [e.val for e in gf4.elements()] == [0, 1, 2, 3]
    assert [e.coeffs() for e in gf4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    gf3 = FiniteField(3)
    assert [e.val for e in gf3.elements()] == [0, 1, 2]
    for p, k in SMALL_FIELDS:
        F = FiniteField(p, k)
        seen = list(F.elements())
        assert len(seen) == p ** k
        assert len(set(seen)) == p ** k


def test_default_moduli_are_irreducible_and_stable():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == (1, 0, 1)
    # same object from repeated construction
    assert FiniteField(2, 4).modulus == FiniteField(2, 4).modulus


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 4), (5, 3)])
def test_rabin_irreducibility_matches_trial_division(p, max_deg):
    for k in range(0, max_deg + 1):
        for code in range(p ** k):
            mod = [code // p ** i % p for i in range(k)] + [1]
            assert _is_irreducible(mod, p) == is_irreducible_reference(mod, p), mod
    # not monic: rejected by both
    assert not _is_irreducible([1, 1, 2], 3) and not is_irreducible_reference([1, 1, 2], 3)


# every (p, k) with k >= 2 and p^k <= 2^16 for p < 20, and larger primes
MODULUS_GRID = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19) for k in range(2, 17)
                if p ** k <= 1 << 16] + [(31, 3), (61, 2), (251, 2)]


def test_default_modulus_matches_trial_division():
    for p, k in MODULUS_GRID:
        assert default_modulus(p, k) == default_modulus_reference(p, k), (p, k)


def test_bad_constructions():
    with pytest.raises(ValueError):
        FiniteField(4)  # not prime
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # t^2+1 = (t+1)^2 over GF(2)
    with pytest.raises(ValueError):
        FiniteField(2, 17)  # above the 2^16 size cap


def test_mixed_ring_operands_raise(gf4, gf5):
    with pytest.raises(RingMismatch):
        gf4.one() + gf5.one()
    with pytest.raises(RingMismatch):
        gf5(2) * gf4.gen()


def test_inv_of_zero_raises(gf5, quat):
    with pytest.raises(DivisionByZero):
        gf5.zero().inv()
    with pytest.raises(DivisionByZero):
        quat.zero().inv()


def test_quaternion_relations(quat):
    i, j, k = quat.i(), quat.j(), quat.k()
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j
    assert i * i == -quat.one()


def test_quaternion_noncommutativity_witness(quat):
    assert quat.i() * quat.j() != quat.j() * quat.i()


def test_quaternion_inverse_conjugate_over_norm(quat):
    q = quat(1, 1, 0, 0)
    assert q.inv() == quat(Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert q * q.inv() == quat.one()


def test_quaternion_axioms_random(quat, rng):
    for _ in range(300):
        a = quat.random_element(rng)
        b = quat.random_element(rng)
        c = quat.random_element(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inv() == quat.one()
            assert a.inv() * a == quat.one()


def test_quaternion_components_stay_exact(quat):
    # repeated products of fractions must never lose exactness
    q = quat(Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11), 1)
    acc = quat.one()
    for _ in range(12):
        acc = acc * q
    assert acc * q.inv() ** 12 == quat.one()


def test_quaternions_are_not_enumerable(quat):
    with pytest.raises(NotFinite):
        list(quat.elements())


def test_large_field_without_tables():
    F = FiniteField(2, 13)  # q = 8192
    rng = random.Random(3)
    for _ in range(50):
        a, b = F.random_element(rng), F.random_element(rng)
        assert (a + b) - b == a
        if not a.is_zero():
            assert a * a.inv() == F.one()
    assert F.gen() ** (F.q - 1) == F.one()


def test_element_json_round_trip(gf5, gf9, quat):
    for ring, els in (
        (gf5, list(gf5.elements())),
        (gf9, list(gf9.elements())),
        (quat, [quat(Fraction(2, 3), -1, 0, Fraction(7, 5)), quat.zero()]),
    ):
        for a in els:
            assert ring.element_from_json(ring.element_to_json(a)) == a


def test_ring_spec_round_trip(gf5, gf9, quat):
    for ring in (gf5, gf9, quat):
        again = ring_from_json(ring.spec_to_json())
        assert again == ring


def test_prime_field_json_shape(gf5, gf9, quat):
    assert gf5.element_to_json(gf5(3)) == 3
    assert gf9.element_to_json(gf9.gen()) == [0, 1]
    assert quat.element_to_json(quat(1, Fraction(1, 2), 0, -2)) == [
        "1/1", "1/2", "0/1", "-2/1",
    ]


def _is_normal(a):
    return a.den > 0 and gcd(*a.num, a.den) == 1


def test_quaternion_products_match_fraction_reference(quat, rng):
    for _ in range(300):
        a, b = quat.random_element(rng, 6), quat.random_element(rng, 6)
        assert frac_parts(a * b) == frac_quat_mul(frac_parts(a), frac_parts(b))
        assert frac_parts(a + b) == tuple(u + v for u, v in zip(frac_parts(a), frac_parts(b)))
        assert frac_parts(a - b) == tuple(u - v for u, v in zip(frac_parts(a), frac_parts(b)))
        for c in (a * b, a + b, a - b, -a, a.conjugate()) + ((a.inv(),) if a else ()):
            assert _is_normal(c)


def test_quaternion_normal_form(quat):
    half = quat("1/2", 0, -1, 0)
    assert (half.num, half.den) == ((1, 0, -2, 0), 2)
    same = [
        quat(Fraction(2, 4), 0, Fraction(-6, 6), 0),
        quat(1, 0, -2, 0) * quat("1/2"),
        quat("3/4", "1/3", -1, 0) - quat("1/4", "1/3", 0, 0),
        (quat(1, 0, 2, 0) + quat(1, 0, 2, 0)).conjugate() * quat(0, 0, 0, "1/4") * quat(0, 0, 0, -1),
    ]
    for q in same:
        assert _is_normal(q)
        assert q == half and hash(q) == hash(half)
        assert quat.element_to_json(q) == ["1/2", "0/1", "-1/1", "0/1"]
    zero = quat("1/3", 0, 0, 0) - quat("2/6", 0, 0, 0)
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1) and zero == quat.zero()
    assert hash(zero) == hash(quat.zero())
    assert half.w == Fraction(1, 2) and half.y == -1 and half.x == 0
    assert quat(1, 1, "1/2", 0).norm() == Fraction(9, 4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(quaternion_values, quaternion_values)
def test_quaternion_value_arithmetic_matches_fractions_in_normal_form(a, b):
    # value_parts checks every result's normal form: zero is the int 0
    H = QuaternionRing()
    fa, fb = value_parts(a), value_parts(b)
    assert value_parts(H.add_val(a, b)) == tuple(u + v for u, v in zip(fa, fb))
    assert value_parts(H.sub_val(a, b)) == tuple(u - v for u, v in zip(fa, fb))
    assert value_parts(H.neg_val(a)) == tuple(-u for u in fa)
    assert value_parts(H.add_val(a, H.neg_val(a))) == (0, 0, 0, 0)
    assert value_parts(H.mul_val(a, b)) == frac_quat_mul(fa, fb)
    if a:
        assert frac_quat_mul(value_parts(H.inv_val(a)), fa) == (1, 0, 0, 0)
    else:
        with pytest.raises(DivisionByZero):
            H.inv_val(a)
    # unwrap and wrap carry a value unchanged
    assert H.unwrap(H.wrap(a)) is a and H.wrap(a) == H(*fa)


# the fields of the digit-arithmetic comparison: GF(2^8) under the default
# modulus (t of order 51) and under t^8 + t^4 + t^3 + t^2 + 1 (t primitive),
# the largest binary field, odd characteristic with many digits, few digits
# and one digit
REFERENCE_FIELDS = [
    (2, 8, None), (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)), (2, 16, None),
    (3, 7, None), (251, 2, None), (4093, 1, None),
]


@pytest.mark.parametrize("p,k,modulus", REFERENCE_FIELDS)
def test_table_arithmetic_matches_digit_arithmetic(p, k, modulus):
    F = FiniteField(p, k, modulus)
    rng = random.Random(p * 1000 + k)
    edge = [0, 1, p - 1, F.q - 1, p ** (k - 1)]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]
    for a, b in pairs:
        assert F.add_val(a, b) == digit_add(F, a, b)
        assert F.sub_val(a, b) == digit_add(F, a, digit_neg(F, b))
        assert F.neg_val(a) == digit_neg(F, a)
        assert F.mul_val(a, b) == digit_mul(F, a, b)
        if a:
            assert digit_mul(F, a, F.inv_val(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 1), (13, 1)])
def test_span_codes_match_digit_sums(p, k):
    # the code at index c is the sum of cols[j] taken digit_j(c) times, in
    # the field's digit arithmetic
    F = FiniteField(p, k)
    rng = random.Random(p * 100 + k)
    for width in range(k + 2):
        cols = [rng.randrange(F.q) for _ in range(width)]
        want = []
        for c in range(p ** width):
            acc = 0
            for col in cols:
                c, d = divmod(c, p)
                for _ in range(d):
                    acc = digit_add(F, acc, col)
            want.append(acc)
        assert _span_codes(cols, p, F.add_val) == want
