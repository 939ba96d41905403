import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from skewpoly import (
    FiniteField,
    QuaternionRing,
    conjugate,
    conventional_frame,
    frobenius_frame,
    from_terms,
    inner_frame,
    monomials_below,
)
from skewpoly.frames import LinearMap, QuatMap


@pytest.fixture(scope="session")
def gf2():
    return FiniteField(2)


@pytest.fixture(scope="session")
def gf3():
    return FiniteField(3)


@pytest.fixture(scope="session")
def gf4():
    return FiniteField(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return FiniteField(5)


@pytest.fixture(scope="session")
def gf7():
    return FiniteField(7)


@pytest.fixture(scope="session")
def gf9():
    return FiniteField(3, 2)


@pytest.fixture(scope="session")
def quat():
    return QuaternionRing()


@pytest.fixture(scope="session")
def conv_gf5_2(gf5):
    return conventional_frame(gf5, 2)


@pytest.fixture(scope="session")
def frob_gf4_2(gf4):
    return frobenius_frame(gf4, 2)


@pytest.fixture(scope="session")
def frob_gf9_2(gf9):
    return frobenius_frame(gf9, 2)


@pytest.fixture(scope="session")
def frob_gf256_2():
    return frobenius_frame(FiniteField(2, 8), 2)


@pytest.fixture(scope="session")
def frob_gf65536_2():
    return frobenius_frame(FiniteField(2, 16), 2)


@pytest.fixture(scope="session")
def quat_inner_2(quat):
    """Two-variable quaternion frame: inner automorphisms + inner derivation."""
    s1 = QuatMap.inner_automorphism(quat, quat(1, 1, 0, 0))
    s2 = QuatMap.inner_automorphism(quat, quat.j())
    zero = QuatMap.zero(quat)
    sigma = [[s1, zero], [zero, s2]]
    beta = (quat.i(), quat(0, 0, 1, 1))
    return inner_frame(quat, sigma, beta)


def _nondiagonal_gf8(with_delta):
    """sigma(a) = P diag(a^2, a^4) P^-1 over GF(8), so every sigma_ij is
    nonzero; delta is inner, delta(a) = sigma(a) beta - beta a, or zero."""
    gf8 = FiniteField(2, 3)
    w, one = gf8.gen(), gf8.one()
    P = ((one, w), (one, one + w))
    P_inv = ((one + w, w), (one, one))  # det P = 1 in characteristic 2
    twists = (lambda a: a ** 2, lambda a: a ** 4)

    def entry(i, j):
        def apply(a):
            return sum((P[i][k] * P_inv[k][j] * twists[k](a) for k in range(2)), gf8.zero())

        return LinearMap.from_function(gf8, apply)

    sigma = [[entry(i, j) for j in range(2)] for i in range(2)]
    beta = (w, w * w + one) if with_delta else (gf8.zero(), gf8.zero())
    return inner_frame(gf8, sigma, beta)


@pytest.fixture(scope="session")
def nondiag_gf8_2():
    return _nondiagonal_gf8(with_delta=False)


@pytest.fixture(scope="session")
def nondiag_gf8_2_inner():
    return _nondiagonal_gf8(with_delta=True)


def random_poly(frame, rng, max_deg=3, max_terms=4, height=2):
    """Random polynomial with at most max_terms terms of degree <= max_deg."""
    monos = monomials_below(frame.n, max_deg + 1)
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        if frame.ring.is_finite:
            c = frame.ring.random_element(rng)
        else:
            c = frame.ring.random_element(rng, height)
        pairs.append((rng.choice(monos), c))
    return from_terms(frame, pairs)


def random_nonzero_poly(frame, rng, max_deg=3, max_terms=4, height=2):
    while True:
        F = random_poly(frame, rng, max_deg, max_terms, height)
        if not F.is_zero():
            return F


def random_point(frame, rng, height=2):
    if frame.ring.is_finite:
        return tuple(frame.ring.random_element(rng) for _ in range(frame.n))
    return tuple(frame.ring.random_element(rng, height) for _ in range(frame.n))


# quaternion parts over a few denominators, so sums often share one; small
# numerators, so parts and whole values are often zero, and long ones
_quat_parts = st.builds(Fraction, st.integers(-4, 4) | st.integers(-10 ** 30, 10 ** 30),
                        st.sampled_from((1, 2, 3, 4, 6, 12)))
# ring values (see QuaternionRing) of random quaternions, zero among them
quaternion_values = st.tuples(_quat_parts, _quat_parts, _quat_parts, _quat_parts).map(
    lambda parts: QuaternionRing()(*parts).val) | st.just(0)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def seeded_set(frame, rng, size):
    """Distinct random points, most of them twisted conjugates of earlier
    ones: a conjugacy class is where closures grow past their generators
    (conjugates coincide in the conventional frames)."""
    pts = []
    while len(pts) < size:
        if pts and rng.random() < 0.75:
            p = conjugate(frame, rng.choice(pts), frame.ring.random_nonzero(rng))
        else:
            p = random_point(frame, rng)
        if p not in pts:
            pts.append(p)
    return tuple(pts)
