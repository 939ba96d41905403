"""Frame construction, validation and application."""

import random

import pytest
from hypothesis import given, settings

from skewpoly import (
    FiniteField,
    InvalidFrame,
    LinearMap,
    QuaternionRing,
    conventional_frame,
    diagonal_frame,
    frame_from_json,
    frobenius_frame,
    inner_frame,
    validate_frame,
)
from skewpoly.frames import _MEMO_LIMIT, Frame, QuatMap, block_frame
from oracles import (
    frac_parts,
    frame_laws_hold_all_pairs,
    matrix_apply_reference,
    quat_map_reference,
    value_parts,
)
from conftest import quaternion_values
from test_acceptance import acceptance_frames


def test_conventional_frame_valid(gf5):
    f = conventional_frame(gf5, 2)
    assert validate_frame(f).valid
    a = gf5(3)
    sig = f.sigma_at(a)
    assert sig[0][0] == a and sig[1][1] == a
    assert sig[0][1].is_zero() and sig[1][0].is_zero()
    assert all(d.is_zero() for d in f.delta_at(a))


def test_frobenius_frame_exhaustive_validation(gf4, gf9):
    # the laws hold on every pair, not only on the basis pairs the validator checks
    for fld, frame in ((gf4, frobenius_frame(gf4, 2)), (gf9, frobenius_frame(gf9, 2))):
        report = validate_frame(frame)
        assert report.valid, report.summary()
        for a in fld.elements():
            for b in fld.elements():
                sa, sb, sab = (frame.sigma_at(x) for x in (a, b, a * b))
                assert sab[0][0] == sa[0][0] * sb[0][0]


def test_frobenius_application(gf4):
    f = frobenius_frame(gf4, 2)
    w = gf4.gen()
    sig = f.sigma_at(w)
    assert sig[0][0] == w * w and sig[1][1] == w * w


def test_delta_vanishes_at_zero_and_one(gf4, gf9, quat_inner_2):
    frames = [frobenius_frame(gf4, 2), frobenius_frame(gf9, 1), quat_inner_2]
    for f in frames:
        assert all(d.is_zero() for d in f.delta_at(f.ring.zero()))
        assert all(d.is_zero() for d in f.delta_at(f.ring.one()))


def test_invalid_unit_not_preserved(gf4):
    # sigma sending 1 to 0 cannot be a matrix morphism
    bad = LinearMap.zero(gf4)
    with pytest.raises(InvalidFrame) as exc:
        diagonal_frame(gf4, [bad])
    assert "unit" in str(exc.value)


def test_invalid_shifted_frobenius(gf4):
    # a -> a^2 + 1 is not additive-multiplicative
    shift = LinearMap.from_images(gf4, [b ** 2 + gf4.one() for b in (gf4(1), gf4.gen())])
    with pytest.raises(InvalidFrame):
        diagonal_frame(gf4, [shift])


def test_invalid_frame_report_carries_witness(gf4):
    cube = LinearMap.from_images(gf4, [gf4(1) ** 3, gf4.gen() ** 3])
    # a -> a^3 is additive on the basis but not multiplicative on GF(4)
    from skewpoly.frames import Frame

    f = Frame(gf4, [[cube]], [LinearMap.zero(gf4)])
    report = validate_frame(f)
    assert not report.valid
    law, a, b = report.failures[0]
    assert "sigma" in law
    # the witness pair really does violate the law
    assert f.sigma_at(a * b)[0][0] != f.sigma_at(a)[0][0] * f.sigma_at(b)[0][0]


def test_inner_frame_zero_beta_gives_zero_delta(gf9):
    f0 = frobenius_frame(gf9, 2)
    f = inner_frame(gf9, f0.sigma, (gf9.zero(), gf9.zero()))
    a = gf9.gen()
    assert all(d.is_zero() for d in f.delta_at(a))


def test_inner_frame_commutative_identity_sigma_gives_zero_delta(gf5):
    f0 = conventional_frame(gf5, 2)
    f = inner_frame(gf5, f0.sigma, (gf5(1), gf5(2)))
    assert all(d.is_zero() for d in f.delta_at(gf5(3)))


def test_inner_frame_quaternion_example(quat):
    f0 = conventional_frame(quat, 1)
    f = inner_frame(quat, f0.sigma, (quat.i(),))
    j = quat.j()
    # delta(j) = j i - i j = -2k
    assert f.delta_at(j)[0] == quat(0, 0, 0, -2)


def test_inner_frame_validates(gf4, gf9, quat_inner_2, rng):
    f0 = frobenius_frame(gf4, 2)
    f = inner_frame(gf4, f0.sigma, (gf4.gen(), gf4(1)))
    assert validate_frame(f).valid
    assert validate_frame(quat_inner_2).valid


def test_frame_laws_hold_on_samples(gf4, gf9, quat_inner_2, rng):
    frames = [frobenius_frame(gf4, 2), frobenius_frame(gf9, 2), quat_inner_2]
    for f in frames:
        ring = f.ring
        for _ in range(60):
            if ring.is_finite:
                a, b = ring.random_element(rng), ring.random_element(rng)
            else:
                a, b = ring.random_element(rng, 3), ring.random_element(rng, 3)
            sa, sb, sab = f.sigma_at(a), f.sigma_at(b), f.sigma_at(a * b)
            for i in range(f.n):
                for j in range(f.n):
                    acc = ring.zero()
                    for k in range(f.n):
                        acc = acc + sa[i][k] * sb[k][j]
                    assert sab[i][j] == acc
            da, db, dab = f.delta_at(a), f.delta_at(b), f.delta_at(a * b)
            for i in range(f.n):
                acc = da[i] * b
                for j in range(f.n):
                    acc = acc + sa[i][j] * db[j]
                assert dab[i] == acc


def test_additive_map_application_matches_matrix(gf9):
    fr = LinearMap.frobenius(gf9)
    for a in gf9.elements():
        assert fr.apply(a) == a ** 3


def test_quat_map_catalog(quat):
    u = quat(1, 1, 0, 0)
    inner = QuatMap.inner_automorphism(quat, u)
    a = quat.j()
    assert inner.apply(a) == u * a * u.inv()
    conj = QuatMap(quat, "conj")
    assert conj.apply(quat(1, 2, 3, 4)) == quat(1, -2, -3, -4)
    s = QuatMap(quat, "sum", maps=(QuatMap(quat, "lmul", quat.i()), conj))
    assert s.apply(a) == quat.i() * a + a.conjugate()


def test_block_frame_validates(gf4):
    f1 = frobenius_frame(gf4, 1)
    f2 = conventional_frame(gf4, 1)
    joined = block_frame(f1, f2)
    assert joined.n == 2
    assert validate_frame(joined).valid
    w = gf4.gen()
    sig = joined.sigma_at(w)
    assert sig[0][0] == w * w  # frobenius block
    assert sig[1][1] == w      # conventional block
    assert sig[0][1].is_zero() and sig[1][0].is_zero()


def test_frame_json_round_trip(gf9, quat_inner_2):
    for f in (frobenius_frame(gf9, 2), quat_inner_2):
        obj = f.to_json()
        again = frame_from_json(f.ring, obj)
        for a in ([e for e in gf9.elements()][:5] if f.ring.is_finite else
                  [f.ring.one(), f.ring.i(), f.ring(1, 2, 3, 4)]):
            assert again.sigma_at(a) == f.sigma_at(a)
            assert again.delta_at(a) == f.delta_at(a)


def test_frame_json_rejects_invalid(gf4):
    f = frobenius_frame(gf4, 1)
    obj = f.to_json()
    obj["sigma"][0][0]["matrix"] = [[0, 1], [1, 1]]  # not a morphism
    with pytest.raises(InvalidFrame):
        frame_from_json(gf4, obj)


def _catalog_maps(quat):
    """Every catalog op, nested: the maps the compiled form must reproduce."""
    u = quat(1, 1, 0, 0)
    conj = QuatMap(quat, "conj")
    lm = QuatMap(quat, "lmul", quat("1/2", -1, "2/3", 3))
    rm = QuatMap(quat, "rmul", quat(0, "-5/4", 1, "1/3"))
    inner = QuatMap.inner_automorphism(quat, u)
    return [
        QuatMap.identity(quat), QuatMap.zero(quat), conj, lm, rm, inner,
        QuatMap(quat, "sum", maps=(lm, conj, rm)),
        QuatMap(quat, "compose", maps=(rm, conj, lm)),
        QuatMap(quat, "compose", maps=(QuatMap(quat, "sum", maps=(inner, lm)), conj, inner)),
        QuatMap(quat, "sum", maps=(lm, QuatMap(quat, "lmul", -quat("1/2", -1, "2/3", 3)))),
    ]


def _quat_frames(quat, quat_inner_2):
    qframe = [f for name, f in acceptance_frames() if name.startswith("quaternion")]
    example = inner_frame(quat, conventional_frame(quat, 1).sigma, (quat.i(),))
    return [quat_inner_2, example] + qframe


def test_compiled_quat_maps_match_interpreted_catalog(quat, quat_inner_2):
    rng = random.Random(0x0AC1E)
    samples = [quat.random_element(rng, h) for h in (1, 2, 4, 9) for _ in range(40)]
    samples += [quat.zero(), quat.one(), quat.i(), quat.j(), quat.k(), quat("1/2")]
    maps = _catalog_maps(quat)
    for f in _quat_frames(quat, quat_inner_2):
        maps += [m for row in f.sigma for m in row] + list(f.delta)
    for m in maps:
        for a in samples:
            assert frac_parts(m.apply(a)) == quat_map_reference(m, frac_parts(a)), (m, a)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(quaternion_values)
def test_quat_map_values_match_interpreted_catalog_in_normal_form(v):
    # value_parts checks the normal form of each image: zero is the int 0
    quat = QuaternionRing()
    ref = value_parts(v)
    for m in _catalog_maps(quat):
        assert value_parts(m.apply_val(v)) == quat_map_reference(m, ref), m


def test_quat_frame_application_matches_interpreted_catalog(quat, quat_inner_2):
    rng = random.Random(0x5A3)
    for f in _quat_frames(quat, quat_inner_2):
        for _ in range(60):
            a = quat.random_element(rng, 3)
            ref = frac_parts(a)
            sig, dlt = f.sigma_at(a), f.delta_at(a)
            for i in range(f.n):
                assert frac_parts(dlt[i]) == quat_map_reference(f.delta[i], ref)
                for j in range(f.n):
                    assert frac_parts(sig[i][j]) == quat_map_reference(f.sigma[i][j], ref)


def test_compiled_quat_maps_are_normal(quat):
    from math import gcd

    for m in _catalog_maps(quat):
        assert m.den > 0 and gcd(m.den, *m.mat) == 1
    assert QuatMap(quat, "conj").mat == (1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1)
    # a sum that cancels compiles to the zero matrix
    assert _catalog_maps(quat)[-1].is_zero_map()


def test_memos_stay_bounded(quat, quat_inner_2):
    f = Frame(quat, quat_inner_2.sigma, quat_inner_2.delta)
    fresh = Frame(quat, f.sigma, f.delta)
    els = [quat(k, 1, 0, 0) for k in range(_MEMO_LIMIT + 10)]
    for a in els:
        f.sigma_at(a)
        f.delta_at(a)
        assert len(f._sig_cache) <= _MEMO_LIMIT and len(f._del_cache) <= _MEMO_LIMIT
    # values after the memo was emptied match a frame whose memo never was
    for a in els[-5:] + els[:5]:
        assert f.sigma_at(a) == fresh.sigma_at(a) and f.delta_at(a) == fresh.delta_at(a)


def _random_matrix_map(fld, rng):
    return LinearMap(fld, [[rng.randrange(fld.p) for _ in range(fld.k)] for _ in range(fld.k)])


@pytest.mark.parametrize("p,k", [(3, 2), (2, 8), (2, 16)])
def test_linear_map_application_matches_matrix_reference(p, k):
    fld = FiniteField(p, k)
    rng = random.Random(p + k)
    maps = [LinearMap.identity(fld), LinearMap.zero(fld), LinearMap.frobenius(fld)]
    maps += [_random_matrix_map(fld, rng) for _ in range(20)]
    samples = [0, 1, fld.q - 1] + [fld.p ** j for j in range(k)]
    samples += [rng.randrange(fld.q) for _ in range(100)]
    for m in maps:
        for v in samples:
            assert m.apply(fld(v)).val == matrix_apply_reference(m, v)


def _random_frames(fld, rng):
    """Valid frames of one and two variables (Frobenius twists, a conjugated
    pair of twists, inner derivations) and each of them with one matrix
    entry of one map changed, which is almost always invalid."""
    frob = [LinearMap.frobenius(fld, e) for e in range(fld.k)]
    valid = [conventional_frame(fld, 1), Frame(fld, [[rng.choice(frob)]], [LinearMap.zero(fld)])]
    while True:
        c = [[fld.random_element(rng) for _ in range(2)] for _ in range(2)]
        det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
        if det:
            break
    inv = [[c[1][1] * det.inv(), -c[0][1] * det.inv()], [-c[1][0] * det.inv(), c[0][0] * det.inv()]]
    twists = (rng.choice(frob), rng.choice(frob))
    # a -> C diag(twist_1(a), twist_2(a)) C^-1 is a matrix morphism
    conj = [[LinearMap.from_function(
        fld, lambda a, i=i, j=j: sum((c[i][m] * twists[m].apply(a) * inv[m][j] for m in range(2)),
                                     fld.zero()))
        for j in range(2)] for i in range(2)]
    beta = (fld.random_element(rng), fld.random_element(rng))
    valid += [inner_frame(fld, conj, beta),
              inner_frame(fld, [[rng.choice(frob)]], (fld.random_nonzero(rng),))]
    out = list(valid)
    for f in valid:
        maps = [m for row in f.sigma for m in row] + list(f.delta)
        pick = rng.randrange(len(maps))
        mat = [list(row) for row in maps[pick].mat]
        r, col = rng.randrange(fld.k), rng.randrange(fld.k)
        mat[r][col] += rng.randrange(1, fld.p)
        maps[pick] = LinearMap(fld, mat)
        n = f.n
        out.append(Frame(fld, [maps[i * n:(i + 1) * n] for i in range(n)], maps[n * n:]))
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_basis_pair_validation_matches_all_pairs_oracle(p, k):
    fld = FiniteField(p, k)
    rng = random.Random(10 * p + k)
    verdicts = []
    for f in _random_frames(fld, rng) + _random_frames(fld, rng):
        want = frame_laws_hold_all_pairs(f)
        assert validate_frame(f).valid == want, f.to_json()
        verdicts.append(want)
    assert True in verdicts and False in verdicts
