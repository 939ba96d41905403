"""The point maps of Frame.point_table against the uncompiled step.

phi_a(v) = (sum_j sigma_ij(v) a_j + delta_i(v))_i.  Over GF(p^k) with
q <= 16 it is one table per point; for larger q no point builds a table:
each T_i is a linearized polynomial sum_e t_ie v^(p^e), its coefficients
summed from those of the frame's maps (each map linearized once, when its
terms are first read), and a step is one lookup per term.  Over the
quaternions it is one 4 x 4 integer matrix per variable.  Every frame
shape is covered: k = 1 (GF(5)), odd p (GF(9), GF(27)), both
non-diagonal GF(8) frames, with and without delta, the quaternion inner
frame, GF(2^8) and GF(2^16) (the latter with an inner delta), the
non-diagonal GF(2^8) frame with an inner delta, whose T_i have three
terms (v, v^2 and v^4), and GF(17^2) (p > 16).  The finite-field point
maps are also checked against the per-point chunk-table compile of an
earlier version (oracles), and every map of the frames and of their
push lists against the column reference sum_j d_j col_j.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    FiniteField,
    LinearMap,
    QuaternionRing,
    conjugate,
    conventional_frame,
    divide,
    evaluate,
    frobenius_frame,
    fundamental,
    fundamental_table,
    monomial,
    monomials_below,
    mul,
)
from skewpoly import frames as frames_module
from skewpoly.errors import InvalidInput, RingMismatch
from skewpoly.evaluation import _value_rows
from skewpoly.frames import (
    _POINT_MEMO_LIMIT,
    Frame,
    QuatMap,
    _quat_point_matrices,
    frame_from_json,
)
from skewpoly.rings import ring_from_json
from conftest import nondiagonal_frame, random_nonzero_poly, random_point
from oracles import (
    conjugate_reference,
    evaluate_reference,
    extend_reference,
    field_point_map_reference,
    fundamental_table_reference,
    linear_map_reference,
    quat_point_map_reference,
    quat_point_matrices_reference,
)

DATA = pathlib.Path(__file__).parent / "data"

FRAMES = ("conv_gf5_2", "frob_gf9_2", "frob_gf27_2", "nondiag_gf8_2", "nondiag_gf8_2_inner",
          "quat_inner_2", "frob_gf256_2", "inner_gf65536_2", "nondiag_gf256_2_inner",
          "frob_gf289_2")
FIELD_FRAMES = tuple(name for name in FRAMES if name != "quat_inner_2")


@pytest.fixture(scope="module")
def frob_gf27_2():
    return frobenius_frame(FiniteField(3, 3), 2)


@pytest.fixture(scope="module")
def inner_gf65536_2():
    job = json.loads((DATA / "gf65536_job.json").read_text())
    return frame_from_json(ring_from_json(job["ring"]), job["frame"])


@pytest.fixture(scope="module")
def nondiag_gf256_2_inner():
    # through JSON, so no two entries of sigma and delta are one object
    fld = FiniteField(2, 8)
    return frame_from_json(fld, nondiagonal_frame(fld, with_delta=True).to_json())


@pytest.fixture(scope="module")
def frob_gf289_2():
    return frobenius_frame(FiniteField(17, 2), 2)


@pytest.fixture(scope="module")
def frames(request):
    return {name: request.getfixturevalue(name) for name in FRAMES}


def _element(ring, rng):
    return ring.random_element(rng) if ring.is_finite else ring.random_element(rng, 3)


def _inputs(ring, rng, count=12):
    """Zero, every additive basis element and seeded values."""
    return [ring.zero()] + ring.additive_basis() + [_element(ring, rng) for _ in range(count)]


def _phi_val(frame, a):
    """phi_a on ring values: the map of the point's table."""
    return frame.point_table(tuple(map(frame.ring.unwrap, a))).phi


def _phi(frame, a):
    """phi_a on elements: _phi_val's map, unwrapping its argument and
    wrapping its images."""
    phi, unwrap, wrap = _phi_val(frame, a), frame.ring.unwrap, frame.ring.wrap
    return lambda v: tuple(map(wrap, phi(unwrap(v))))


def _points(frame, rng, count=4):
    zero = tuple(frame.ring.zero() for _ in range(frame.n))
    basis = frame.ring.additive_basis()
    return [zero, (basis[-1],) * frame.n] + [random_point(frame, rng) for _ in range(count)]


@pytest.mark.parametrize("name", FRAMES)
def test_point_map_matches_the_uncompiled_step(name, frames):
    frame = frames[name]
    rng = random.Random(f"point-map-{name}")
    for a in _points(frame, rng):
        phi = _phi(frame, a)
        assert _phi_val(frame, a) is _phi_val(frame, a)
        for v in _inputs(frame.ring, rng):
            assert phi(v) == tuple(extend_reference(frame, v, a)), (a, v)


@pytest.mark.parametrize("name", FIELD_FRAMES)
def test_field_point_map_matches_the_per_point_compile(name, frames):
    frame = frames[name]
    ring = frame.ring
    rng = random.Random(f"per-point-{name}")
    for a in _points(frame, rng):
        phi, ref = _phi_val(frame, a), field_point_map_reference(frame, a)
        for v in map(ring.unwrap, _inputs(ring, rng)):
            assert phi(v) == ref(v), (a, v)


@pytest.mark.parametrize("name", FIELD_FRAMES)
def test_frame_and_push_maps_match_the_linear_map_reference(name, frames):
    # every sigma_ij and delta_i, then every push-list map a few products made
    shared = frames[name]
    frame, fld = Frame(shared.ring, shared.sigma, shared.delta), shared.ring
    rng = random.Random(f"linearized-{name}")
    args = [v.val for v in _inputs(fld, rng, count=20)] + [1]
    for m in [m for row in frame.sigma for m in row] + list(frame.delta):
        for v in args:
            assert m.apply_val(v) == linear_map_reference(fld, m._cols, v), (m, v)
    for _ in range(3):
        mul(random_nonzero_poly(frame, rng, max_deg=5), random_nonzero_poly(frame, rng, max_deg=2))
    assert frame._push_maps
    for m in frame._push_maps.values():
        for v in args:
            assert m.apply(v) == linear_map_reference(fld, m.key, v), (m.key, v)


def test_point_maps_compile_no_table_per_point(frob_gf65536_2, monkeypatch):
    # each distinct map of the frame is linearized once, when the first point
    # map reads its terms; 200 points then linearize nothing more
    fld, linearize, calls = frob_gf65536_2.ring, LinearMap._linearize, []

    def counted(m):
        calls.append(m)
        return linearize(m)

    monkeypatch.setattr(LinearMap, "_linearize", counted)
    frob, zero = LinearMap.frobenius(fld), LinearMap.zero(fld)
    frame = Frame(fld, [[frob, zero], [zero, frob]], [zero, zero])
    rng = random.Random("no-table-per-point")
    points = [random_point(frame, rng) for _ in range(200)]
    assert not calls
    once = sorted([id(frob), id(zero)])
    for a in points:
        phi = _phi_val(frame, a)
        assert sorted(map(id, calls)) == once, a
        v = fld.random_element(rng)
        got = phi(v.val)
        assert len(calls) == 2
        # the shared frame holds equal maps, linearized in its validation
        assert got == tuple(map(fld.unwrap, extend_reference(frob_gf65536_2, v, a))), (a, v)
    assert len(frame._point_cache) == 200


@pytest.mark.parametrize("name", FRAMES)
def test_evaluation_paths_match_their_references(name, frames):
    frame = frames[name]
    rng = random.Random(f"paths-{name}")
    for a in _points(frame, rng, count=3):
        assert fundamental_table(frame, a, 4) == fundamental_table_reference(frame, a, 4)
        for _ in range(3):
            F = random_nonzero_poly(frame, rng, max_deg=4)
            assert evaluate(F, a) == evaluate_reference(F, a)
        for c in frame.ring.additive_basis() + [_element(frame.ring, rng) for _ in range(4)]:
            if not c.is_zero():
                assert conjugate(frame, a, c) == conjugate_reference(frame, a, c)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(name=st.sampled_from(FRAMES), seed=st.integers(0, 1 << 32))
def test_point_map_matches_the_uncompiled_step_on_drawn_values(frames, name, seed):
    frame = frames[name]
    rng = random.Random(seed)
    a = random_point(frame, rng, height=4)
    v = _element(frame.ring, rng)
    assert _phi(frame, a)(v) == tuple(extend_reference(frame, v, a))


def test_quaternion_point_maps_match_their_catalog_trees(quat, quat_inner_2):
    # the compiled T_i against the same sums built as QuatMap trees, on the
    # additive basis (which fixes a Q-linear map) and on seeded values
    rng = random.Random("catalog-trees")
    for a in _points(quat_inner_2, rng, count=20):
        phi, trees = _phi_val(quat_inner_2, a), quat_point_map_reference(quat_inner_2, a)
        for v in _inputs(quat, rng, count=4):
            v = quat.unwrap(v)
            assert phi(v) == tuple(t.apply_val(v) for t in trees), (a, v)


def test_point_cache_is_bounded(quat):
    frame = conventional_frame(quat, 2)
    points = [(quat(k, 1, 0, 0), quat.j()) for k in range(_POINT_MEMO_LIMIT + 10)]
    for a in points:
        _phi(frame, a)
        assert len(frame._point_cache) <= _POINT_MEMO_LIMIT
    v = quat(1, 2, 3, 4)
    for a in points[:3] + points[-3:]:
        assert _phi(frame, a)(v) == tuple(extend_reference(frame, v, a))


def test_quaternion_point_matrices_match_the_product_by_product_sums(quat, quat_inner_2):
    # each T_i summed on one denominator and normalized once, against the
    # normalized products summed with D_i, on the acceptance frame, the
    # conventional frame and a frame with conjugation, zero coordinates too
    half, third = Fraction(1, 2), Fraction(1, 3)
    delta = QuatMap(quat, "sum", maps=(QuatMap(quat, "lmul", quat(half, 1, 0, 0)),
                                       QuatMap(quat, "rmul", quat(-third, 0, half, 0))))
    conj = Frame(quat, [[QuatMap(quat, "conj")]], [delta])
    rng = random.Random("one-denominator")
    for frame in (quat_inner_2, conventional_frame(quat, 2), conj):
        for a in _points(frame, rng, count=40):
            got = _quat_point_matrices(frame, tuple(map(quat.unwrap, a)))
            assert got == quat_point_matrices_reference(frame, a), a


# ---------------------------------------------------------------------------
# The point tables: one cache of fundamental values per point
# ---------------------------------------------------------------------------

def _fresh(frame):
    """A frame of the same maps whose point cache starts empty."""
    return Frame(frame.ring, frame.sigma, frame.delta)


def _copy(ring, a):
    """An equal point built from fresh elements."""
    return tuple(ring.element_from_json(ring.element_to_json(x)) for x in a)


def _held(frame):
    """The values and the letters of indexed words the point cache holds."""
    return sum(len(t.vals) + sum(map(len, t.index)) for t in frame._point_cache.values())


def _check_walkers(frame, rng, points, rounds=3):
    # evaluate, fundamental, fundamental_table and _value_rows, interleaved,
    # each point also asked for as an equal point and as a list
    ring, n = frame.ring, frame.n
    words = monomials_below(n, 4)
    tables = {a: fundamental_table_reference(frame, a, 5) for a in points}
    for _ in range(rounds):
        for a in points:
            table = tables[a]
            for b in (a, _copy(ring, a), list(a)):
                F = random_nonzero_poly(frame, rng, max_deg=4)
                assert evaluate(F, b) == evaluate_reference(F, a) == divide(F, a).remainder, a
                w = rng.choice(words)
                assert fundamental(frame, w, b) == table[w], (a, w)
            assert fundamental_table(frame, list(a), 3) == {w: table[w] for w in
                                                             monomials_below(n, 3)}
        tails = monomials_below(n, rng.randint(1, 3))
        rows = _value_rows(frame, tails, points)
        assert set(rows) == {()} | {(i,) + w for w in tails for i in range(1, n + 1)}
        for w, row in rows.items():
            assert row == [ring.unwrap(tables[a][w]) for a in points], w


@pytest.mark.parametrize("name", FRAMES)
def test_point_tables_serve_every_walker(name, frames):
    frame = _fresh(frames[name])
    rng = random.Random(f"tables-{name}")
    points = _points(frame, rng, count=2)
    _check_walkers(frame, rng, points)
    assert all(frame._point_cache[tuple(map(frame.ring.unwrap, a))].index for a in points)


@pytest.mark.parametrize("name", FRAMES)
def test_point_tables_hold_their_bound(name, frames, monkeypatch):
    # a bound of 60 values and 3 points empties the cache many times over:
    # the answers hold across each emptying, and the cache never holds more
    monkeypatch.setattr(frames_module, "_POINT_VALUE_LIMIT", 60)
    monkeypatch.setattr(frames_module, "_POINT_MEMO_LIMIT", 3)
    frame = _fresh(frames[name])
    rng = random.Random(f"bound-{name}")
    points = _points(frame, rng, count=2)
    held, held_values = [], frames_module.Frame.held_values

    def counted(self, count):
        held_values(self, count)
        held.append((_held(self), self._point_held, len(self._point_cache)))

    monkeypatch.setattr(frames_module.Frame, "held_values", counted)
    _check_walkers(frame, rng, points, rounds=2)
    assert held and all(actual <= counter <= 60 and size <= 3 for actual, counter, size in held)
    assert any(counter < before for (_, before, _), (_, counter, _) in zip(held, held[1:]))
    # a word longer than the bound still evaluates, and is not held
    a = points[-1]
    word = tuple(rng.randint(1, frame.n) for _ in range(40))
    F = monomial(frame, word, frame.ring.one())
    assert evaluate(F, a) == fundamental(frame, word, a) == evaluate_reference(F, a)
    assert _held(frame) <= 60
    # fundamental walks a word that would pass the bound alone without holding it
    frame = _fresh(frame)
    assert fundamental(frame, word, a) == evaluate_reference(F, a)
    assert _held(frame) == 1


@pytest.mark.parametrize("name", FRAMES)
def test_held_points_are_still_checked(name, frames):
    frame = _fresh(frames[name])
    ring = frame.ring
    rng = random.Random(f"checked-{name}")
    a = random_point(frame, rng)
    F = random_nonzero_poly(frame, rng)
    value = evaluate(F, a)
    foreign = QuaternionRing() if ring.is_finite else FiniteField(5)
    # codes (field) or integers (quaternions) compare equal to elements
    plain = tuple(x.val if ring.is_finite else 1 for x in a)
    for call in (lambda b: evaluate(F, b), lambda b: fundamental(frame, (1,), b),
                 lambda b: fundamental_table(frame, b, 2), lambda b: conjugate(frame, b, ring.one())):
        call(a)
        with pytest.raises(InvalidInput):
            call(a + a[:1])
        with pytest.raises(InvalidInput):
            call(a[:1])
        with pytest.raises(RingMismatch):
            call((foreign.one(),) * frame.n)
        with pytest.raises(RingMismatch):
            call(plain)
    assert evaluate(F, _copy(ring, a)) == value
