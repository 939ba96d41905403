"""The point maps of Frame.point_map against the uncompiled step.

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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    FiniteField,
    LinearMap,
    conjugate,
    conventional_frame,
    evaluate,
    frobenius_frame,
    fundamental_table,
    mul,
)
from skewpoly.frames import _POINT_MEMO_LIMIT, Frame, frame_from_json
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


def _points(frame, rng, count=4):
    zero = tuple(frame.ring.zero() for _ in range(frame.n))
    basis = frame.ring.additive_basis()
    return [zero, (basis[-1],) * frame.n] + [random_point(frame, rng) for _ in range(count)]


@pytest.mark.parametrize("name", FRAMES)
def test_point_map_matches_the_uncompiled_step(name, frames):
    frame = frames[name]
    rng = random.Random(f"point-map-{name}")
    for a in _points(frame, rng):
        phi = frame.point_map(a)
        assert frame.point_map_val(a) is frame.point_map_val(a)
        for v in _inputs(frame.ring, rng):
            assert phi(v) == tuple(extend_reference(frame, v, a)), (a, v)


@pytest.mark.parametrize("name", FIELD_FRAMES)
def test_field_point_map_matches_the_per_point_compile(name, frames):
    frame = frames[name]
    ring = frame.ring
    rng = random.Random(f"per-point-{name}")
    for a in _points(frame, rng):
        phi, ref = frame.point_map_val(a), field_point_map_reference(frame, a)
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
        phi = frame.point_map_val(a)
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
    assert frame.point_map(a)(v) == tuple(extend_reference(frame, v, a))


def test_quaternion_point_maps_match_their_catalog_trees(quat, quat_inner_2):
    # the compiled T_i against the same sums built as QuatMap trees, on the
    # additive basis (which fixes a Q-linear map) and on seeded values
    rng = random.Random("catalog-trees")
    for a in _points(quat_inner_2, rng, count=20):
        phi, trees = quat_inner_2.point_map_val(a), quat_point_map_reference(quat_inner_2, a)
        for v in _inputs(quat, rng, count=4):
            v = quat.unwrap(v)
            assert phi(v) == tuple(t.apply_val(v) for t in trees), (a, v)


def test_point_cache_is_bounded(quat):
    frame = conventional_frame(quat, 2)
    points = [(quat(k, 1, 0, 0), quat.j()) for k in range(_POINT_MEMO_LIMIT + 10)]
    for a in points:
        frame.point_map(a)
        assert len(frame._point_cache) <= _POINT_MEMO_LIMIT
    v = quat(1, 2, 3, 4)
    for a in points[:3] + points[-3:]:
        assert frame.point_map(a)(v) == tuple(extend_reference(frame, v, a))
