"""The point maps of Frame.point_map against the uncompiled step.

phi_a(v) = (sum_j sigma_ij(v) a_j + delta_i(v))_i.  Over GF(p^k) with
q <= 16 it is one table per point; for larger q no point compiles
anything: phi applies each distinct nonzero sigma_ij and delta_i through
the map's own compiled form (chunk tables of its argument's digits, or
scaled columns for p > 16, built when the map is first applied) and
combines the images with the point's codes.  Over the quaternions it is
one 4 x 4 integer matrix per variable.  Every frame shape is covered:
k = 1 (GF(5)), odd p (GF(9), and GF(27), whose digits fill two chunks),
both non-diagonal GF(8) frames, with and without delta, the quaternion
inner frame, GF(2^8) and GF(2^16) (two and four chunks, the latter with
an inner delta), the non-diagonal GF(2^8) frame with an inner delta,
whose point maps apply six distinct maps, and GF(17^2) (p > 16, each
digit scaling its column).  The finite-field maps are also checked
against the per-point compile they replaced (oracles).
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
)
from skewpoly import frames as frames_module
from skewpoly.frames import _POINT_MEMO_LIMIT, Frame, frame_from_json
from skewpoly.rings import ring_from_json
from conftest import nondiagonal_frame, random_nonzero_poly, random_point
from oracles import (
    conjugate_reference,
    evaluate_reference,
    extend_reference,
    field_point_map_reference,
    fundamental_table_reference,
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


def test_point_maps_compile_no_table_per_point(frob_gf65536_2, monkeypatch):
    # the one Frobenius map of the frame compiles its four chunk tables when
    # first applied; 200 points then compile none
    fld, span_codes, calls = frob_gf65536_2.ring, frames_module._span_codes, []

    def counted(*args):
        calls.append(args)
        return span_codes(*args)

    monkeypatch.setattr(frames_module, "_span_codes", counted)
    frob, zero = LinearMap.frobenius(fld), LinearMap.zero(fld)
    frame = Frame(fld, [[frob, zero], [zero, frob]], [zero, zero])
    rng = random.Random("no-table-per-point")
    points = [random_point(frame, rng) for _ in range(200)]
    assert not calls
    for a in points:
        phi = frame.point_map_val(a)
        assert len(calls) == (0 if a is points[0] else 4)
        v = fld.random_element(rng)
        got = phi(v.val)
        assert len(calls) == 4
        # the shared frame holds equal maps, compiled in its validation
        assert got == tuple(map(fld.unwrap, extend_reference(frob_gf65536_2, v, a))), (a, v)
    assert len(calls) == 4 and len(frame._point_cache) == 200


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
