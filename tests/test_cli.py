"""End-to-end CLI tests: verbs, wire formats, exit codes, determinism."""

import io
import json
import pathlib
import random

import pytest

from skewpoly import (
    FiniteField,
    QuaternionRing,
    conventional_frame,
    frobenius_frame,
    fundamental,
    point_from_json,
)
from skewpoly.cli import run

DATA = pathlib.Path(__file__).parent / "data"


def invoke(argv, job=None):
    stdin = io.StringIO(json.dumps(job) if isinstance(job, dict) else (job or ""))
    stdout = io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout)
    text = stdout.getvalue()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    return code, payload, text


def gf5_job(**extra):
    gf5 = FiniteField(5)
    frame = conventional_frame(gf5, 2)
    job = {"ring": gf5.spec_to_json(), "frame": frame.to_json()}
    job.update(extra)
    return job


def gf4_frob_job(n=1, **extra):
    gf4 = FiniteField(2, 2)
    frame = frobenius_frame(gf4, n)
    job = {"ring": gf4.spec_to_json(), "frame": frame.to_json()}
    job.update(extra)
    return job


def test_eval_verb():
    job = gf5_job(f=[{"monomial": [1, 2], "coeff": 1}], point=[2, 3])
    code, out, _ = invoke(["eval"], job)
    assert code == 0
    assert out == {"value": 1}


def test_mul_verb():
    job = gf4_frob_job(
        f=[{"monomial": [1], "coeff": [1, 0]}],
        g=[{"monomial": [1], "coeff": [0, 1]}],
    )
    code, out, _ = invoke(["mul"], job)
    assert code == 0
    # x * (w x) = w^2 x x
    assert out == {"product": [{"monomial": [1, 1], "coeff": [1, 1]}]}


def test_divide_verb():
    job = gf5_job(f=[{"monomial": [1, 2], "coeff": 1}], point=[2, 3])
    code, out, _ = invoke(["divide"], job)
    assert code == 0
    assert out["remainder"] == 1
    assert len(out["quotients"]) == 2


def test_norm_verb():
    job = gf4_frob_job(monomial=[1, 1], point=[[0, 1]])
    code, out, _ = invoke(["norm"], job)
    assert code == 0
    assert out == {"value": [1, 0]}  # sigma(w) w = w^3 = 1


def test_conjugate_verb():
    ring = QuaternionRing()
    frame = conventional_frame(ring, 1)
    job = {
        "ring": ring.spec_to_json(),
        "frame": frame.to_json(),
        "point": [ring.element_to_json(ring.i())],
        "c": ring.element_to_json(ring.j()),
    }
    code, out, _ = invoke(["conjugate"], job)
    assert code == 0
    assert out == {"conjugate": [["0/1", "-1/1", "0/1", "0/1"]]}


def test_vandermonde_and_rank_verbs():
    gf2 = FiniteField(2)
    frame = conventional_frame(gf2, 2)
    pts = [[a, b] for a in range(2) for b in range(2)]
    base = {"ring": gf2.spec_to_json(), "frame": frame.to_json(), "points": pts}
    code, out, _ = invoke(["vandermonde"], dict(base, degree=4))
    assert code == 0
    assert len(out["matrix"]) == 15 and out["rank"] == 4
    code, out, _ = invoke(["rank"], base)
    assert code == 0 and out == {"rank": 4}


def test_pbasis_closure_two_sided_verbs():
    job = gf4_frob_job(points=[[[1, 0]], [[0, 1]], [[1, 1]]])
    code, out, _ = invoke(["pbasis"], job)
    assert code == 0
    assert out["rank"] == 2
    assert out["basis"] == [[[1, 0]], [[0, 1]]]
    assert out["discarded"] == [[[1, 1]]]

    code, out, _ = invoke(["closure"], gf4_frob_job(points=[[[1, 0]], [[0, 1]]]))
    assert code == 0
    assert sorted(map(str, out["closure"])) == sorted(map(str, [[[1, 0]], [[0, 1]], [[1, 1]]]))

    code, out, _ = invoke(["two-sided"], gf4_frob_job(points=[[[1, 0]]]))
    assert code == 0 and out == {"two_sided": False}


def test_matroid_check_verb():
    gf2 = FiniteField(2)
    frame = conventional_frame(gf2, 2)
    job = {
        "ring": gf2.spec_to_json(),
        "frame": frame.to_json(),
        "points": [[a, b] for a in range(2) for b in range(2)],
    }
    code, out, _ = invoke(["matroid-check"], job)
    assert code == 0
    assert out["ok"] and out["rank"] == 4 and out["independent_count"] == 16


def test_interpolate_both_methods():
    gf7 = FiniteField(7)
    frame = conventional_frame(gf7, 1)
    base = {
        "ring": gf7.spec_to_json(),
        "frame": frame.to_json(),
        "points": [[1], [3], [5]],
        "values": [2, 0, 6],
    }
    for method in ("newton", "vandermonde"):
        code, out, _ = invoke(["interpolate", "--method", method], base)
        assert code == 0
        # substitute the returned polynomial back through the eval verb
        for pt, val in zip(base["points"], base["values"]):
            code2, out2, _ = invoke(
                ["eval"],
                {
                    "ring": base["ring"],
                    "frame": base["frame"],
                    "f": out["polynomial"],
                    "point": pt,
                },
            )
            assert code2 == 0 and out2["value"] == val


def test_dual_basis_and_reduce_verbs():
    job = gf4_frob_job(points=[[[1, 0]], [[0, 1]]])
    code, out, _ = invoke(["dual-basis"], job)
    assert code == 0
    assert len(out["duals"]) == 2

    job = gf4_frob_job(
        points=[[[1, 0]], [[0, 1]]],
        f=[{"monomial": [1, 1], "coeff": [1, 0]}],
    )
    code, out, _ = invoke(["reduce"], job)
    assert code == 0
    assert len(out["coordinates"]) == 2


def test_validate_frame_verb_accepts_and_rejects():
    code, out, _ = invoke(["validate-frame"], gf5_job())
    assert code == 0 and out == {"valid": True}

    bad = gf4_frob_job()
    bad["frame"]["sigma"][0][0]["matrix"] = [[0, 1], [1, 1]]
    code, out, _ = invoke(["validate-frame"], bad)
    assert code == 1
    assert out["error"] == "InvalidFrame"
    assert out["failures"]


def test_domain_error_exit_code():
    ring = QuaternionRing()
    frame = conventional_frame(ring, 1)
    job = {
        "ring": ring.spec_to_json(),
        "frame": frame.to_json(),
        "points": [[ring.element_to_json(ring.i())]],
    }
    code, out, _ = invoke(["closure"], job)
    assert code == 1
    assert out["error"] == "NotFinite"


def test_malformed_json_exit_code():
    code, out, _ = invoke(["eval"], "{not json")
    assert code == 2
    assert out["error"] == "MalformedInput"


def test_missing_field_exit_code():
    code, out, _ = invoke(["eval"], gf5_job())  # no f, no point
    assert code == 2
    assert out["error"] == "MalformedInput"


def test_outputs_are_byte_identical(tmp_path):
    job = gf5_job(f=[{"monomial": [1, 2], "coeff": 1}], point=[2, 3])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    _, _, first = invoke(["eval", "--job", str(path)])
    _, _, second = invoke(["eval", "--job", str(path)])
    assert first == second


def test_text_format_renders_polynomials():
    job = gf5_job(
        f=[{"monomial": [1], "coeff": 2}],
        g=[{"monomial": [2], "coeff": 3}],
    )
    code, out, _ = invoke(["mul", "--format", "text"], job)
    assert code == 0
    assert out == {"product": "1*x1.x2"}  # 2 * 3 = 6 = 1 over GF(5)


def test_output_round_trips_through_the_parser():
    job = gf4_frob_job(
        f=[{"monomial": [1], "coeff": [1, 1]}],
        g=[{"monomial": [1, 1], "coeff": [0, 1]}],
    )
    code, out, _ = invoke(["mul"], job)
    assert code == 0
    ring = FiniteField(2, 2)
    frame = frobenius_frame(ring, 1)
    from skewpoly import poly_from_json

    again = poly_from_json(frame, out["product"])
    assert again.to_json() == out["product"]


def test_selftest_verb():
    code, out, _ = invoke(["selftest"])
    assert code == 0
    assert out["failed"] == 0
    assert out["passed"] >= 10


def _one_error_line(text, code, want_code=2, want_error="MalformedInput"):
    lines = text.splitlines()
    assert code == want_code and len(lines) == 1 and text.endswith("\n")
    assert json.loads(lines[0])["error"] == want_error


def test_prime_field_spec_with_k_other_than_one_is_rejected():
    job = gf5_job(f=[{"monomial": [1], "coeff": 1}], point=[2, 3])
    job["ring"] = {"kind": "prime-field", "p": 5, "k": 3}
    code, _, text = invoke(["eval"], job)
    _one_error_line(text, code)
    for spec in ({"kind": "prime-field", "p": True},
                 {"kind": "extension-field", "p": 2, "k": True}):
        code, _, text = invoke(["eval"], dict(job, ring=spec))
        _one_error_line(text, code)


def test_boolean_elements_are_rejected():
    quat = QuaternionRing()
    qjob = {"ring": quat.spec_to_json(), "frame": conventional_frame(quat, 1).to_json(),
            "f": [{"monomial": [1], "coeff": ["1/1", "0/1", "0/1", "0/1"]}]}
    cases = [
        gf5_job(f=[{"monomial": [1], "coeff": 1}], point=[True, 3]),
        gf4_frob_job(f=[{"monomial": [1], "coeff": [1, 0]}], point=[[True, 0]]),
        dict(qjob, point=[[True, "0/1", "0/1", "0/1"]]),
    ]
    for job in cases:
        code, _, text = invoke(["eval"], job)
        _one_error_line(text, code)


def test_long_word_eval_answers_with_one_json_line():
    # 3000 letters: deeper than the default recursion limit
    gf9 = FiniteField(3, 2)
    frame = frobenius_frame(gf9, 2)
    rng = random.Random(3000)
    word = [rng.randint(1, 2) for _ in range(3000)]
    point = [[rng.randrange(3), rng.randrange(3)] for _ in range(2)]
    job = {"ring": gf9.spec_to_json(), "frame": frame.to_json(),
           "f": [{"monomial": word, "coeff": [1, 0]}], "point": point}
    code, out, text = invoke(["eval"], job)
    assert code == 0 and len(text.splitlines()) == 1
    want = fundamental(frame, tuple(word), point_from_json(frame, point))
    assert out == {"value": gf9.element_to_json(want)}


@pytest.mark.parametrize("argv, golden", [
    (["mul"], "quat_mul.out"),
    (["mul", "--format", "text"], "quat_mul_text.out"),
    (["eval"], "quat_eval.out"),
    (["pbasis"], "quat_pbasis.out"),
    (["conjugate"], "quat_conjugate.out"),
])
def test_quaternion_output_matches_golden_bytes(argv, golden):
    # the expected bytes come from quaternions with Fraction parts and an
    # interpreted map catalog: the output must not depend on the representation
    _, _, text = invoke(argv + ["--job", str(DATA / "quat_job.json")])
    assert text == (DATA / golden).read_text()
