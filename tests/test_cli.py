"""End-to-end CLI tests: verbs, wire formats, exit codes, determinism."""

import io
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import (
    FiniteField,
    InvalidInput,
    QuaternionRing,
    all_points,
    conventional_frame,
    evaluate,
    find_p_basis,
    frobenius_frame,
    fundamental,
    monomials_below,
    point_from_json,
    point_to_json,
    poly_from_json,
)
from skewpoly import cli
from skewpoly.cli import run
from skewpoly.freering import PUSH_TERM_LIMIT
from skewpoly.rings import QUATERNION_PART_LIMIT, QUATERNION_RESULT_LIMIT

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


def test_vandermonde_interpolation_over_the_plane_basis_is_fast():
    # the 11-point basis of the Frobenius GF(4)^2 plane: its Vandermonde
    # has 2047 rows, and the solve must not carry a 2047 x 2047 transform
    gf4 = FiniteField(2, 2)
    frame = frobenius_frame(gf4, 2)
    plane = list(all_points(frame))
    basis = find_p_basis(frame, plane).basis
    assert len(basis) == 11
    job = gf4_frob_job(n=2, points=[point_to_json(frame, b) for b in basis],
                       values=[[i % 2, i // 2 % 2] for i in range(len(basis))])
    start = time.perf_counter()
    code, out, _ = invoke(["interpolate", "--method", "vandermonde"], job)
    assert code == 0
    assert time.perf_counter() - start < 5.0
    code2, newton, _ = invoke(["interpolate"], job)
    assert code2 == 0
    F = poly_from_json(frame, out["polynomial"])
    G = poly_from_json(frame, newton["polynomial"])
    # the basis spans the plane, so the two agree at every point of it
    for a in plane:
        assert evaluate(F, a) == evaluate(G, a)


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


def test_validate_frame_reports_the_basis_pairs_of_an_invalid_quaternion_frame():
    # conj is an anti-automorphism: sigma(ab) = sigma(a)sigma(b) fails on the
    # six pairs of distinct imaginary units, and the message joins the first five
    zero = ["0/1"] * 4
    job = {"ring": {"kind": "rational-quaternion"},
           "frame": {"n": 1, "sigma": [[{"op": "conj"}]], "delta": [{"op": "lmul", "c": zero}]}}
    code, out, _ = invoke(["validate-frame"], job)
    law = "sigma(ab) != sigma(a)sigma(b)"
    pairs = [("i", "j"), ("i", "k"), ("j", "i"), ("j", "k"), ("k", "i"), ("k", "j")]
    assert code == 1
    assert out == {
        "error": "InvalidFrame",
        "failures": [{"a": a, "b": b, "law": law} for a, b in pairs],
        "message": "; ".join(f"{law} at a={a}, b={b}" for a, b in pairs[:5]),
    }


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


def test_two_sided_answers_over_the_quaternions():
    ring = QuaternionRing()
    i, j = (ring.element_to_json(x) for x in (ring.i(), ring.j()))
    base = {"ring": ring.spec_to_json(), "frame": conventional_frame(ring, 1).to_json()}
    # i^j = -i escapes the closure of {i}; the closure of {i, j} is the class of i
    for points, want in (([[i]], False), ([[i], [j]], True)):
        code, out, _ = invoke(["two-sided"], dict(base, points=points))
        assert code == 0 and out == {"two_sided": want}


@pytest.mark.parametrize("verb, want", [
    ("closure", '{"closure":[[[0,1,0,0,0,1,1,0],[0,1,1,0,1,0,0,0]],'
                '[[0,0,1,0,1,1,1,0],[1,0,1,1,1,1,0,1]],[[0,0,0,0,0,0,1,1],[0,0,0,0,0,0,1,0]]]}\n'),
    ("two-sided", '{"two_sided":false}\n'),
])
def test_gf256_closure_and_two_sidedness_answer_at_once(verb, want):
    # three points of the Frobenius GF(2^8)^2 plane (65536 points): the
    # expected bytes come from testing the border relations at every point
    start = time.perf_counter()
    _, _, text = invoke([verb, "--job", str(DATA / "gf256_job.json")])
    assert time.perf_counter() - start < 0.5
    assert text == want


def test_malformed_json_exit_code():
    code, out, _ = invoke(["eval"], "{not json")
    assert code == 2
    assert out["error"] == "MalformedInput"


def test_missing_field_exit_code():
    code, out, _ = invoke(["eval"], gf5_job())  # no f, no point
    assert code == 2
    assert out["error"] == "MalformedInput"


@pytest.mark.parametrize("argv", [["bogus"], ["eval", "--format", "xml"],
                                  ["eval", "--seed", "abc"], []])
def test_bad_arguments_are_one_malformed_input_line(argv, capsys):
    # argparse printed its usage to stderr and raised SystemExit(2)
    code, _, text = invoke(argv, gf5_job())
    _one_error_line(text, code)
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("verb, extra", [
    # norm read [0] as x2 and [-1] as x1, and [3] raised IndexError
    ("norm", {"monomial": [0]}),
    ("norm", {"monomial": [-1]}),
    ("norm", {"monomial": [3]}),
    ("norm", {"monomial": [True]}),
    ("norm", {"monomial": "12"}),
    # terms read 1.7 and true as x1 and "12" as x1.x2
    ("eval", {"f": [{"monomial": [1.7], "coeff": 1}]}),
    ("eval", {"f": [{"monomial": "12", "coeff": 1}]}),
    ("eval", {"f": [{"monomial": [True], "coeff": 1}]}),
    ("mul", {"f": [{"monomial": [1], "coeff": 1}], "g": [{"monomial": ["2"], "coeff": 1}]}),
    # the degree went through int()
    ("vandermonde", {"points": [[1, 2]], "degree": "3"}),
    ("vandermonde", {"points": [[1, 2]], "degree": 2.5}),
    ("vandermonde", {"points": [[1, 2]], "degree": True}),
])
def test_job_monomials_and_degree_are_strict(verb, extra):
    code, _, text = invoke([verb], gf5_job(point=[2, 3], **extra))
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


def test_long_word_mul_answers_with_one_json_line():
    # 3000 letters: deeper than the default recursion limit
    gf9 = FiniteField(3, 2)
    frame = frobenius_frame(gf9, 2)
    rng = random.Random(3000)
    word = [rng.randint(1, 2) for _ in range(3000)]
    job = {"ring": gf9.spec_to_json(), "frame": frame.to_json(),
           "f": [{"monomial": word, "coeff": [1, 0]}],
           "g": [{"monomial": [2], "coeff": [0, 1]}]}
    code, out, text = invoke(["mul"], job)
    assert code == 0 and len(text.splitlines()) == 1
    # t passes 3000 Frobenius twists a -> a^3, whose order on GF(9) is 2
    assert out == {"product": [{"monomial": word + [2], "coeff": [0, 1]}]}


def test_long_word_divide_answers_with_one_json_line():
    # 3000 letters: the first pushes go through prefixes deeper than the
    # default recursion limit
    gf9 = FiniteField(3, 2)
    frame = frobenius_frame(gf9, 2)
    rng = random.Random(3000)
    word = [rng.randint(1, 2) for _ in range(3000)]
    point = [[rng.randrange(3), rng.randrange(3)] for _ in range(2)]
    job = {"ring": gf9.spec_to_json(), "frame": frame.to_json(),
           "f": [{"monomial": word, "coeff": [1, 0]}], "point": point}
    code, out, text = invoke(["divide"], job)
    assert code == 0 and len(text.splitlines()) == 1
    want = fundamental(frame, tuple(word), point_from_json(frame, point))
    assert out["remainder"] == gf9.element_to_json(want)
    # a diagonal frame keeps words: quotient i holds the prefixes followed by x_i
    for i, quotient in enumerate(out["quotients"], 1):
        assert sorted(t["monomial"] for t in quotient) == sorted(
            word[:k] for k in range(len(word)) if word[k] == i)


@pytest.mark.parametrize("verb, length", [("mul", 26), ("divide", 16)])
def test_push_blowup_is_refused_before_any_push(nondiag_gf8_2_inner, verb, length):
    # every sigma_ij and delta_i is nonzero: each letter a push passes makes
    # three words of it, and without the budget the 26-letter product took
    # 26 s and 2.4 GB, the 16-letter division 90 s
    frame = nondiag_gf8_2_inner
    job = {"ring": frame.ring.spec_to_json(), "frame": frame.to_json(),
           "f": [{"monomial": [1, 2] * (length // 2), "coeff": [1, 0, 0]}],
           "g": [{"monomial": [], "coeff": [0, 1, 0]}], "point": [[0, 1, 0], [1, 1, 0]]}
    start = time.perf_counter()
    code, out, text = invoke([verb], job)
    assert time.perf_counter() - start < 5
    assert code == 1 and out["error"] == "InvalidInput" and len(text.splitlines()) == 1
    assert f"over the limit of {PUSH_TERM_LIMIT}" in out["message"]
    if verb == "mul":
        # a zero g predicts no words and passes the budget: the product is
        # zero with no push list built for the long word
        start = time.perf_counter()
        code, out, text = invoke([verb], dict(job, g=[]))
        assert time.perf_counter() - start < 1
        assert code == 0 and out == {"product": []} and len(text.splitlines()) == 1


def test_twenty_thousand_term_eval_answers_at_once():
    # the terms were added one polynomial at a time, copying every term
    # each time: 16000 terms took 30 s
    gf9 = FiniteField(3, 2)
    frame = frobenius_frame(gf9, 2)
    rng = random.Random(20000)
    words = monomials_below(2, 15)[:20000]
    f = [{"monomial": list(w), "coeff": [rng.randrange(1, 3), rng.randrange(3)]} for w in words]
    job = {"ring": gf9.spec_to_json(), "frame": frame.to_json(), "f": f, "point": [[1, 2], [0, 1]]}
    start = time.perf_counter()
    code, out, _ = invoke(["eval"], job)
    assert time.perf_counter() - start < 2
    F = poly_from_json(frame, f)
    assert len(F.terms) == 20000
    assert code == 0
    assert out == {"value": gf9.element_to_json(evaluate(F, point_from_json(frame, job["point"])))}


def test_univariate_vandermonde_labels_count_against_the_cell_limit():
    # the row labels of a degree-d Vandermonde in one variable spell
    # d(d - 1)/2 letters: degree 8000 printed 64 MB in 8 s, and degree
    # 262144 fit d x M cells under the limit
    gf5 = FiniteField(5)
    job = {"ring": gf5.spec_to_json(), "frame": conventional_frame(gf5, 1).to_json(),
           "points": [[2]], "degree": 262144}
    start = time.perf_counter()
    code, out, text = invoke(["vandermonde"], job)
    assert time.perf_counter() - start < 5
    _one_error_line(text, code, want_code=1, want_error="InvalidInput")
    assert str(262144 + 262144 * 262143 // 2) in out["message"]


def test_univariate_vandermonde_interpolation_is_refused_by_its_work():
    # 512 points of conventional GF(2^16): under VANDERMONDE_CELL_LIMIT
    # (512 x 512 cells), but the solve takes about 512^3 ring operations
    gf = FiniteField(2, 16)
    frame = conventional_frame(gf, 1)
    rng = random.Random(512)
    codes = rng.sample(range(1 << 16), 512)
    digits = lambda c: [c >> d & 1 for d in range(16)]
    job = {"ring": gf.spec_to_json(), "frame": frame.to_json(),
           "points": [[digits(c)] for c in codes],
           "values": [digits(rng.randrange(1 << 16)) for _ in codes]}
    start = time.perf_counter()
    code, out, text = invoke(["interpolate", "--method", "vandermonde"], job)
    assert time.perf_counter() - start < 5
    _one_error_line(text, code, want_code=1, want_error="InvalidInput")
    assert "134217728" in out["message"]


def test_oversized_work_is_refused_before_it_starts():
    gf5_points = [[0, 0], [1, 2], [3, 4]]
    gf65536 = json.loads((DATA / "gf65536_job.json").read_text())
    rng = random.Random(300)
    codes = rng.sample(range(1 << 32), 300)
    many = dict(gf65536,
                points=[[[c >> s + d & 1 for d in range(16)] for s in (0, 16)] for c in codes],
                values=[[rng.randrange(2) for _ in range(16)] for _ in codes])
    cases = (
        # (2^40 - 1) rows x 3 points
        (["vandermonde"], gf5_job(points=gf5_points, degree=40), "3298534883325"),
        # 65536^2 points
        (["closure"], gf65536, "4294967296"),
        # the image echelon of 300 points: n * M^3 = 2 * 300^3
        (["pbasis"], many, "54000000"),
        (["interpolate"], many, "54000000"),
    )
    for argv, job, size in cases:
        start = time.perf_counter()
        code, out, text = invoke(argv, job)
        assert time.perf_counter() - start < 5
        _one_error_line(text, code, want_code=1, want_error="InvalidInput")
        assert size in out["message"]


def test_two_sided_of_many_points_is_refused_by_its_membership_work():
    # 128 random points of Frobenius GF(2^16)^2: M k = 2048 membership tests
    # of n M^2 ring operations each, 15 s when every test ran
    gf = FiniteField(2, 16)
    frame = frobenius_frame(gf, 2)
    rng = random.Random(128)
    points = [[[c >> s + d & 1 for d in range(16)] for s in (0, 16)]
              for c in rng.sample(range(1 << 32), 128)]
    job = {"ring": gf.spec_to_json(), "frame": frame.to_json(), "points": points}
    start = time.perf_counter()
    code, out, text = invoke(["two-sided"], job)
    assert time.perf_counter() - start < 5
    _one_error_line(text, code, want_code=1, want_error="InvalidInput")
    assert str(128 * 16 * 2 * 128 ** 2) in out["message"]


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError(), RecursionError("deep")])
def test_any_other_exception_is_one_internal_error_line(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    for verb in ("eval", "closure", "selftest"):
        monkeypatch.setitem(cli._VERBS, verb, fail)
        code, out, text = invoke([verb], gf5_job(f=[], point=[0, 0], points=[]))
        _one_error_line(text, code, want_code=3, want_error="InternalError")
        assert out["message"].startswith(type(exc).__name__)


def test_deeply_nested_job_is_malformed_input():
    # the JSON decoder recurses once per nesting level
    for raw in ("[" * 100000, '{"ring": ' + "[" * 100000 + "]" * 100000 + "}"):
        code, _, text = invoke(["eval"], raw)
        _one_error_line(text, code)


def test_huge_field_specs_exit_at_once():
    job = gf5_job(f=[{"monomial": [1], "coeff": 1}], point=[2, 3])
    # the last spec must not reach 0 ** -1, which raises ZeroDivisionError
    for spec in ({"kind": "prime-field", "p": 1000000000000000003},
                 {"kind": "extension-field", "p": 3, "k": 100000000},
                 {"kind": "extension-field", "p": 0, "k": -1}):
        start = time.perf_counter()
        code, _, text = invoke(["eval"], dict(job, ring=spec))
        # trial division of p, or computing 3 ** 10**8, takes seconds to forever
        assert time.perf_counter() - start < 1
        _one_error_line(text, code)


def test_largest_prime_field_job_runs_in_well_under_a_second():
    # GF(65521), the largest prime field: building its tables copied O(p^2)
    # codes (7.6 s for the field, 9.8 s for this job on a 2-CPU machine with
    # CPython 3.11); about 0.5 s now
    spec = {"kind": "prime-field", "p": 65521}
    frame = {"n": 1, "sigma": [[{"matrix": [[1]]}]], "delta": [{"matrix": [[0]]}]}
    job = {"ring": spec, "frame": frame, "f": [{"monomial": [1], "coeff": 65520}], "point": [2]}
    start = time.perf_counter()
    code, out, _ = invoke(["eval"], job)
    assert time.perf_counter() - start < 3
    assert code == 0 and out == {"value": 65519}


def _quaternion_eval(part, point="1/2"):
    quat = QuaternionRing()
    job = {"ring": quat.spec_to_json(), "frame": conventional_frame(quat, 1).to_json(),
           "f": [{"monomial": [1], "coeff": [part, "0/1", "1/3", "0/1"]}],
           "point": [[point, "1/1", "0/1", "0/1"]]}
    return invoke(["eval"], job)


def test_quaternion_parts_outside_the_grammar_exit_2_at_once():
    # Fraction(str) read exponents: "1e1000000" ran 0.3 to 1.6 s and then
    # failed on Python's 4300-digit limit
    limit = QUATERNION_PART_LIMIT
    bad = ["1e1000000", "1e3000000", "1" * (limit + 1), "1/" + "7" * (limit + 1),
           "9" * 10 ** 6, "1/0", "1/00", "1.5", "1/-2", "--1", " 1", "", "/2", "1/", "\u0663",
           1, 1.5, None, True, ["1"]]
    for part in bad:
        start = time.perf_counter()
        code, _, text = _quaternion_eval(part)
        assert time.perf_counter() - start < 0.5, part
        _one_error_line(text, code)


def test_quaternion_parts_in_every_documented_form():
    limit = QUATERNION_PART_LIMIT
    _, want, _ = _quaternion_eval("-3/2")
    for part in ("-6/4", "-3/2", "-03/002", "-" + "3" * limit + "/" + "2" + "2" * (limit - 1)):
        assert _quaternion_eval(part)[1] == want
    _, want, _ = _quaternion_eval("7/1")
    for part in ("7", "+7", "+14/2", "007"):
        assert _quaternion_eval(part)[1] == want


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_quaternion_result_too_long_to_print_exits_1(fmt):
    # x1^5 at a point of 1000-digit parts: the value's parts have about 6000
    # digits, past Python's int-to-string limit, which exited 2 MalformedInput
    big = "7" * QUATERNION_PART_LIMIT + "/" + "3" * (QUATERNION_PART_LIMIT - 1) + "1"
    quat = QuaternionRing()
    job = {"ring": quat.spec_to_json(), "frame": conventional_frame(quat, 1).to_json(),
           "f": [{"monomial": [1] * 5, "coeff": [big, "0/1", "1/3", "0/1"]}],
           "point": [[big, big, "0/1", "0/1"]]}
    start = time.perf_counter()
    code, _, text = invoke(["eval", "--format", fmt], job)
    assert time.perf_counter() - start < 2
    _one_error_line(text, code, 1, "InvalidInput")
    assert "QUATERNION_RESULT_LIMIT" in text
    # a part of exactly QUATERNION_RESULT_LIMIT digits still prints
    edge = 10 ** QUATERNION_RESULT_LIMIT
    assert quat.element_to_json(quat(edge - 1, 0, Fraction(1, edge - 1)))[0] == str(edge - 1) + "/1"
    for a in (quat(edge), quat(0, 0, Fraction(1, edge))):
        with pytest.raises(InvalidInput):
            quat.element_to_json(a)


GOLDEN_ARGV = {"interpolate-vandermonde": ["interpolate", "--method", "vandermonde"]}


@pytest.mark.parametrize("ring", ["gf256", "gf65536"])
@pytest.mark.parametrize("verb", ["mul", "eval", "divide", "pbasis", "dual-basis", "interpolate",
                                  "reduce", "interpolate-vandermonde"])
def test_finite_field_output_matches_golden_bytes(ring, verb):
    # Frobenius GF(2^8) and an inner frame over GF(2^16); the expected bytes
    # of the first six verbs come from q x q tables (GF(2^8)) and digit
    # arithmetic (GF(2^16)), so the output must not depend on how the field
    # computes; those of reduce and interpolate-vandermonde, like the GF(8)
    # ones below, from duals solved on Vandermonde rows
    argv = GOLDEN_ARGV.get(verb, [verb])
    _, _, text = invoke(argv + ["--job", str(DATA / f"{ring}_job.json")])
    assert text == (DATA / f"{ring}_{verb}.out").read_text()


@pytest.mark.parametrize("verb", ["closure", "two-sided", "dual-basis", "reduce"])
def test_frobenius_gf8_output_matches_golden_bytes(verb):
    # four P-independent points of the Frobenius GF(8)^2 plane whose closure
    # holds eight; the expected bytes come from closures tested by one
    # image echelon per enumerated point and duals solved on Vandermonde rows
    _, _, text = invoke([verb, "--job", str(DATA / "gf8_job.json")])
    assert text == (DATA / f"gf8_{verb}.out").read_text()


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


# ---------------------------------------------------------------------------
# The contract on arbitrary jobs: one line, a documented exit code and the
# same bytes on a rerun, for every verb
# ---------------------------------------------------------------------------

_FUZZ_RINGS = (FiniteField(2), FiniteField(2, 2), FiniteField(5), QuaternionRing())

_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=8)


def _fuzz_element(ring):
    if not ring.is_finite:
        part = st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 3), st.integers(1, 3))
        # exponents, and digit runs on both sides of QUATERNION_PART_LIMIT
        hostile = st.one_of(
            st.builds(lambda a, e: f"{a}e{e}", st.integers(-3, 3), st.integers(0, 10 ** 6)),
            st.builds(lambda d, n, den: d * n + den, st.sampled_from("19"),
                      st.integers(1, 2 * QUATERNION_PART_LIMIT), st.sampled_from(("", "/3"))))
        return st.lists(st.one_of(*[part] * 7, hostile), min_size=4, max_size=4)
    if ring.k == 1:
        return st.integers(-2 * ring.p, 2 * ring.p)
    return st.lists(st.integers(0, ring.p - 1), min_size=ring.k, max_size=ring.k)


@st.composite
def _fuzz_jobs(draw):
    """A job around one small ring: every field well formed for the ring,
    except at most two that hold any JSON value or are missing."""
    ring = draw(st.sampled_from(_FUZZ_RINGS))
    n = draw(st.integers(1, 2))
    if ring.is_finite and draw(st.booleans()):
        frame = frobenius_frame(ring, n)
    else:
        frame = conventional_frame(ring, n)
    elem = _fuzz_element(ring)
    point = st.lists(elem, min_size=n, max_size=n)
    word = st.lists(st.integers(1, n), max_size=5)
    poly = st.lists(st.fixed_dictionaries({"monomial": word, "coeff": elem}), max_size=3)
    fields = {"ring": st.just(ring.spec_to_json()), "frame": st.just(frame.to_json()),
              "f": poly, "g": poly, "point": point, "c": elem, "monomial": word,
              "points": st.lists(point, max_size=4), "values": st.lists(elem, max_size=4),
              "degree": st.integers(-1, 4)}
    broken = draw(st.lists(st.sampled_from(sorted(fields)), max_size=2))
    job = {key: draw(good) for key, good in fields.items()}
    for key in broken:
        if draw(st.booleans()):
            job[key] = draw(_any_json)
        else:
            job.pop(key, None)
    return job


@pytest.mark.parametrize("verb", sorted(cli._VERBS))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(job=_fuzz_jobs(), fmt=st.sampled_from(("json", "text")))
def test_every_job_gets_one_line_a_documented_code_and_the_same_bytes(verb, job, fmt):
    argv = [verb, "--format", fmt]
    first = invoke(argv, job)
    code, _, text = first
    assert code in (0, 1, 2), text  # 3 is the last resort, which no job should reach
    assert text.endswith("\n") and len(text.splitlines()) == 1
    assert invoke(argv, job) == first
