"""Batch command line front end with a stable JSON wire format.

Every verb reads one JSON job object (from --job PATH or stdin) and
writes one JSON result object to stdout.  Exit codes: 0 success, 1
domain error (the error name comes from the library exception), 2
malformed input or bad command-line arguments, 3 internal error (any
other exception, MemoryError and RecursionError included).  Identical
job files produce byte-identical output.

The job and result schemas are documented in docs/wire_format.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidFrame, InvalidInput, SkewPolyError
from .evaluation import (
    conjugate,
    divide,
    evaluate,
    fundamental,
    point_from_json,
    point_to_json,
)
from .frames import frame_from_json
from .freering import monomial_from_json, mul, poly_from_json
from .geometry import (
    closure_members,
    find_p_basis,
    is_two_sided,
    matroid_check,
    points_from_json,
    points_to_json,
    rank_of,
    vandermonde,
)
from .interpolation import (
    dual_p_basis,
    lagrange_interpolate,
    lagrange_via_vandermonde,
    reduce_mod_ideal,
)
from .linalg import rank
from .rings import _is_json_int, ring_from_json

DEFAULT_SEED = 1729


def _load_workspace(job):
    """The job's frame; its ring is frame.ring."""
    return frame_from_json(ring_from_json(job["ring"]), job["frame"])


def _poly_out(p, fmt):
    return p.to_text() if fmt == "text" else p.to_json()


def _element_out(frame, a, fmt):
    return repr(a) if fmt == "text" else frame.ring.element_to_json(a)


# ---------------------------------------------------------------------------
# Verb handlers: each takes (job, fmt, seed) and returns the result object.
# ---------------------------------------------------------------------------

def _verb_validate_frame(job, fmt, seed):
    _load_workspace(job)
    return {"valid": True}


def _verb_mul(job, fmt, seed):
    frame = _load_workspace(job)
    F = poly_from_json(frame, job["f"])
    G = poly_from_json(frame, job["g"])
    return {"product": _poly_out(mul(F, G), fmt)}


def _verb_divide(job, fmt, seed):
    frame = _load_workspace(job)
    F = poly_from_json(frame, job["f"])
    a = point_from_json(frame, job["point"])
    res = divide(F, a)
    return {
        "quotients": [_poly_out(g, fmt) for g in res.quotients],
        "remainder": _element_out(frame, res.remainder, fmt),
    }


def _verb_eval(job, fmt, seed):
    frame = _load_workspace(job)
    F = poly_from_json(frame, job["f"])
    a = point_from_json(frame, job["point"])
    return {"value": _element_out(frame, evaluate(F, a), fmt)}


def _verb_norm(job, fmt, seed):
    frame = _load_workspace(job)
    word = monomial_from_json(frame, job["monomial"])
    a = point_from_json(frame, job["point"])
    return {"value": _element_out(frame, fundamental(frame, word, a), fmt)}


def _verb_conjugate(job, fmt, seed):
    frame = _load_workspace(job)
    a = point_from_json(frame, job["point"])
    c = frame.ring.element_from_json(job["c"])
    return {"conjugate": point_to_json(frame, conjugate(frame, a, c))}


def _verb_vandermonde(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    d = job["degree"]
    if not _is_json_int(d):
        raise ValueError(f"degree must be an integer, got {d!r}")
    V = vandermonde(frame, pts, d)
    return {
        "matrix": V.to_json(),
        "row_labels": [list(w) for w in V.row_labels],
        "col_labels": points_to_json(frame, V.col_labels),
        "rank": rank(V),
    }


def _verb_rank(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    return {"rank": rank_of(frame, pts)}


def _verb_pbasis(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    res = find_p_basis(frame, pts)
    return {
        "basis": points_to_json(frame, res.basis),
        "rank": res.rank,
        "discarded": points_to_json(frame, res.discarded),
    }


def _verb_closure(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    return {"closure": points_to_json(frame, closure_members(frame, pts))}


def _verb_two_sided(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    return {"two_sided": is_two_sided(frame, pts)}


def _verb_matroid_check(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    rep = matroid_check(frame, pts)
    return {
        "ok": rep.ok,
        "violations": rep.violations,
        "independent_count": rep.independent_count,
        "bases": [list(b) for b in rep.bases],
        "rank": rep.rank,
    }


def _verb_interpolate(job, fmt, seed, method="newton"):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    values = [frame.ring.element_from_json(v) for v in job["values"]]
    if method == "newton":
        F = lagrange_interpolate(frame, pts, values)
    elif method == "vandermonde":
        F = lagrange_via_vandermonde(frame, pts, values)
    else:
        raise InvalidInput(f"unknown interpolation method {method!r}")
    return {"polynomial": _poly_out(F, fmt)}


def _verb_dual_basis(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    dual = dual_p_basis(frame, pts)
    return {"duals": [_poly_out(f, fmt) for f in dual.duals]}


def _verb_reduce(job, fmt, seed):
    frame = _load_workspace(job)
    pts = points_from_json(frame, job["points"])
    F = poly_from_json(frame, job["f"])
    dual = dual_p_basis(frame, pts)
    q = reduce_mod_ideal(F, dual)
    return {
        "coordinates": [_element_out(frame, c, fmt) for c in q.coords],
        "representative": _poly_out(q.representative(frame), fmt),
    }


def _verb_selftest(job, fmt, seed):
    from .selftest import selftest_cases

    cases = []
    passed = failed = 0
    for name, fn in selftest_cases(seed):
        ok = bool(fn())
        cases.append({"name": name, "ok": ok})
        if ok:
            passed += 1
        else:
            failed += 1
    return {"passed": passed, "failed": failed, "cases": cases}


_VERBS = {
    "validate-frame": _verb_validate_frame,
    "mul": _verb_mul,
    "divide": _verb_divide,
    "eval": _verb_eval,
    "norm": _verb_norm,
    "conjugate": _verb_conjugate,
    "vandermonde": _verb_vandermonde,
    "rank": _verb_rank,
    "pbasis": _verb_pbasis,
    "closure": _verb_closure,
    "two-sided": _verb_two_sided,
    "matroid-check": _verb_matroid_check,
    "interpolate": _verb_interpolate,
    "dual-basis": _verb_dual_basis,
    "reduce": _verb_reduce,
    "selftest": _verb_selftest,
}


def _emit(obj, out):
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad argument list instead of printing the
    usage to stderr and exiting, so the error is one MalformedInput line."""

    def error(self, message):
        raise ValueError(message)


def run(argv=None, stdin=None, stdout=None):
    """Execute one verb; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    parser = _Parser(
        prog="skewpoly",
        description="exact multivariate skew polynomial calculator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--job", help="path to the JSON job file (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if verb == "interpolate":
            p.add_argument("--method", choices=("newton", "vandermonde"), default="newton")

    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        _emit({"error": "MalformedInput", "message": str(exc)}, stdout)
        return 2
    try:
        return _execute(args, stdin, stdout)
    except Exception as exc:
        # the last resort: MemoryError and RecursionError are Exceptions too
        _emit({"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}, stdout)
        return 3


def _execute(args, stdin, stdout):
    """Read the job, run the verb's handler and emit its one JSON line."""
    job = {}
    if args.verb != "selftest":
        try:
            raw = open(args.job).read() if args.job else stdin.read()
            job = json.loads(raw)
            if not isinstance(job, dict):
                raise ValueError("job must be a JSON object")
        except (OSError, ValueError, RecursionError) as exc:
            # RecursionError: JSON nested deeper than the decoder recurses
            _emit({"error": "MalformedInput", "message": str(exc)}, stdout)
            return 2

    handler = _VERBS[args.verb]
    kwargs = {}
    if args.verb == "interpolate":
        kwargs["method"] = args.method
    try:
        result = handler(job, args.format, args.seed, **kwargs)
    except (KeyError, ValueError, TypeError) as exc:
        _emit({"error": "MalformedInput", "message": f"{exc}"}, stdout)
        return 2
    except InvalidFrame as exc:
        payload = {"error": "InvalidFrame", "message": str(exc)}
        if exc.report is not None:
            payload["failures"] = [
                {"law": law, "a": repr(a), "b": repr(b)} for law, a, b in exc.report.failures
            ]
        _emit(payload, stdout)
        return 1
    except SkewPolyError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, stdout)
        return 1
    if args.verb == "selftest" and result["failed"]:
        _emit(result, stdout)
        return 1
    _emit(result, stdout)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
