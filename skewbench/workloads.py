"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Every workload follows one protocol:

* ``setup()`` builds the rings and frames and generates the whole input
  pool from the seed; the benchmark counts it as set-up time;
* ``run_op(i)`` executes op ``i`` (the pool is cycled) and returns
  ``"ok"``, ``"wrong"`` (a result disagreed with its independent check) or
  ``"pending"`` (checked later by ``settle``); an exception counts as a
  failed op;
* ``settle(outcomes)`` finishes deferred checks;
* ``rings()`` names the rings it built, for the unit-cost micro-loops.

Op shapes follow fixed schedules (ring, point count, verb) so every run
sees the same mix; the seed draws the coefficients, points and words.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from skewpoly import (
    FiniteField,
    QuaternionRing,
    all_points,
    check_product_rule,
    closure_members,
    conventional_frame,
    divide,
    dual_p_basis,
    evaluate,
    find_p_basis,
    frobenius_frame,
    fundamental,
    inner_frame,
    lagrange_interpolate,
    lagrange_via_vandermonde,
    monomial,
    mul,
    rank_of,
    validate_frame,
)
from skewpoly.errors import InvalidFrame, SkewPolyError
from skewpoly.frames import Frame, QuatMap, additive_map_from_json
from skewpoly.freering import from_terms, monomials_below, poly_from_json
from skewpoly.geometry import points_from_json, points_to_json
from skewpoly.evaluation import point_from_json
from skewpoly.rings import default_modulus, ring_from_json


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# Shared input generators
# ---------------------------------------------------------------------------

def quaternion_frame(quat, validate=True):
    """The two-variable inner quaternion frame of the acceptance suite."""
    s1 = QuatMap.inner_automorphism(quat, quat(1, 1, 0, 0))
    s2 = QuatMap.inner_automorphism(quat, quat.j())
    zero = QuatMap.zero(quat)
    sigma, beta = [[s1, zero], [zero, s2]], (quat.i(), quat(0, 0, 1, 1))
    if validate:
        return inner_frame(quat, sigma, beta)
    # the same maps inner_frame derives, without running validation
    delta = [QuatMap(quat, "sum", maps=[QuatMap(quat, "compose", maps=(QuatMap(quat, "rmul", beta[j]),
                                                                        sigma[i][j]))
                                        for j in range(2)] + [QuatMap(quat, "lmul", -beta[i])])
             for i in range(2)]
    return Frame(quat, sigma, delta)


def random_element(ring, rng, nonzero=False):
    if ring.is_finite:
        return ring.random_nonzero(rng) if nonzero else ring.random_element(rng)
    return ring.random_nonzero(rng, 2) if nonzero else ring.random_element(rng, 2)


def random_poly(frame, rng, max_deg=3, max_terms=4, terms=None, degree=None):
    """Nonzero polynomial of degree <= max_deg with height-2 coefficients,
    summing `terms` random terms (default: 1 to max_terms of them); with
    `degree`, the first term has that degree and so does the result."""
    monos = monomials_below(frame.n, (max_deg if degree is None else degree) + 1)
    while True:
        pairs = [(rng.choice(monos), random_element(frame.ring, rng))
                 for _ in range(terms or rng.randint(1, max_terms))]
        if degree is not None:
            pairs[0] = (rng.choice([w for w in monos if len(w) == degree]),
                        random_element(frame.ring, rng, nonzero=True))
        F = from_terms(frame, pairs)
        if not F.is_zero() and (degree is None or F.degree() == degree):
            return F


def random_point(frame, rng):
    return tuple(random_element(frame.ring, rng) for _ in range(frame.n))


def algebra_check(frame, F, G, a):
    """The four checks of one algebra op, each against an independent path."""
    P = mul(F, G)
    if P.degree() != F.degree() + G.degree():
        return "wrong"
    res = divide(P, a)
    if res.remainder != evaluate(P, a):
        return "wrong"
    if res.reconstruct(frame, a) != P:
        return "wrong"
    if not check_product_rule(F, G, a).ok:
        return "wrong"
    return "ok"


class _Workload:
    pool_size = 0
    # the timed loop ends on a multiple of this many ops, so every run
    # covers whole schedule cycles
    cycle = 1
    # peak RSS is read after this many ops (whole cycles every baseline run
    # completes), so a faster library, which gets through more ops and fills
    # more memo entries in the same time, does not read as using more memory
    rss_ops = 1

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self):
        raise NotImplementedError

    def run_op(self, i):
        raise NotImplementedError

    def settle(self, outcomes):
        return outcomes

    def rings(self):
        return {}


# ---------------------------------------------------------------------------
# algebra-quat
# ---------------------------------------------------------------------------

# (degree of F, degree of G): products of degree 6 and 5 in equal shares
QUAT_DEGREES = ((3, 3), (3, 2), (3, 3), (2, 3))


class AlgebraQuat(_Workload):
    """Products, division, evaluation and the product rule over the quaternion inner frame."""

    name = "algebra-quat"
    pool_size = 1024
    # term counts of F and G run through all 4 x 4 pairs, for each of the
    # degree pairs in QUAT_DEGREES; op cost rises steeply with the product
    # degree, so a drawn degree mix would move p50 from seed to seed
    cycle = 16 * 4
    rss_ops = 3 * cycle

    def setup(self):
        self.quat = QuaternionRing()
        self.frame = quaternion_frame(self.quat)
        rng, f = self.rng, self.frame
        self.pool = []
        for i in range(self.pool_size):
            deg_f, deg_g = QUAT_DEGREES[i // 16 % len(QUAT_DEGREES)]
            self.pool.append((random_poly(f, rng, terms=1 + i % 4, degree=deg_f),
                              random_poly(f, rng, terms=1 + i // 4 % 4, degree=deg_g),
                              random_point(f, rng)))

    def run_op(self, i):
        F, G, a = self.pool[i % self.pool_size]
        return algebra_check(self.frame, F, G, a)

    def rings(self):
        return {"quat": self.quat}


# ---------------------------------------------------------------------------
# algebra-gf
# ---------------------------------------------------------------------------

# One op in twenty per frame pairs a long word with a short G; every block
# of 80 ops holds one long word of each length, one per frame, rotating.  Product degree stays below 500,
# under the recursion limit of the recursive evaluation path.
LONG_EVERY = 20
LONG_LENGTHS = (50, 100, 200, 400)


class AlgebraGF(_Workload):
    """The algebra op over four diagonal finite-field frames, shared round-robin."""

    name = "algebra-gf"
    pool_size = 4000
    cycle = 4 * LONG_EVERY
    rss_ops = 16 * cycle

    def setup(self):
        self.fields = {
            "gf5": FiniteField(5),
            "gf9": FiniteField(3, 2),
            "gf256": FiniteField(2, 8),
            "gf65536": FiniteField(2, 16),
        }
        f = self.fields
        self.frames = [
            conventional_frame(f["gf5"], 2),
            frobenius_frame(f["gf9"], 2),
            frobenius_frame(f["gf256"], 2),
            frobenius_frame(f["gf65536"], 2),
        ]
        rng = self.rng
        self.pool = []
        for i in range(self.pool_size):
            r, m = i % 4, i // 4
            frame = self.frames[r]
            if (m + 5 * r) % LONG_EVERY == LONG_EVERY - 1:
                length = LONG_LENGTHS[(m // LONG_EVERY + r) % len(LONG_LENGTHS)]
                word = tuple(rng.randint(1, 2) for _ in range(length))
                F = monomial(frame, word, random_element(frame.ring, rng, nonzero=True))
            else:
                F = random_poly(frame, rng)
            self.pool.append((frame, F, random_poly(frame, rng), random_point(frame, rng)))

    def run_op(self, i):
        frame, F, G, a = self.pool[i % self.pool_size]
        return algebra_check(frame, F, G, a)

    def rings(self):
        return dict(self.fields)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

# One cycle of 40 ops: (point count M, ring, ops).  Rings: Frobenius GF(4)^2,
# conventional GF(3)^2, Frobenius GF(8)^2 and the quaternion frame.  Op cost
# falls into clusters: the M <= 5 sets take 3 to 130 ms (closures of four
# GF(4)^2 points about 190), M = 6 over GF(8)^2 220 to 290 ms for most sets,
# and the M = 7 set 0.5 to 1 s.  The shares put p50 inside the M = 5 cluster
# and p90 (the op at rank 36 of 40) in the middle of the M = 6 cluster, never
# on a boundary between clusters.  M = 6 runs over GF(8)^2 only: over GF(3)^2
# and GF(4)^2 its cost spreads from 140 to 370 ms, too wide for a steady p90.
GEOMETRY_CYCLE = (
    (3, "gf8", 3), (3, "gf3", 3), (3, "gf4", 3), (3, "quat", 3),
    (4, "gf8", 3), (4, "gf3", 3), (4, "gf4", 1),
    (5, "gf3", 4), (5, "gf4", 5), (5, "gf8", 4),
    (6, "gf8", 7),
    (7, "gf3", 1),
)
CLOSURE_MAX_POINTS = 4


class Geometry(_Workload):
    """P-bases, rank, both interpolants, dual bases and closures of seeded point sets."""

    name = "geometry"
    pool_size = 400
    cycle = sum(n for _, _, n in GEOMETRY_CYCLE)
    rss_ops = 2 * cycle

    def setup(self):
        self.quat = QuaternionRing()
        self.fields = {"gf4": FiniteField(2, 2), "gf3": FiniteField(3), "gf8": FiniteField(2, 3)}
        f = self.fields
        # frame and whether closures are computed (closures over GF(8)^2 are too slow)
        frames = {"gf4": (frobenius_frame(f["gf4"], 2), True),
                  "gf3": (conventional_frame(f["gf3"], 2), True),
                  "gf8": (frobenius_frame(f["gf8"], 2), False),
                  "quat": (quaternion_frame(self.quat), False)}
        planes = {label: list(all_points(frame)) for label, (frame, _) in frames.items()
                  if label != "quat"}
        slots = [(M, label) for M, label, n in GEOMETRY_CYCLE for _ in range(n)]
        random.Random(0).shuffle(slots)
        rng = self.rng
        self.pool = []
        for i in range(self.pool_size):
            M, label = slots[i % len(slots)]
            frame, closure_ok = frames[label]
            if label == "quat":
                pts = []
                while len(pts) < M:
                    p = random_point(frame, rng)
                    if p not in pts:
                        pts.append(p)
            else:
                pts = rng.sample(planes[label], M)
            values = [random_element(frame.ring, rng, nonzero=True) for _ in range(M)]
            self.pool.append((frame, tuple(pts), values, closure_ok and M <= CLOSURE_MAX_POINTS))

    def run_op(self, i):
        frame, pts, values, closure = self.pool[i % self.pool_size]
        ring = frame.ring
        basis = find_p_basis(frame, pts).basis
        if rank_of(frame, pts) != len(basis):
            return "wrong"
        values = values[:len(basis)]
        F = lagrange_interpolate(frame, basis, values)
        G = lagrange_via_vandermonde(frame, basis, values)
        for b, v in zip(basis, values):
            if evaluate(F, b) != v or evaluate(G, b) != v:
                return "wrong"
        duals = dual_p_basis(frame, basis).duals
        for i_, D in enumerate(duals):
            for j, b in enumerate(basis):
                if evaluate(D, b) != (ring.one() if i_ == j else ring.zero()):
                    return "wrong"
        if closure:
            for p in closure_members(frame, basis):
                if evaluate(F, p) != evaluate(G, p):
                    return "wrong"
        return "ok"

    def rings(self):
        return dict(self.fields, quat=self.quat)


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

def _times_t(c, modulus, p):
    top = c[-1]
    shifted = [0] + c[:-1]
    return [(x - top * m) % p for x, m in zip(shifted, modulus)]


def frobenius_matrix(p, k, modulus):
    """Matrix of a -> a^p on the power basis of GF(p)[t]/(modulus), computed here
    rather than by the library so job generation builds no field tables."""
    cols = []
    for j in range(k):
        c = [1] + [0] * (k - 1)
        for _ in range(j * p):
            c = _times_t(c, modulus, p)
        cols.append(c)
    return [[cols[c][r] for c in range(k)] for r in range(k)]


def _field_job_base(p, k, frobenius):
    n = 2
    if k == 1:
        spec = {"kind": "prime-field", "p": p, "k": 1}
    else:
        spec = {"kind": "extension-field", "p": p, "k": k, "modulus": list(default_modulus(p, k))}
    ident = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    zero = [[0] * k for _ in range(k)]
    diag = frobenius_matrix(p, k, spec.get("modulus", [0, 1])) if frobenius else ident
    frame = {"n": n,
             "sigma": [[{"matrix": diag if i == j else zero} for j in range(n)] for i in range(n)],
             "delta": [{"matrix": zero} for _ in range(n)]}
    return {"ring": spec, "frame": frame}


class _JobRing:
    """Draws JSON job contents for one ring/frame, without building it in the library."""

    def __init__(self, base, p=None, k=None):
        self.base, self.p, self.k = base, p, k

    def element(self, rng, nonzero=False):
        if self.p is None:
            while True:
                parts = [f"{rng.randint(-2, 2)}/{rng.randint(1, 3)}" for _ in range(4)]
                if not nonzero or any(not s.startswith("0/") for s in parts):
                    return parts
        while True:
            digits = [rng.randrange(self.p) for _ in range(self.k)]
            if not nonzero or any(digits):
                return digits[0] if self.k == 1 else digits

    def point(self, rng):
        return [self.element(rng) for _ in range(2)]

    def points(self, rng, M):
        out = []
        while len(out) < M:
            p = self.point(rng)
            if p not in out:
                out.append(p)
        return out

    def poly(self, rng, max_deg=3, max_terms=4):
        words = [list(w) for w in monomials_below(2, max_deg + 1)]
        return [{"monomial": rng.choice(words), "coeff": self.element(rng, nonzero=True)}
                for _ in range(rng.randint(1, max_terms))]


# (ring, verb, slots per cycle of 50).  Job cost is set by the ring: about
# 0.13 s for GF(5), 0.19 s for GF(2^16), 1 s for the quaternion frame (its
# validation samples 256 pairs) and 2.6 s for GF(2^8) (full tables and
# exhaustive validation).  These shares put p50 in the lower and p90 in the
# upper part of the GF(2^16) cluster, with the quaternion and GF(2^8) jobs
# above p90.  Runs cover whole cycles, so every run has the same mix.
CLI_MIX = (
    ("gf5", "eval", 2), ("gf5", "mul", 2), ("gf5", "divide", 1), ("gf5", "norm", 1),
    ("gf5", "rank", 2), ("gf5", "pbasis", 2), ("gf5", "interpolate-newton", 1),
    ("gf5", "interpolate-vandermonde", 1), ("gf5", "dual-basis", 1), ("gf5", "closure", 2),
    ("gf5", "validate-frame", 1),
    ("gf65536", "eval", 4), ("gf65536", "mul", 4), ("gf65536", "divide", 4),
    ("gf65536", "norm", 3), ("gf65536", "rank", 3), ("gf65536", "pbasis", 3),
    ("gf65536", "interpolate-newton", 3), ("gf65536", "interpolate-vandermonde", 3),
    ("gf65536", "dual-basis", 2), ("gf65536", "validate-frame", 3),
    ("quat", None, 1), ("gf256", None, 1),
)
# verbs of the single quaternion and GF(2^8) slot, taken in turn by cycle
ROTATING_VERBS = {"quat": ("mul", "eval", "pbasis"), "gf256": ("eval", "mul")}
PROBE_LETTERS = 3000
RERUN_SAMPLE = 4
JOB_TIMEOUT_S = 60


def cli_schedule():
    slots = [(ring, verb) for ring, verb, n in CLI_MIX for _ in range(n)]
    random.Random(0).shuffle(slots)
    return slots


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class CliJobs(_Workload):
    """One cold ``python -m skewpoly.cli <verb> --job FILE`` subprocess per op."""

    name = "cli-jobs"
    pool_size = 400
    cycle = sum(n for _, _, n in CLI_MIX)
    rss_ops = cycle

    def __init__(self, seed, trace_dir=None):
        super().__init__(seed)
        # the traced pass runs each job through the tracing shim instead
        self.trace_dir = trace_dir
        if trace_dir is None:
            self.command = [sys.executable, "-m", "skewpoly.cli"]
        else:
            self.command = [sys.executable, os.path.join(ROOT, "skewbench", "cli_shim.py")]

    def setup(self):
        quat = QuaternionRing()
        qframe = quaternion_frame(quat, validate=False)
        self.job_rings = {
            "gf5": _JobRing(_field_job_base(5, 1, False), 5, 1),
            "gf256": _JobRing(_field_job_base(2, 8, True), 2, 8),
            "gf65536": _JobRing(_field_job_base(2, 16, True), 2, 16),
            "quat": _JobRing({"ring": quat.spec_to_json(), "frame": qframe.to_json()}),
        }
        self.dir = os.path.join(ROOT, "skewbench", "out", f"jobs-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        schedule = cli_schedule()
        rng = self.rng
        self.jobs = []
        for i in range(self.pool_size):
            cycle, slot = divmod(i, len(schedule))
            ring, verb = schedule[slot]
            if verb is None:
                verb = ROTATING_VERBS[ring][cycle % len(ROTATING_VERBS[ring])]
            self.jobs.append(self._write_job(i, ring, verb, rng))
        self.records = {}

    def _write_job(self, i, label, verb, rng):
        jr = self.job_rings[label]
        job = dict(jr.base)
        if verb in ("eval", "divide"):
            job.update(f=jr.poly(rng), point=jr.point(rng))
        elif verb == "mul":
            job.update(f=jr.poly(rng), g=jr.poly(rng))
        elif verb == "norm":
            job.update(monomial=[rng.randint(1, 2) for _ in range(rng.randint(1, 6))],
                       point=jr.point(rng))
        elif verb != "validate-frame":
            M = rng.randint(2, 3 if label != "gf5" or verb == "closure" else 4)
            job["points"] = jr.points(rng, M)
            if verb.startswith("interpolate"):
                job["values"] = [jr.element(rng) for _ in range(M)]
        path = os.path.join(self.dir, f"{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        argv = [verb, "--job", path]
        if verb.startswith("interpolate"):
            argv = ["interpolate", "--job", path, "--method", verb.split("-", 1)[1]]
        return label, verb, argv, job

    def _spawn(self, argv, trace_name="extra"):
        env = cli_env()
        if self.trace_dir is not None:
            env["SKEWBENCH_TRACE"] = os.path.join(self.trace_dir, f"{trace_name}.json")
        try:
            proc = subprocess.run(self.command + argv, cwd=ROOT, env=env,
                                  capture_output=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, b"", b"timed out"
        return proc.returncode, proc.stdout, proc.stderr

    def run_op(self, i):
        label, verb, argv, job = self.jobs[i % self.pool_size]
        self.records[i] = self._spawn(argv, trace_name=f"op{i:04d}")
        return "pending"

    def settle(self, outcomes):
        checker = LibraryChecker()
        out = list(outcomes)
        for i, rec in self.records.items():
            label, verb, argv, job = self.jobs[i % self.pool_size]
            out[i] = checker.check(verb, job, rec)
        # a seeded sample of the completed jobs is rerun: byte-identical output
        done = sorted(self.records)
        for i in random.Random(self.seed).sample(done, min(RERUN_SAMPLE, len(done))):
            if self._spawn(self.jobs[i % self.pool_size][2]) != self.records[i]:
                out[i] = "wrong"
        self.probe_outcome = self.contract_probe(checker)
        return out

    def contract_probe(self, checker):
        """eval of one long monomial over Frobenius GF(9): the CLI must still
        answer with one JSON line; the expected value comes from the
        iterative fundamental() path.  Its outcome is reported beside the
        result, not counted among the attempted ops: it fails at the
        baseline (RecursionError), and every counted op must pass."""
        rng = random.Random(f"probe:{self.seed}")
        jr = _JobRing(_field_job_base(3, 2, True), 3, 2)
        job = dict(jr.base, f=[{"monomial": [rng.randint(1, 2) for _ in range(PROBE_LETTERS)],
                                "coeff": [1, 0]}], point=jr.point(rng))
        path = os.path.join(self.dir, "probe.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        return checker.check("probe", job, self._spawn(["eval", "--job", path]))

    def cleanup(self):
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)


class LibraryChecker:
    """Recomputes a CLI job through the library and compares the result."""

    def __init__(self):
        self._workspaces = {}

    def workspace(self, job):
        key = json.dumps([job["ring"], job["frame"]], sort_keys=True)
        if key not in self._workspaces:
            ring = ring_from_json(job["ring"])
            fobj = job["frame"]
            sigma = [[additive_map_from_json(ring, m) for m in row] for row in fobj["sigma"]]
            delta = [additive_map_from_json(ring, m) for m in fobj["delta"]]
            self._workspaces[key] = Frame(ring, sigma, delta)
        return self._workspaces[key]

    def expected(self, verb, job):
        """(exit code, result object) the library gives for this job."""
        try:
            return 0, self._compute(verb, job)
        except SkewPolyError as exc:
            return 1, {"error": type(exc).__name__}
        except (KeyError, ValueError, TypeError):
            return 2, {"error": "MalformedInput"}

    def _compute(self, verb, job):
        frame = self.workspace(job)
        ring = frame.ring
        enc = ring.element_to_json
        if verb == "validate-frame":
            rep = validate_frame(frame)
            if not rep.valid:
                raise InvalidFrame(rep.summary(), rep)
            return {"valid": True}
        if verb == "probe":
            word = tuple(job["f"][0]["monomial"])
            a = point_from_json(frame, job["point"])
            c = ring.element_from_json(job["f"][0]["coeff"])
            return {"value": enc(c * fundamental(frame, word, a))}
        if verb in ("eval", "divide", "mul"):
            F = poly_from_json(frame, job["f"])
            if verb == "mul":
                return {"product": mul(F, poly_from_json(frame, job["g"])).to_json()}
            a = point_from_json(frame, job["point"])
            res = divide(F, a)
            if verb == "eval":
                value = evaluate(F, a)
                if value != res.remainder:
                    return {"value": "library paths disagree"}
                return {"value": enc(value)}
            return {"quotients": [g.to_json() for g in res.quotients],
                    "remainder": enc(res.remainder)}
        if verb == "norm":
            a = point_from_json(frame, job["point"])
            return {"value": enc(fundamental(frame, tuple(job["monomial"]), a))}
        pts = points_from_json(frame, job["points"])
        if verb == "rank":
            return {"rank": rank_of(frame, pts)}
        if verb == "pbasis":
            res = find_p_basis(frame, pts)
            return {"basis": points_to_json(frame, res.basis), "rank": res.rank,
                    "discarded": points_to_json(frame, res.discarded)}
        if verb == "closure":
            return {"closure": points_to_json(frame, closure_members(frame, pts))}
        if verb == "dual-basis":
            return {"duals": [D.to_json() for D in dual_p_basis(frame, pts).duals]}
        values = [ring.element_from_json(v) for v in job["values"]]
        method = lagrange_interpolate if verb == "interpolate-newton" else lagrange_via_vandermonde
        F = method(frame, pts, values)
        if any(evaluate(F, p) != v for p, v in zip(pts, values)):
            return {"polynomial": "interpolant misses a value"}
        return {"polynomial": F.to_json()}

    def check(self, verb, job, record):
        """ok, wrong (result differs from the library) or broken (CLI contract)."""
        code, stdout, stderr = record
        lines = stdout.decode("utf-8", "replace").splitlines()
        if code not in (0, 1, 2) or len(lines) != 1 or stderr:
            return "broken"
        try:
            got = json.loads(lines[0])
        except ValueError:
            return "broken"
        want_code, want = self.expected(verb, job)
        if code != want_code:
            return "wrong"
        if code != 0:
            return "ok" if got.get("error") == want["error"] else "wrong"
        return "ok" if got == want else "wrong"


WORKLOADS = {w.name: w for w in (AlgebraQuat, AlgebraGF, Geometry, CliJobs)}

# ops run by the fixed-length traced passes: whole schedule cycles, so the
# traced mix matches the timed one and counts repeat exactly
TRACE_OPS = {"algebra-quat": 64, "algebra-gf": 320, "geometry": 40, "cli-jobs": 50}


def ring_for_label(label):
    """A fresh ring from its label, for unit-cost loops on rings a workload never built."""
    if label == "quat":
        return QuaternionRing()
    q = int(label[2:])
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while p ** k < q:
        k += 1
    return FiniteField(p, k)

