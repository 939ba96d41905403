"""Commutation frames: the pair (sigma, delta) defining F[x; sigma, delta].

A frame over n variables packages an n x n array sigma of additive
self-maps of the coefficient ring together with a length-n array delta,
subject to the laws that make x_i * a = sum_j sigma[i][j](a) x_j +
delta[i](a) extend to an associative, degree-additive ring product:

    sigma(1) = I        sigma(ab) = sigma(a) sigma(b)
    delta(ab) = sigma(a) delta(b) + delta(a) b

Additive maps over GF(p^k) are k x k matrices over GF(p) acting on
power-basis coefficient vectors; every additive self-map of GF(p^k) is
of this form.  Over the rational quaternions the maps are written in a
small symbolic catalog (left/right constant multiplications,
conjugation, sums and compositions) and compiled to 4 x 4 rational
matrices acting on the coordinates (w, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import InvalidFrame, RingMismatch
from .rings import FieldElement, FiniteField, Quaternion, quaternion_from_ints

# Frames over fields of at most this many elements validate the laws over
# every pair; beyond it the power-basis pairs suffice (both laws are
# GF(p)-bilinear in (a, b)).
_EXHAUSTIVE_LIMIT = 256

# Fixed seed for the sampled part of quaternion-frame validation.
_QUAT_SAMPLE_SEED = 0x5EED
_QUAT_SAMPLE_PAIRS = 256

_MAP_TABLE_LIMIT = 4096

# Entries a sigma or delta memo of one frame holds before it is emptied.
_MEMO_LIMIT = 1 << 14


class LinearMap:
    """Additive self-map of a finite field, stored as a k x k matrix over GF(p).

    ``mat[r][c]`` multiplies coefficient c of the argument into
    coefficient r of the image.  Application is table-backed for small
    fields.
    """

    __slots__ = ("fld", "mat", "_table")

    def __init__(self, fld, mat):
        if not isinstance(fld, FiniteField):
            raise TypeError("LinearMap requires a finite field")
        k, p = fld.k, fld.p
        mat = tuple(tuple(int(x) % p for x in row) for row in mat)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError(f"matrix must be {k}x{k}")
        self.fld = fld
        self.mat = mat
        self._table = None

    def _apply_val(self, val):
        p, k = self.fld.p, self.fld.k
        digits = []
        v = val
        for _ in range(k):
            digits.append(v % p)
            v //= p
        out = 0
        mult = 1
        for r in range(k):
            row = self.mat[r]
            acc = 0
            for c in range(k):
                acc += row[c] * digits[c]
            out += (acc % p) * mult
            mult *= p
        return out

    def apply(self, a):
        if a.field != self.fld:
            raise RingMismatch(f"{a.field} element fed to a {self.fld} map")
        if self._table is None and self.fld.q <= _MAP_TABLE_LIMIT:
            self._table = [self._apply_val(v) for v in range(self.fld.q)]
        if self._table is not None:
            return FieldElement(self.fld, self._table[a.val])
        return FieldElement(self.fld, self._apply_val(a.val))

    @classmethod
    def identity(cls, fld):
        k = fld.k
        return cls(fld, [[1 if r == c else 0 for c in range(k)] for r in range(k)])

    @classmethod
    def zero(cls, fld):
        return cls(fld, [[0] * fld.k for _ in range(fld.k)])

    @classmethod
    def from_images(cls, fld, images):
        """Map sending the power-basis element t^j to images[j]."""
        if len(images) != fld.k:
            raise ValueError(f"need {fld.k} basis images")
        cols = [im.coeffs() for im in images]
        return cls(fld, [[cols[c][r] for c in range(fld.k)] for r in range(fld.k)])

    @classmethod
    def from_function(cls, fld, fn):
        """Matrix of the additive extension of fn, read off the power basis."""
        return cls.from_images(fld, [fn(_basis_el(fld, j)) for j in range(fld.k)])

    @classmethod
    def frobenius(cls, fld, power=1):
        return cls.from_images(fld, [_basis_el(fld, j) ** (fld.p ** power) for j in range(fld.k)])

    @classmethod
    def scalar(cls, fld, c):
        """The map a -> c * a."""
        return cls.from_images(fld, [c * _basis_el(fld, j) for j in range(fld.k)])

    def is_zero_map(self):
        return all(all(x == 0 for x in row) for row in self.mat)

    def to_json(self):
        return {"matrix": [list(row) for row in self.mat]}

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.fld == other.fld and self.mat == other.mat

    def __hash__(self):
        return hash((self.fld, self.mat))

    def __repr__(self):
        return f"LinearMap({self.mat})"


def _basis_el(fld, j):
    return fld.element(fld.p ** j)


class QuatMap:
    """Additive self-map of the rational quaternions from a fixed catalog.

    op is one of "lmul" (a -> c a), "rmul" (a -> a c), "conj"
    (quaternion conjugation), "sum" (pointwise sum of maps) or
    "compose" (maps applied right to left).  Every catalog expression
    is Q-linear on the coordinates (w, x, y, z), and is compiled once,
    at construction, into a 4 x 4 integer matrix ``mat`` (row-major,
    flattened) over a positive common denominator ``den``: left and
    right multiplications are fixed sign patterns, conjugation is
    diag(1, -1, -1, -1), and sums and compositions are matrix sums and
    products of the already compiled children.  The catalog is kept only
    as the JSON input and serialization language.
    """

    __slots__ = ("ring", "op", "c", "maps", "mat", "den")

    def __init__(self, ring, op, c=None, maps=()):
        maps = tuple(maps)
        if op in ("lmul", "rmul"):
            if not isinstance(c, Quaternion):
                raise ValueError(f"{op} needs a quaternion constant")
            compiled = _mul_matrix(c, op == "lmul")
        elif op == "conj":
            compiled = _CONJ_MATRIX
        elif op in ("sum", "compose"):
            if not maps:
                raise ValueError(f"{op} needs at least one map")
            compiled = (_matrix_sum if op == "sum" else _matrix_product)(maps)
        else:
            raise ValueError(f"unknown quaternion map op {op!r}")
        self.ring = ring
        self.op = op
        self.c = c
        self.maps = maps
        self.mat, self.den = compiled

    def apply(self, a):
        m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = self.mat
        w, x, y, z = a.num
        return quaternion_from_ints(
            a.ring,
            m00 * w + m01 * x + m02 * y + m03 * z,
            m10 * w + m11 * x + m12 * y + m13 * z,
            m20 * w + m21 * x + m22 * y + m23 * z,
            m30 * w + m31 * x + m32 * y + m33 * z,
            self.den * a.den,
        )

    @classmethod
    def identity(cls, ring):
        return cls(ring, "lmul", ring.one())

    @classmethod
    def zero(cls, ring):
        return cls(ring, "lmul", ring.zero())

    @classmethod
    def inner_automorphism(cls, ring, u):
        """a -> u a u^(-1)."""
        return cls(ring, "compose", maps=(cls(ring, "lmul", u), cls(ring, "rmul", u.inv())))

    def is_zero_map(self):
        return not any(self.mat)

    def to_json(self):
        if self.op in ("lmul", "rmul"):
            return {"op": self.op, "c": self.ring.element_to_json(self.c)}
        if self.op == "conj":
            return {"op": "conj"}
        return {"op": self.op, "maps": [m.to_json() for m in self.maps]}

    def __repr__(self):
        if self.op in ("lmul", "rmul"):
            return f"{self.op}({self.c})"
        if self.op == "conj":
            return "conj"
        return f"{self.op}({', '.join(map(repr, self.maps))})"


_CONJ_MATRIX = ((1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1), 1)


def _mul_matrix(c, left):
    """Matrix of a -> c a (left) or a -> a c on the coordinates (w, x, y, z)."""
    w, x, y, z = c.num
    if left:
        mat = (w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w)
    else:
        mat = (w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w)
    return mat, c.den


def _normal_matrix(mat, den):
    g = gcd(den, *mat)
    return tuple(v // g for v in mat), den // g


def _matrix_sum(maps):
    den = lcm(*(m.den for m in maps))
    acc = [0] * 16
    for m in maps:
        scale = den // m.den
        for r, v in enumerate(m.mat):
            acc[r] += v * scale
    return _normal_matrix(acc, den)


def _matrix_product(maps):
    mat, den = maps[0].mat, maps[0].den
    for m in maps[1:]:
        b = m.mat
        mat = [sum(mat[4 * r + k] * b[4 * k + col] for k in range(4))
               for r in range(4) for col in range(4)]
        den *= m.den
    return _normal_matrix(mat, den)


def additive_map_from_json(ring, obj):
    if not isinstance(obj, dict):
        raise ValueError("additive map must be a JSON object")
    if isinstance(ring, FiniteField):
        if "matrix" not in obj:
            raise ValueError("finite-field additive map needs a 'matrix' key")
        return LinearMap(ring, obj["matrix"])
    op = obj.get("op")
    if op in ("lmul", "rmul"):
        return QuatMap(ring, op, ring.element_from_json(obj["c"]))
    if op == "conj":
        return QuatMap(ring, "conj")
    if op in ("sum", "compose"):
        return QuatMap(ring, op, maps=[additive_map_from_json(ring, m) for m in obj["maps"]])
    raise ValueError(f"bad quaternion map object {obj!r}")


@dataclass
class FrameReport:
    """Outcome of frame validation; failures list the violated identities."""

    valid: bool
    failures: list = field(default_factory=list)

    def summary(self):
        if self.valid:
            return "valid"
        return "; ".join(f"{law} at a={a!r}, b={b!r}" for law, a, b in self.failures[:5])


class Frame:
    """A validated (sigma, delta) pair over a coefficient ring.

    Frames are immutable after construction; application results are
    memoized per frame, so sharing one frame across calls is cheap.  Each
    memo is emptied when it reaches _MEMO_LIMIT entries, which bounds its
    memory.
    Use the module factories (conventional_frame, diagonal_frame, ...)
    rather than this constructor unless the maps are already known good.
    """

    __slots__ = ("ring", "n", "sigma", "delta", "_sig_cache", "_del_cache")

    def __init__(self, ring, sigma, delta):
        n = len(sigma)
        if n < 1 or any(len(row) != n for row in sigma) or len(delta) != n:
            raise ValueError("sigma must be n x n and delta length n")
        self.ring = ring
        self.n = n
        self.sigma = tuple(tuple(row) for row in sigma)
        self.delta = tuple(delta)
        self._sig_cache = {}
        self._del_cache = {}

    def sigma_at(self, a):
        """The n x n matrix sigma(a), rows/cols as nested tuples."""
        cache = self._sig_cache
        try:
            return cache[a]
        except KeyError:
            out = tuple(tuple(m.apply(a) for m in row) for row in self.sigma)
            if len(cache) >= _MEMO_LIMIT:
                cache.clear()
            cache[a] = out
            return out

    def delta_at(self, a):
        """The length-n vector delta(a)."""
        cache = self._del_cache
        try:
            return cache[a]
        except KeyError:
            out = tuple(m.apply(a) for m in self.delta)
            if len(cache) >= _MEMO_LIMIT:
                cache.clear()
            cache[a] = out
            return out

    def to_json(self):
        return {
            "n": self.n,
            "sigma": [[m.to_json() for m in row] for row in self.sigma],
            "delta": [m.to_json() for m in self.delta],
        }

    def __repr__(self):
        return f"Frame(ring={self.ring!r}, n={self.n})"


def frame_from_json(ring, obj):
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("frame object needs keys n, sigma, delta")
    sigma = [[additive_map_from_json(ring, m) for m in row] for row in obj["sigma"]]
    delta = [additive_map_from_json(ring, m) for m in obj["delta"]]
    f = Frame(ring, sigma, delta)
    report = validate_frame(f)
    if not report.valid:
        raise InvalidFrame(report.summary(), report)
    return f


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _probe_elements(ring):
    if isinstance(ring, FiniteField):
        return [_basis_el(ring, j) for j in range(ring.k)]
    one = ring.one()
    return [one, ring.i(), ring.j(), ring.k(), ring.element("1/2"), one + ring.i()]


def _validation_pairs(ring):
    """Pairs (a, b) on which the frame laws are checked.

    Finite fields up to 256 elements: every pair.  Larger fields: all
    pairs of power-basis elements, which is complete because both laws
    are GF(p)-bilinear.  Quaternions: all pairs from a generator set
    plus a fixed-seed random sample; a frame failing the sample is
    rejected even without a proof of invalidity.
    """
    if isinstance(ring, FiniteField):
        if ring.q <= _EXHAUSTIVE_LIMIT:
            els = list(ring.elements())
        else:
            els = _probe_elements(ring)
        for a in els:
            for b in els:
                yield a, b
        return
    import random

    gens = _probe_elements(ring)
    for a in gens:
        for b in gens:
            yield a, b
    rng = random.Random(_QUAT_SAMPLE_SEED)
    for _ in range(_QUAT_SAMPLE_PAIRS):
        yield ring.random_element(rng), ring.random_element(rng)


def _mat_mul(A, B, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for k in range(1, n):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def validate_frame(f):
    """Check the frame laws; the report lists every violated identity.

    Never raises: constructors that want hard failures wrap this and
    raise InvalidFrame themselves.
    """
    ring, n = f.ring, f.n
    failures = []
    one = ring.one()
    zero = ring.zero()

    sig_one = f.sigma_at(one)
    for i in range(n):
        for j in range(n):
            want = one if i == j else zero
            if sig_one[i][j] != want:
                failures.append(("unit not preserved", one, one))
                break
        else:
            continue
        break

    for a, b in _validation_pairs(ring):
        ab = a * b
        sa, sb, sab = f.sigma_at(a), f.sigma_at(b), f.sigma_at(ab)
        if sab != _mat_mul(sa, sb, n):
            failures.append(("sigma(ab) != sigma(a)sigma(b)", a, b))
        da, db, dab = f.delta_at(a), f.delta_at(b), f.delta_at(ab)
        for i in range(n):
            acc = da[i] * b
            for j in range(n):
                acc = acc + sa[i][j] * db[j]
            if dab[i] != acc:
                failures.append(("delta(ab) != sigma(a)delta(b) + delta(a)b", a, b))
                break
    return FrameReport(valid=not failures, failures=failures)


def _checked(f):
    report = validate_frame(f)
    if not report.valid:
        law, a, b = report.failures[0]
        raise InvalidFrame(f"{law} (witness a={a!r}, b={b!r})", report)
    return f


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def _id_map(ring):
    if isinstance(ring, FiniteField):
        return LinearMap.identity(ring)
    return QuatMap.identity(ring)


def _zero_map(ring):
    if isinstance(ring, FiniteField):
        return LinearMap.zero(ring)
    return QuatMap.zero(ring)


def conventional_frame(ring, n):
    """sigma = scalar embedding, delta = 0: constants commute with variables."""
    ident, zero = _id_map(ring), _zero_map(ring)
    sigma = [[ident if i == j else zero for j in range(n)] for i in range(n)]
    return Frame(ring, sigma, [zero] * n)


def diagonal_frame(ring, endos, ders=None):
    """Frame with ring endomorphisms on the diagonal and stacked derivations.

    endos[i] twists variable x_i; ders[i] (default zero maps) must be a
    derivation twisted by endos[i].  Raises InvalidFrame with the first
    witnessing pair when a supplied map breaks the laws.
    """
    n = len(endos)
    zero = _zero_map(ring)
    if ders is None:
        ders = [zero] * n
    if len(ders) != n:
        raise ValueError("need one derivation per endomorphism")
    sigma = [[endos[i] if i == j else zero for j in range(n)] for i in range(n)]
    return _checked(Frame(ring, sigma, list(ders)))


def frobenius_frame(fld, n, power=1):
    """Diagonal frame twisting every variable by a -> a^(p^power), delta = 0."""
    fr = LinearMap.frobenius(fld, power)
    return diagonal_frame(fld, [fr] * n)


def inner_frame(ring, sigma, beta):
    """Frame with delta(a) = sigma(a) beta - beta a for a fixed vector beta.

    sigma is an n x n array of additive maps (or a Frame whose sigma is
    reused); the derived delta satisfies the twisted Leibniz law by
    construction, so only sigma is validated.
    """
    if isinstance(sigma, Frame):
        sigma = sigma.sigma
    n = len(sigma)
    if len(beta) != n:
        raise ValueError("beta must have one entry per variable")
    sigma = [list(row) for row in sigma]

    if isinstance(ring, FiniteField):
        delta = []
        for i in range(n):
            def der(a, i=i):
                acc = -(beta[i] * a)
                for j in range(n):
                    acc = acc + sigma[i][j].apply(a) * beta[j]
                return acc
            delta.append(LinearMap.from_images(ring, [der(_basis_el(ring, j)) for j in range(ring.k)]))
    else:
        delta = []
        for i in range(n):
            parts = [QuatMap(ring, "compose", maps=(QuatMap(ring, "rmul", beta[j]), sigma[i][j]))
                     for j in range(n)]
            parts.append(QuatMap(ring, "lmul", -beta[i]))
            delta.append(QuatMap(ring, "sum", maps=parts))

    # sigma alone must satisfy the morphism laws; delta holds by construction
    probe = _checked(Frame(ring, sigma, [_zero_map(ring)] * n))
    return Frame(ring, probe.sigma, delta)


def block_frame(f1, f2):
    """Block-diagonal join of two frames over the same ring."""
    if f1.ring != f2.ring:
        raise RingMismatch("block frames need a common coefficient ring")
    ring = f1.ring
    zero = _zero_map(ring)
    n1, n2 = f1.n, f2.n
    n = n1 + n2
    sigma = [[zero] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            sigma[i][j] = f1.sigma[i][j]
    for i in range(n2):
        for j in range(n2):
            sigma[n1 + i][n1 + j] = f2.sigma[i][j]
    delta = list(f1.delta) + list(f2.delta)
    return Frame(ring, sigma, delta)
