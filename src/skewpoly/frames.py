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
from operator import xor

from .errors import InvalidFrame, RingMismatch
from .linalg import Matrix, mat_mul
from .rings import FieldElement, FiniteField, Quaternion, _quat_value, _span_codes

# Fixed seed for the sampled part of quaternion-frame validation.
_QUAT_SAMPLE_SEED = 0x5EED
_QUAT_SAMPLE_PAIRS = 256

# Entries a sigma or delta memo of one frame holds before it is emptied.
_MEMO_LIMIT = 1 << 14
# Compiled points one frame keeps before its point cache is emptied.
_POINT_MEMO_LIMIT = 1 << 10
# Entries of one chunk table of a compiled finite-field point map.
_CHUNK_ENTRIES = 16


class LinearMap:
    """Additive self-map of a finite field, stored as a k x k matrix over GF(p).

    ``mat[r][c]`` multiplies coefficient c of the argument into
    coefficient r of the image.  Application sums the columns (the images
    of the power-basis elements t^c, kept as element codes) scaled by the
    argument's coefficients, in the field's own arithmetic.
    """

    __slots__ = ("fld", "mat", "_cols")

    def __init__(self, fld, mat):
        if not isinstance(fld, FiniteField):
            raise TypeError("LinearMap requires a finite field")
        k, p = fld.k, fld.p
        mat = tuple(tuple(int(x) % p for x in row) for row in mat)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError(f"matrix must be {k}x{k}")
        self.fld = fld
        self.mat = mat
        self._cols = tuple(fld.from_coeffs([row[c] for row in mat]).val for c in range(k))

    def apply(self, a):
        return FieldElement(self.fld, self.apply_val(self.fld.unwrap(a)))

    def apply_val(self, v):
        """The map on the integer code v of an element."""
        fld = self.fld
        p, add, mul = fld.p, fld.add_val, fld.mul_val
        out = 0
        for col in self._cols:
            if not v:
                break
            v, d = divmod(v, p)
            if d:
                out = add(out, mul(d, col))
        return out

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
        return cls.from_images(fld, [fn(e) for e in fld.additive_basis()])

    @classmethod
    def frobenius(cls, fld, power=1):
        return cls.from_images(fld, [e ** (fld.p ** power) for e in fld.additive_basis()])

    @classmethod
    def scalar(cls, fld, c):
        """The map a -> c * a."""
        return cls.from_images(fld, [c * e for e in fld.additive_basis()])

    def is_zero_map(self):
        return not any(self._cols)

    def to_json(self):
        return {"matrix": [list(row) for row in self.mat]}

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.fld == other.fld and self.mat == other.mat

    def __hash__(self):
        return hash((self.fld, self.mat))

    def __repr__(self):
        return f"LinearMap({self.mat})"


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
        ring = self.ring
        return ring.wrap(self.apply_val(ring.unwrap(a)))

    def apply_val(self, v):
        """The map on the ring value v of a quaternion (see QuaternionRing)."""
        if not v:
            return 0
        m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = self.mat
        w, x, y, z, den = v
        return _quat_value(
            m00 * w + m01 * x + m02 * y + m03 * z,
            m10 * w + m11 * x + m12 * y + m13 * z,
            m20 * w + m21 * x + m22 * y + m23 * z,
            m30 * w + m31 * x + m32 * y + m33 * z,
            self.den * den,
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

    Frames are immutable after construction; sigma and delta at a ring
    value (the code of a field element, the tuple of a quaternion) are
    memoized per frame, so sharing one frame across calls is cheap.  Each
    memo is emptied when it reaches _MEMO_LIMIT entries, which bounds its memory.
    The compiled point maps of point_map_val are cached the same way, up to
    _POINT_MEMO_LIMIT points.  branching[i] counts the words one push
    step makes of the letter x_i: its nonzero sigma_ij, plus 1 when
    delta_i is not zero.
    Use the module factories (conventional_frame, diagonal_frame, ...)
    rather than this constructor unless the maps are already known good.
    """

    __slots__ = ("ring", "n", "sigma", "delta", "branching", "_sig_cache", "_del_cache",
                 "_point_cache")

    def __init__(self, ring, sigma, delta):
        n = len(sigma)
        if n < 1 or any(len(row) != n for row in sigma) or len(delta) != n:
            raise ValueError("sigma must be n x n and delta length n")
        self.ring = ring
        self.n = n
        self.sigma = tuple(tuple(row) for row in sigma)
        self.delta = tuple(delta)
        self.branching = tuple(sum(not m.is_zero_map() for m in row) + (not d.is_zero_map())
                               for row, d in zip(self.sigma, self.delta))
        self._sig_cache = {}
        self._del_cache = {}
        self._point_cache = {}

    def sigma_val(self, v):
        """sigma at the ring value v (see the ring's unwrap), by rows: row i
        holds the pairs (j, sigma_ij(v)) whose value is not zero, j from 1,
        so a push reads no zero entries."""
        cache = self._sig_cache
        try:
            return cache[v]
        except KeyError:
            out = []
            for row in self.sigma:
                images = [(j, m.apply_val(v)) for j, m in enumerate(row, 1)]
                out.append(tuple((j, c) for j, c in images if c))
            out = tuple(out)
            if len(cache) >= _MEMO_LIMIT:
                cache.clear()
            cache[v] = out
            return out

    def delta_val(self, v):
        """delta at the ring value v, as a length-n tuple of ring values."""
        cache = self._del_cache
        try:
            return cache[v]
        except KeyError:
            out = tuple(m.apply_val(v) for m in self.delta)
            if len(cache) >= _MEMO_LIMIT:
                cache.clear()
            cache[v] = out
            return out

    def sigma_at(self, a):
        """The n x n matrix sigma(a) of ring elements, rows/cols as nested tuples."""
        ring = self.ring
        zero, rows = ring.zero(), []
        for pairs in self.sigma_val(ring.unwrap(a)):
            row = [zero] * self.n
            for j, c in pairs:
                row[j - 1] = ring.wrap(c)
            rows.append(tuple(row))
        return tuple(rows)

    def delta_at(self, a):
        """The length-n vector delta(a) of ring elements."""
        ring = self.ring
        return tuple(map(ring.wrap, self.delta_val(ring.unwrap(a))))

    def point_map_val(self, point):
        """phi_a: v -> (T_1(v), ..., T_n(v)), T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v),
        on ring values (see the ring's unwrap), for a point a (a tuple of n
        ring elements), compiled on first use.

        T_i is additive in v: it is the multivariate form of Leroy's
        pseudo-linear map of a (Leroy, *Pseudo-linear transformations and
        evaluation in Ore extensions*, 1995), and it maps N_m(a) to
        N_(x_i m)(a).  Over GF(p^k) one application is a lookup per chunk
        table (one in all when q <= 16), over the quaternions one 4 x 4
        integer product per i.
        """
        cache = self._point_cache
        try:
            return cache[point]
        except KeyError:
            out = (_field_point_map if isinstance(self.ring, FiniteField)
                   else _quat_point_map)(self, point)
            if len(cache) >= _POINT_MEMO_LIMIT:
                cache.clear()
            cache[point] = out
            return out

    def point_map(self, point):
        """phi_a on elements: point_map_val's map, unwrapping its argument and
        wrapping its images as LinearMap.apply wraps apply_val."""
        phi, unwrap, wrap = self.point_map_val(point), self.ring.unwrap, self.ring.wrap
        return lambda a: tuple(map(wrap, phi(unwrap(a))))

    def to_json(self):
        return {
            "n": self.n,
            "sigma": [[m.to_json() for m in row] for row in self.sigma],
            "delta": [m.to_json() for m in self.delta],
        }

    def __repr__(self):
        return f"Frame(ring={self.ring!r}, n={self.n})"


def _field_point_map(frame, point):
    """phi_a over GF(p^k) on codes, compiled from the codes of T_i(t^c) on
    the power basis (n^2 k code operations: the point folded into the
    frame's images of t^c).  The base-p digits of an argument are cut into
    chunks of at most _CHUNK_ENTRIES values; each chunk's table, filled one
    digit column at a time, holds the n image codes of every digit
    pattern, and an image is the sum of one entry per chunk.  When
    q <= _CHUNK_ENTRIES the single table is the map.  For p > 16 no digit
    fits a table, and each nonzero digit scales its column (n code
    products).
    """
    fld, n = frame.ring, frame.n
    p, k = fld.p, fld.k
    add, mul = (xor if p == 2 else fld.add_val), fld.mul_val
    rows = []  # rows[i][c] = the code of T_i(t^c)
    for sigma_row, delta in zip(frame.sigma, frame.delta):
        row = delta._cols
        for m, a in zip(sigma_row, point):
            if a.val and any(m._cols):
                row = list(map(add, row, [mul(x, a.val) for x in m._cols]))
        rows.append(row)

    width = 0  # base-p digits per chunk
    while p ** (width + 1) <= _CHUNK_ENTRIES:
        width += 1
    if not width:
        columns, zero = list(zip(*rows)), (0,) * n

        def scaled(x):
            out = zero
            for col in columns:
                if not x:
                    break
                x, r = divmod(x, p)
                if r:
                    out = tuple(map(add, out, [mul(r, c) for c in col]))
            return out

        return scaled
    base = p ** width
    tables = [[_span_codes(row[start:start + width], p, add) for row in rows]
              for start in range(0, k, width)]
    first, *rest = [list(zip(*coords)) for coords in tables]
    if not rest:
        return first.__getitem__

    def apply(v):
        x, r = divmod(v, base)
        out = first[r]
        for table in rest:
            if not x:
                break
            x, r = divmod(x, base)
            if r:
                out = tuple(map(add, out, table[r]))
        return out

    return apply


def _quat_point_map(frame, point):
    """phi_a over the quaternions: each T_i is compiled as the QuatMap sum
    of the maps v -> sigma_ij(v) a_j and delta_i, one 4 x 4 integer matrix."""
    ring = frame.ring
    maps = [QuatMap(ring, "sum", maps=[QuatMap(ring, "compose", maps=(QuatMap(ring, "rmul", a), s))
                                       for s, a in zip(row, point) if not s.is_zero_map()] + [d])
            for row, d in zip(frame.sigma, frame.delta)]
    applies = [m.apply_val for m in maps]
    return lambda v: tuple([f(v) for f in applies])


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
        return ring.additive_basis()
    return ring.additive_basis() + [ring.element("1/2"), ring.one() + ring.i()]


def _validation_pairs(ring):
    """Pairs (a, b) on which the frame laws are checked.

    Finite fields: all pairs of power-basis elements, which is complete
    because both laws are GF(p)-bilinear in (a, b).  Quaternions: all
    pairs from a generator set plus a fixed-seed random sample; a frame
    failing the sample is rejected even without a proof of invalidity.
    """
    gens = _probe_elements(ring)
    for a in gens:
        for b in gens:
            yield a, b
    if isinstance(ring, FiniteField):
        return
    import random

    rng = random.Random(_QUAT_SAMPLE_SEED)
    for _ in range(_QUAT_SAMPLE_PAIRS):
        yield ring.random_element(rng), ring.random_element(rng)


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
        if Matrix(ring, sab) != mat_mul(Matrix(ring, sa), Matrix(ring, sb)):
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
            delta.append(LinearMap.from_images(ring, [der(e) for e in ring.additive_basis()]))
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
