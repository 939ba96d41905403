"""Commutation frames: the pair (sigma, delta) defining F[x; sigma, delta].

A frame over n variables packages an n x n array sigma of additive
self-maps of the coefficient ring together with a length-n array delta,
subject to the laws that make x_i * a = sum_j sigma[i][j](a) x_j +
delta[i](a) extend to an associative, degree-additive ring product:

    sigma(1) = I        sigma(ab) = sigma(a) sigma(b)
    delta(ab) = sigma(a) delta(b) + delta(a) b

Additive maps over GF(p^k) are k x k matrices over GF(p) acting on
power-basis coefficient vectors; every additive self-map of GF(p^k) is
of this form, and each is applied as its linearized polynomial (see
LinearMap).  Over the rational quaternions the maps are written in a
small symbolic catalog (left/right constant multiplications,
conjugation, sums and compositions) and compiled to 4 x 4 rational
matrices acting on the coordinates (w, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd, lcm

from .errors import InvalidFrame, RingMismatch
from .linalg import Matrix, mat_mul
from .rings import _ONE, FieldElement, FiniteField, Quaternion, _digits, _encode, _quat_value

# Entries a sigma or delta memo of one frame holds before it is emptied.
_MEMO_LIMIT = 1 << 14
# Points, and values plus indexed letters, a point cache holds before it is emptied.
_POINT_MEMO_LIMIT = 1 << 10
_POINT_VALUE_LIMIT = 1 << 12
# The most elements a field may have for its point maps to be one table.
_CHUNK_ENTRIES = 16


class LinearMap:
    """Additive self-map of a finite field, stored as a k x k matrix over GF(p).

    ``mat[r][c]`` multiplies coefficient c of the argument into
    coefficient r of the image; ``_cols`` holds the columns, the images of
    the power-basis elements t^c, as element codes.  The two define the map
    for JSON, equality and hashing.  Its one compiled form, built on the
    first application and kept, is its linearized polynomial
    L(v) = sum_e c_e v^(p^e), which every GF(p)-linear map of GF(p^k) is
    (Lidl & Niederreiter, *Finite Fields*, ch. 3): with b_j the trace-dual
    basis of the power basis, v = sum_j Tr(b_j v) t^j, so
    c_e = sum_j L(t^j) b_j^(p^e).  An image is then
    sum_e g^((p^e log v) mod (q - 1) + log c_e), one lookup per nonzero
    term.  A Frobenius power or a scalar map has one term, and so does
    every map when k = 1.  Push lists apply their maps the same way
    (PushMap), and point maps sum the terms of the frame's maps
    (_field_point_map).
    """

    __slots__ = ("fld", "mat", "_cols", "_linearized")

    def __init__(self, fld, mat):
        if not isinstance(fld, FiniteField):
            raise TypeError("LinearMap requires a finite field")
        k, p = fld.k, fld.p
        mat = tuple(tuple(int(x) % p for x in row) for row in mat)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError(f"matrix must be {k}x{k}")
        self.fld = fld
        self.mat = mat
        self._cols = tuple(_encode([row[c] for row in mat], p) for c in range(k))
        self._linearized = None

    def apply(self, a):
        return FieldElement(self.fld, self.apply_val(self.fld.unwrap(a)))

    def apply_val(self, v):
        """The map on the integer code v of an element."""
        terms, rest, exp, log, units, add = self._linearized or self._linearize()
        if not (v and terms):
            return 0
        lv = log[v]
        shift, lc = terms[0]
        out = exp[shift * lv % units + lc]
        for shift, lc in rest:
            out = add(out, exp[shift * lv % units + lc])
        return out

    def terms(self):
        """The pairs (p^e, log c_e) of the nonzero coefficients of the map's
        linearized polynomial, e ascending."""
        return (self._linearized or self._linearize())[0]

    def _linearize(self):
        """The compiled form (terms, terms after the first, exp, log, q - 1,
        add): the terms, then the field's tables and its sum; k^2 field
        operations, once."""
        fld = self.fld
        p, exp, log, units, add = fld.p, fld._exp, fld._log, fld._units, fld.add_val
        cols = [(log[c], log[b]) for c, b in zip(self._cols, fld.trace_dual()) if c]
        terms = []
        for e in range(fld.k):
            shift, c = p ** e, 0
            for lc, lb in cols:
                c = add(c, exp[lc + shift * lb % units])
            if c:
                terms.append((shift, log[c]))
        self._linearized = out = (tuple(terms), tuple(terms[1:]), exp, log, units, add)
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
            compiled = _mul_matrix(c.val, op == "lmul")
        elif op == "conj":
            compiled = _CONJ_MATRIX
        elif op in ("sum", "compose"):
            if not maps:
                raise ValueError(f"{op} needs at least one map")
            compiled = (_matrix_sum if op == "sum" else _matrix_product)([*map(_compiled, maps)])
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
        return _quat_apply(self.mat, self.den, v)

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
_ID_MATRIX = ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1), 1)


def _compiled(m):
    """A map's column codes over GF(p^k), its (matrix, den) pair over H."""
    return m._cols if isinstance(m, LinearMap) else (m.mat, m.den)


def _quat_image(mat, den, v):
    """The 4 x 4 integer matrix mat over den on the quaternion ring value v,
    left open: the numerators over den * d with no gcd, or the int 0 when all
    four vanish, a term of the ring's open sums (rings._quat_mul_add)."""
    if not v:
        return 0
    m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = mat
    w, x, y, z, d = v
    w, x, y, z = (m00 * w + m01 * x + m02 * y + m03 * z, m10 * w + m11 * x + m12 * y + m13 * z,
                  m20 * w + m21 * x + m22 * y + m23 * z, m30 * w + m31 * x + m32 * y + m33 * z)
    return (w, x, y, z, den * d) if w or x or y or z else 0


def _quat_apply(mat, den, v):
    """_quat_image closed to the normal form (see rings._quat_value)."""
    return _quat_value(*s) if (s := _quat_image(mat, den, v)) else 0


def _mul_matrix(v, left):
    """Matrix of a -> v a (left) or a -> a v on (w, x, y, z), v a ring value."""
    w, x, y, z, den = v or (0, 0, 0, 0, 1)
    if left:
        mat = (w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w)
    else:
        mat = (w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w)
    return mat, den


def _normal_matrix(mat, den):
    g = gcd(den, *mat)
    return tuple(v // g for v in mat), den // g


def _matrix_sum(pairs):
    """The normalized sum of the (matrix, denominator) pairs."""
    den = lcm(*(d for _, d in pairs))
    acc = [0] * 16
    for mat, d in pairs:
        scale = den // d
        for r, v in enumerate(mat):
            acc[r] += v * scale
    return _normal_matrix(acc, den)


def _matrix_product(pairs, normal=True):
    """The product of the (matrix, denominator) pairs, left to right, normalized if normal."""
    (a, den), *rest = pairs
    for b, d in rest:
        a = [a[r] * b[c] + a[r + 1] * b[c + 4] + a[r + 2] * b[c + 8] + a[r + 3] * b[c + 12]
             for r in (0, 4, 8, 12) for c in (0, 1, 2, 3)]
        den *= d
    return _normal_matrix(a, den) if normal else (a, den)


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
    The point cache, a PointTable per point keyed by its ring values, is
    emptied before it holds more than _POINT_MEMO_LIMIT points or, counting
    values and the letters of indexed words, _POINT_VALUE_LIMIT.
    branching[i] counts the words one push step makes of the letter x_i:
    its nonzero sigma_ij, plus 1 when delta_i is not zero.  reach is
    (alpha, beta): alpha the most letters one letter reaches through
    chains of nonzero sigma_ij, itself included, and beta the most
    branchings summed over such a reach, which bound the pushes of a
    division (freering._divide_words).  The push_*
    methods intern the maps of the push lists (see freering._push_list), the
    table emptied at _MEMO_LIMIT entries; _push_memo, the frame's words
    and their lists, is freering's.
    _factored, geometry's, holds the factorization of the last point set
    a geometry call asked about: its image echelon and the inverse square
    of its P-basis, one set at a time.  A frame serves one thread at a
    time.
    Use the module factories (conventional_frame, diagonal_frame, ...)
    rather than this constructor unless the maps are already known good.
    """

    __slots__ = ("ring", "n", "sigma", "delta", "branching", "reach", "_sig_cache",
                 "_del_cache", "_point_cache", "_point_held", "_push_maps", "_push_memo",
                 "_factored")

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
        reach = [{i} for i in range(n)]
        for _ in range(n):
            reach = [r | {k for j in r for k in range(n) if not self.sigma[j][k].is_zero_map()}
                     for r in reach]
        self.reach = (max(map(len, reach)),
                      max(sum(self.branching[j] for j in r) for r in reach))
        self._sig_cache = {}
        self._del_cache = {}
        self._point_cache, self._point_held = {}, 0
        self._push_maps, self._push_memo = {}, None
        self._factored = None

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

    def _push_map(self, key):
        """The interned PushMap of a compiled form, None for the zero map."""
        table = self._push_maps
        m = table.get(key)
        if m is None:
            if not any(key if isinstance(self.ring, FiniteField) else key[0]):
                return None
            if len(table) >= _MEMO_LIMIT:
                table.clear()
            m = table[key] = PushMap(self, key)
        return m

    def push_identity(self):
        """The PushMap of the identity, the one map of the empty word's list."""
        ring = self.ring
        return self._push_map(LinearMap.identity(ring)._cols
                              if isinstance(ring, FiniteField) else _ID_MATRIX)

    def push_after(self, m, i):
        """The pairs (0, m o delta_i), then (j, m o sigma_ij) for j = 1..n,
        whose map is not zero: what an entry (w, m) of the push list of a
        word u gives the list of u x_i on w and on w x_j, so a list holds a
        word before its extensions (see freering._push_list).  Memoized on m."""
        pairs = m.after.get(i)
        if pairs is None:
            field, out = isinstance(self.ring, FiniteField), []
            for j, f in [(0, self.delta[i - 1]), *enumerate(self.sigma[i - 1], 1)]:
                c = self._push_map(tuple(map(m.apply, f._cols)) if field
                                   else _matrix_product([m.key, _compiled(f)]))
                if c is not None:
                    out.append((j, c))
            pairs = m.after[i] = tuple(out)
        return pairs

    def push_sum(self, a, b):
        """The PushMap a + b, or None when it is the zero map; memoized on a."""
        sums = a.sums
        if b not in sums:
            if len(sums) >= _MEMO_LIMIT:
                sums.clear()
            sums[b] = self._push_map(tuple(map(self.ring.add_val, a.key, b.key))
                                     if isinstance(self.ring, FiniteField)
                                     else _matrix_sum([a.key, b.key]))
        return sums[b]

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

    def point_table(self, point):
        """The PointTable of a point of n ring values, made on first use with
        phi_a: v -> (T_i(v))_i, T_i(v) = sum_j sigma_ij(v) a_j + delta_i(v),
        additive in v: Leroy's pseudo-linear map of a in n variables
        (*Pseudo-linear transformations and evaluation in Ore extensions*,
        1995), mapping N_m(a) to N_(x_i m)(a).  A step is one lookup over
        GF(p^k) with q <= 16, else one per term of the linearized polynomials
        (_field_point_map); over H one 4 x 4 product per i."""
        cache = self._point_cache
        table = cache.get(point)
        if table is None:
            if len(cache) >= _POINT_MEMO_LIMIT or self._point_held >= _POINT_VALUE_LIMIT:
                cache.clear()
                self._point_held = 0
            field = isinstance(self.ring, FiniteField)  # the unit's value: 1 or _ONE
            phi = (_field_point_map if field else _quat_point_map)(self, point)
            table = cache[point] = PointTable(phi, self.n, 1 if field else _ONE)
            self._point_held += 1
        return table

    def held_values(self, count):
        """Count values and indexed letters a PointTable took on; past the
        bound, empty the cache (a walk in progress keeps its own tables)."""
        self._point_held += count
        if self._point_held > _POINT_VALUE_LIMIT:
            self._point_cache.clear()
            self._point_held = 0

    def to_json(self):
        return {
            "n": self.n,
            "sigma": [[m.to_json() for m in row] for row in self.sigma],
            "delta": [m.to_json() for m in self.delta],
        }

    def __repr__(self):
        return f"Frame(ring={self.ring!r}, n={self.n})"


class PointTable:
    """A point's map phi and the values N_w(a) found so far, in a flat trie
    of suffixes: vals[v] is N of node v's suffix (node 0 the empty one),
    exts[v] phi(vals[v]) once run, children maps v * (n + 1) + letter to the
    suffix extended on the left, and index maps each word asked for to its
    node.  The evaluation walkers all read and grow it (Frame.point_table)."""

    __slots__ = ("phi", "stride", "vals", "exts", "children", "index")

    def __init__(self, phi, n, one):
        self.phi, self.stride = phi, n + 1
        self.vals, self.exts, self.children, self.index = [one], [None], {}, {(): 0}

    def ext(self, v):
        """phi(vals[v]), the values of node v's n left extensions, run once."""
        e = self.exts[v]
        if e is None:
            e = self.exts[v] = self.phi(self.vals[v])
        return e

    def node(self, frame, word, tail=None):
        """The node of word, indexed: one step from the node of tail, the
        word less its first letter, when given and indexed, else a walk down
        its longest held suffix from the right end, extended leftwards.  The
        new nodes and the word's letters count towards frame's bound."""
        node = self.index.get(word)
        if node is None:
            vals, children, size = self.vals, self.children, len(self.vals)
            node = None if tail is None else self.index.get(tail)
            node, letters = (0, reversed(word)) if node is None else (node, word[:1])
            for i in letters:
                key = node * self.stride + i
                child = children.get(key)
                if child is None:
                    child = children[key] = len(vals)
                    vals.append(self.ext(node)[i - 1])
                    self.exts.append(None)
                node = child
            self.index[word] = node
            frame.held_values(len(vals) - size + len(word))
        return node

    def value(self, frame, word):
        """N_word(a): held at the word's node, unless its letters and values
        would pass the bound alone; then one phi per letter, nothing held."""
        if 2 * len(word) <= _POINT_VALUE_LIMIT or word in self.index:
            return self.vals[self.node(frame, word)]
        v = self.vals[0]
        for i in reversed(word):
            v = self.phi(v)[i - 1]
        return v


class PushMap:
    """One map of a push list (see freering._push_list), interned per frame:
    ``key`` is its compiled form (see _compiled), ``apply`` applies it to a
    ring value, and ``after`` holds, by letter i, the pairs of
    Frame.push_after once made.  apply is not memoized: over GF(p^k) it is
    the apply_val of a LinearMap, one lookup per term of its linearized
    polynomial, and over the quaternions _quat_image, the 4 x 4 product left
    open (no gcd) for the open sums of mul, divide and reconstruct.
    PushMaps hash by identity."""

    __slots__ = ("key", "apply", "after", "sums")

    def __init__(self, frame, key):
        ring = frame.ring
        self.key = key
        if isinstance(ring, FiniteField):
            self.apply = LinearMap(ring, zip(*[_digits(c, ring.p, ring.k) for c in key])).apply_val
        else:
            self.apply = partial(_quat_image, *key)
        self.after, self.sums = {}, {}


def _field_point_map(frame, point):
    """phi_a over GF(p^k) on codes, for a point given by its codes, from the
    linearized polynomials of the frame's maps: T_i(v) = sum_e t_ie v^(p^e) with
    t_ie = sum_j a_j c_e(sigma_ij) + c_e(delta_i), O(n terms) field
    operations per point and no table, so a step is one lookup per term.
    When q <= _CHUNK_ENTRIES, phi is tabulated on all q codes instead, so a
    step is one lookup.
    """
    fld = frame.ring
    exp, log, units, add = fld._exp, fld._log, fld._units, fld.add_val
    rows = []  # rows[i] = {p^e: the code of t_ie}
    for sigma_row, delta in zip(frame.sigma, frame.delta):
        row = {shift: exp[lc] for shift, lc in delta.terms()}
        for m, a in zip(sigma_row, point):
            if a:
                la = log[a]
                for shift, lc in m.terms():
                    row[shift] = add(row.get(shift, 0), exp[la + lc])
        rows.append(row)
    # terms[i] = the pairs (p^e, log t_ie) of T_i: the first (None when
    # T_i = 0), whose image starts the sum, and the others
    pairs = [[(shift, log[c]) for shift, c in row.items() if c] for row in rows]
    terms = [(row[0] if row else None, tuple(row[1:])) for row in pairs]
    zero = (0,) * frame.n

    def apply(v):
        if not v:
            return zero
        lv, out = log[v], []
        for first, rest in terms:
            acc = exp[first[0] * lv % units + first[1]] if first else 0
            for shift, lc in rest:
                acc = add(acc, exp[shift * lv % units + lc])
            out.append(acc)
        return tuple(out)

    return list(map(apply, range(fld.q))).__getitem__ if fld.q <= _CHUNK_ENTRIES else apply


def _quat_point_matrices(frame, point):
    """The (matrix, den) of each T_i = sum_j R(a_j) S_ij + D_i for a point of
    ring values, R(a) right multiplication by a: the products unnormalized,
    their sum on one denominator normalized once."""
    out = []
    for row, d in zip(frame.sigma, frame.delta):
        parts = [_matrix_product([_mul_matrix(a, left=False), _compiled(s)], normal=False)
                 for s, a in zip(row, point) if a and any(s.mat)]
        out.append(_matrix_sum([_compiled(d)] + parts))
    return out


def _quat_point_map(frame, point):
    """phi_a over the quaternions: one 4 x 4 integer product per T_i."""
    applies = [partial(_quat_apply, *pair) for pair in _quat_point_matrices(frame, point)]
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

def validate_frame(f):
    """Check the frame laws; the report lists every violated identity.

    The laws are checked on the pairs (a, b) of the ring's additive basis,
    a outer and b inner: the power basis over GF(p^k), 1, i, j, k over H.
    That is complete, since every map is linear over the prime field
    (GF(p) or Q) and both laws are bilinear in (a, b).  Never raises:
    constructors that want hard failures wrap this and raise InvalidFrame
    themselves.
    """
    ring, n = f.ring, f.n
    failures = []
    one = ring.one()
    zero = ring.zero()

    if f.sigma_at(one) != tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)):
        failures.append(("unit not preserved", one, one))

    basis = ring.additive_basis()
    for a in basis:
        for b in basis:
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
