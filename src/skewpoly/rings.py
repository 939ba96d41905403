"""Exact arithmetic for the supported coefficient division rings.

Three rings are available: prime fields GF(p), extension fields GF(p^k)
in the power basis of an irreducible modulus, and the rational
quaternions.  All values are immutable and all operations are pure, so
elements can be shared freely between threads.

Finite-field elements are carried as a single integer ``val`` in
``[0, p^k)`` whose base-p digits are the power-basis coefficients
(constant digit first).  Ascending ``val`` therefore enumerates GF(4)
as 0, 1, w, w+1 where w is a root of the modulus.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, NotFinite, RingMismatch

# Fields up to this size precompute full add/mul/inv tables; larger ones
# (supported up to 2**16) fall back to digit arithmetic per operation.
_TABLE_LIMIT = 4096
_MAX_FIELD_SIZE = 1 << 16


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# GF(p)[t] helpers on little-endian coefficient lists (used only during
# field construction, never in hot paths).
# ---------------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a by monic m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
        if not a:
            break
    return a


def _is_irreducible(mod, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            div = _digits(idx, p, d) + [1]
            if not _poly_mod(mod, div, p):
                return False
    return True


def _digits(val, p, k):
    out = []
    for _ in range(k):
        out.append(val % p)
        val //= p
    return out


def _encode(digits, p):
    val = 0
    for d in reversed(digits):
        val = val * p + d
    return val


def default_modulus(p, k):
    """Smallest monic irreducible of degree k over GF(p).

    "Smallest" orders candidates by their integer encoding (constant
    digit least significant), which fixes one reproducible modulus per
    (p, k) so serialized elements mean the same thing across runs.
    """
    for t in range(p ** k, 2 * p ** k):
        cand = _digits(t, p, k + 1)
        if _is_irreducible(cand, p):
            return tuple(cand[:k]) + (1,)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldElement:
    """An element of a :class:`FiniteField`, wrapped around its integer code."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def coeffs(self):
        """Power-basis coefficients over GF(p), constant term first."""
        return tuple(_digits(self.val, self.field.p, self.field.k))

    def is_zero(self):
        return self.val == 0

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise RingMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add_val(self.val, b.val))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_val(self.val, b.val))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_val(b.val, self.val))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_val(self.val, b.val))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_val(self.val))

    def inv(self):
        if self.val == 0:
            raise DivisionByZero("inverse of 0")
        return FieldElement(self.field, self.field.inv_val(self.val))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.val == other.val and self.field == other.field
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        if self.field.k == 1:
            return str(self.val)
        return "[" + ",".join(str(c) for c in self.coeffs()) + "]"


class FiniteField:
    """GF(p^k) with elements in the power basis of an irreducible modulus.

    ``modulus`` is the degree-k monic modulus as a little-endian
    coefficient tuple; omit it to get the library default for (p, k).
    Sizes above 2**16 are rejected, which keeps the construction-time
    irreducibility check (exhaustive trial division) affordable.
    """

    def __init__(self, p, k=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** k > _MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds 2^16")
        if modulus is None:
            modulus = default_modulus(p, k) if k > 1 else (0, 1)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._add = None
        self._mul = None
        self._inv = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- integer-code arithmetic -------------------------------------------

    def _raw_mul(self, a, b):
        prod = _poly_mul(_digits(a, self.p, self.k), _digits(b, self.p, self.k), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        rem += [0] * (self.k - len(rem))
        return _encode(rem, self.p)

    def _raw_add(self, a, b):
        p, out, mult = self.p, 0, 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _build_tables(self):
        q = self.q
        self._add = [[self._raw_add(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    self._inv[a] = b
                    break

    def add_val(self, a, b):
        if self._add is not None:
            return self._add[a][b]
        return self._raw_add(a, b)

    def neg_val(self, a):
        return self.sub_val(0, a)

    def sub_val(self, a, b):
        p, out, mult = self.p, 0, 1
        for _ in range(self.k):
            out += ((a - b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul_val(self, a, b):
        if self._mul is not None:
            return self._mul[a][b]
        return self._raw_mul(a, b)

    def inv_val(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._inv is not None:
            return self._inv[a]
        # a^(q-2) = a^(-1) in GF(q)
        out, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    # -- element constructors ----------------------------------------------

    def element(self, val):
        """Element from its integer code in [0, q)."""
        val = int(val)
        if not 0 <= val < self.q:
            raise ValueError(f"element code {val} out of range for {self}")
        return FieldElement(self, val)

    def __call__(self, val):
        return self.element(val)

    def from_coeffs(self, coeffs):
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, _encode(coeffs, self.p))

    def from_int(self, m):
        """Image of the integer m under Z -> GF(p^k) (lands in the prime subfield)."""
        return FieldElement(self, m % self.p)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def gen(self):
        """The power-basis generator t (for k = 1, the element 1)."""
        return FieldElement(self, self.p if self.k > 1 else 1)

    # -- ring-level protocol -------------------------------------------------

    @property
    def is_finite(self):
        return True

    @property
    def size(self):
        return self.q

    @property
    def kind(self):
        return "prime-field" if self.k == 1 else "extension-field"

    def elements(self):
        """All q elements, ascending integer code (lexicographic on
        coefficient vectors read most-significant first)."""
        for v in range(self.q):
            yield FieldElement(self, v)

    def random_element(self, rng):
        return FieldElement(self, rng.randrange(self.q))

    def random_nonzero(self, rng):
        return FieldElement(self, rng.randrange(1, self.q))

    # -- json ---------------------------------------------------------------

    def element_to_json(self, a):
        if self.k == 1:
            return a.val
        return list(a.coeffs())

    def element_from_json(self, obj):
        if self.k == 1:
            if not _is_json_int(obj):
                raise ValueError(f"prime-field element must be an integer, got {obj!r}")
            return self.element(obj % self.p)
        if not isinstance(obj, list) or len(obj) != self.k or not all(map(_is_json_int, obj)):
            raise ValueError(f"extension element must be a list of {self.k} integers, got {obj!r}")
        return self.from_coeffs(obj)

    def spec_to_json(self):
        if self.k == 1:
            return {"kind": "prime-field", "p": self.p, "k": 1}
        return {
            "kind": "extension-field",
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus),
        }

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


_ZERO4 = (0, 0, 0, 0)
_new = object.__new__


def quaternion_from_ints(ring, w, x, y, z, den):
    """The quaternion (w + x i + y j + z k) / den from integers, den != 0,
    in normal form: den > 0 and gcd(w, x, y, z, den) = 1.

    Every arithmetic result and every compiled map application is built
    here, with one gcd.
    """
    g = gcd(w, x, y, z, den)
    if den < 0:
        g = -g
    q = _new(Quaternion)
    q.ring = ring
    if g == 1:
        q.num = (w, x, y, z)
        q.den = den
    else:
        q.num = (w // g, x // g, y // g, z // g)
        q.den = den // g
    return q


class Quaternion:
    """A rational quaternion (w + x i + y j + z k) / den.

    The four parts are carried as integer numerators ``num`` over one
    common denominator ``den``, kept in normal form (den > 0 and
    gcd(w, x, y, z, den) = 1), so equal quaternions have equal
    representations and each operation costs a single gcd.  The
    attributes ``w``, ``x``, ``y``, ``z`` are read-only ``Fraction``
    views of the parts.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, w, x, y, z):
        parts = [p if isinstance(p, int) else Fraction(p) for p in (w, x, y, z)]
        # over the lcm of reduced denominators the numerators are already coprime to it
        den = lcm(*(p.denominator for p in parts))
        self.ring = ring
        self.num = tuple(p.numerator * (den // p.denominator) for p in parts)
        self.den = den

    @property
    def w(self):
        return Fraction(self.num[0], self.den)

    @property
    def x(self):
        return Fraction(self.num[1], self.den)

    @property
    def y(self):
        return Fraction(self.num[2], self.den)

    @property
    def z(self):
        return Fraction(self.num[3], self.den)

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.ring, other, 0, 0, 0)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        aw, ax, ay, az = self.num
        bw, bx, by, bz = b.num
        da, db = self.den, b.den
        return quaternion_from_ints(
            self.ring, aw * db + bw * da, ax * db + bx * da, ay * db + by * da,
            az * db + bz * da, da * db,
        )

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        aw, ax, ay, az = self.num
        bw, bx, by, bz = b.num
        da, db = self.den, b.den
        return quaternion_from_ints(
            self.ring, aw * db - bw * da, ax * db - bx * da, ay * db - by * da,
            az * db - bz * da, da * db,
        )

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b - self

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        aw, ax, ay, az = self.num
        bw, bx, by, bz = b.num
        return quaternion_from_ints(
            self.ring,
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            self.den * b.den,
        )

    def __rmul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b * self

    def __neg__(self):
        w, x, y, z = self.num
        return quaternion_from_ints(self.ring, -w, -x, -y, -z, self.den)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self):
        w, x, y, z = self.num
        return quaternion_from_ints(self.ring, w, -x, -y, -z, self.den)

    def norm(self):
        """The reduced norm w^2 + x^2 + y^2 + z^2, a nonnegative rational."""
        w, x, y, z = self.num
        return Fraction(w * w + x * x + y * y + z * z, self.den * self.den)

    def inv(self):
        w, x, y, z = self.num
        n = w * w + x * x + y * y + z * z
        if n == 0:
            raise DivisionByZero("inverse of 0")
        # conj(q) / |q|^2 with q = num / den is conj(num) * den / |num|^2
        d = self.den
        return quaternion_from_ints(self.ring, w * d, -x * d, -y * d, -z * d, n)

    def is_zero(self):
        return self.num == _ZERO4

    def __bool__(self):
        return self.num != _ZERO4

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Quaternion(self.ring, other, 0, 0, 0)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        parts = []
        for c, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if not c:
                continue
            if unit and c == 1:
                parts.append(unit)
            elif unit and c == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{c}{unit}")
        return " + ".join(parts) if parts else "0"


class QuaternionRing:
    """The rational quaternions: the stock noncommutative division ring."""

    def element(self, w, x=0, y=0, z=0):
        return Quaternion(self, w, x, y, z)

    def __call__(self, w, x=0, y=0, z=0):
        return Quaternion(self, w, x, y, z)

    def zero(self):
        return Quaternion(self, 0, 0, 0, 0)

    def one(self):
        return Quaternion(self, 1, 0, 0, 0)

    def i(self):
        return Quaternion(self, 0, 1, 0, 0)

    def j(self):
        return Quaternion(self, 0, 0, 1, 0)

    def k(self):
        return Quaternion(self, 0, 0, 0, 1)

    def from_int(self, m):
        return Quaternion(self, m, 0, 0, 0)

    @property
    def is_finite(self):
        return False

    @property
    def size(self):
        return None

    @property
    def kind(self):
        return "rational-quaternion"

    def elements(self):
        raise NotFinite("the rational quaternions are infinite")

    def random_element(self, rng, height=4):
        """Small random quaternion: numerators in [-height, height], denominators in [1, 3]."""
        def frac():
            return Fraction(rng.randint(-height, height), rng.randint(1, 3))
        return Quaternion(self, frac(), frac(), frac(), frac())

    def random_nonzero(self, rng, height=4):
        while True:
            a = self.random_element(rng, height)
            if not a.is_zero():
                return a

    def element_to_json(self, a):
        out = []
        for n in a.num:
            g = gcd(n, a.den)
            out.append(f"{n // g}/{a.den // g}")
        return out

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 4:
            raise ValueError("quaternion must be a list of four num/den strings")
        if any(isinstance(s, bool) for s in obj):
            raise ValueError(f"quaternion parts must be num/den strings, got {obj!r}")
        return Quaternion(self, *(Fraction(s) for s in obj))

    def spec_to_json(self):
        return {"kind": "rational-quaternion"}

    def __eq__(self, other):
        return isinstance(other, QuaternionRing)

    def __hash__(self):
        return hash("rational-quaternion")

    def __repr__(self):
        return "H(Q)"


def _is_json_int(obj):
    # JSON true/false decode to bool, a subclass of int; they are not integers here
    return isinstance(obj, int) and not isinstance(obj, bool)


def _spec_int(obj, key):
    val = obj[key]
    if not _is_json_int(val):
        raise ValueError(f"ring spec {key!r} must be an integer, got {val!r}")
    return val


def ring_from_json(obj):
    """Rebuild a coefficient ring from its JSON spec."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("ring spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "prime-field":
        if "k" in obj and _spec_int(obj, "k") != 1:
            raise ValueError(f"a prime-field spec needs k = 1, got k = {obj['k']}")
        return FiniteField(_spec_int(obj, "p"))
    if kind == "extension-field":
        modulus = obj.get("modulus")
        if modulus is not None and (not isinstance(modulus, list)
                                    or not all(map(_is_json_int, modulus))):
            raise ValueError(f"modulus must be a list of integers, got {modulus!r}")
        return FiniteField(_spec_int(obj, "p"), _spec_int(obj, "k"), modulus)
    if kind == "rational-quaternion":
        return QuaternionRing()
    raise ValueError(f"unknown ring kind {kind!r}")
