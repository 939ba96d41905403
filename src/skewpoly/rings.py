"""Exact arithmetic for the supported coefficient division rings.

Three rings are available: prime fields GF(p), extension fields GF(p^k)
in the power basis of an irreducible modulus, and the rational
quaternions.  All values are immutable and all operations are pure, so
elements can be shared freely between threads.

Finite-field elements are carried as a single integer ``val`` in
``[0, p^k)`` whose base-p digits are the power-basis coefficients
(constant digit first).  Ascending ``val`` therefore enumerates GF(4)
as 0, 1, w, w+1 where w is a root of the modulus.  Their arithmetic runs
on O(q)-size exp/log tables, plus Zech logarithms for odd p (see :class:`FiniteField`).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from operator import index, mul, xor

from .errors import DivisionByZero, InvalidInput, NotFinite, RingMismatch

# Codes, logarithms and Zech logarithms of fields up to this size all fit
# the unsigned 16-bit entries of the arithmetic tables.
_MAX_FIELD_SIZE = 1 << 16
# Decimal digits in the numerator and in the denominator of a quaternion
# part read from JSON (docs/wire_format.md).
QUATERNION_PART_LIMIT = 1000
# Decimal digits in the numerator and in the denominator of a quaternion
# part written out: Python's default limit for converting an int to a string.
QUATERNION_RESULT_LIMIT = 4300


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


def _poly_gcd(a, b, p):
    """Greatest common divisor of a and b over GF(p), monic when b is nonzero."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [c * inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(mod, p):
    """Rabin's test: a monic m of degree k is irreducible over GF(p) iff
    t^(p^k) = t mod m and gcd(t^(p^(k/r)) - t, m) = 1 for every prime
    r | k (M. O. Rabin, *Probabilistic algorithms in finite fields*,
    1980).  It costs k p-th powers modulo m instead of a divisor search.
    """
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    if k == 1:
        return True
    frob = [[0, 1], _poly_pow([0, 1], p, mod, p)]  # frob[j] = t^(p^j) mod m
    # a root in GF(p) shows at j = 1: the early exit for most reducible m
    if not _coprime_to_frobenius_minus_t(mod, frob[1], p):
        return False
    for _ in range(1, k):
        frob.append(_poly_pow(frob[-1], p, mod, p))
    if frob[k] != [0, 1]:
        return False
    return all(_coprime_to_frobenius_minus_t(mod, frob[k // r], p)
               for r in range(2, k + 1) if k % r == 0 and _is_prime(r))


def _coprime_to_frobenius_minus_t(mod, power, p):
    """Whether gcd(power - t, mod) = 1, power being some t^(p^j) mod mod."""
    diff = power + [0] * (2 - len(power))
    diff[1] = (diff[1] - 1) % p
    return _poly_gcd(mod, diff, p) == [1]


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


def _poly_pow(a, e, m, p):
    """a^e modulo the monic m, coefficients mod p."""
    out = [1]
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        e >>= 1
        if e:
            a = _poly_mod(_poly_mul(a, a, p), m, p)
    return out


def _primitive_code(n, power):
    """The smallest code g whose powers run through all n = q - 1 units,
    power(g, e) being the code of g^e.  t itself often is not one: it has
    order 51 in GF(2^8) and 21845 in GF(2^16) under the default moduli."""
    primes = {r for d in range(1, isqrt(n) + 1) if n % d == 0 for r in (d, n // d) if _is_prime(r)}
    for g in range(1, n + 1):
        if all(power(g, n // r) != 1 for r in primes):
            return g


def _span_codes(cols, p, add):
    """Images of the codes 0 .. p^len(cols) - 1 under the GF(p)-linear map
    sending digit position j to the code cols[j]."""
    out = [0]
    for col in cols:
        block = out
        for _ in range(p - 1):
            block = [add(v, col) for v in block]
            out.extend(block)  # in place: the field's p^len(cols) codes are copied once
    return out


def _build_tables(p, k, modulus):
    """exp, log and Zech-logarithm tables of GF(p)[t]/(modulus) over its
    primitive element g, with n = q - 1 (for p = 2 see _binary_tables):

    * ``exp[i]`` = g^i for 0 <= i < 2n, so a sum of two logs needs no reduction
    * ``log[a]`` = i with g^i = a for a != 0, and ``log[0]`` = n
    * ``zech[i]`` = log(1 + g^i), which is n where 1 + g^i = 0; None for p = 2

    For odd p, multiplication by g is GF(p)-linear: each step of the walk
    through the powers adds the images of the low and the high half of the
    digits, read from tables of p^ceil(k/2) and p^floor(k/2) entries.
    """
    q = p ** k
    n = q - 1
    if p == 2:
        return _binary_tables(k, n, _encode(modulus, 2))

    def add(a, b):
        return _encode([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)

    def power(g, e):
        return _encode(_poly_pow(_poly_trim(_digits(g, p, k)), e, modulus, p), p)
    a = _poly_trim(_digits(_primitive_code(n, power), p, k))
    cols = []  # g t^j
    for _ in range(k):
        cols.append(_encode(a, p))
        a = _poly_mod([0] + a, modulus, p)
    h = (k + 1) // 2
    split = p ** h
    low_images, high_images = _span_codes(cols[:h], p, add), _span_codes(cols[h:], p, add)
    exp = array("H", [0]) * (2 * n)
    log = array("H", [n]) * q
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = add(low_images[x % split], high_images[x // split])
    exp[n:] = exp[:n]
    # log(a + 1) for every code a: adding 1 changes only the constant digit
    log_succ = array("H", log)
    for d in range(p - 1):
        log_succ[d::p] = log[d + 1::p]
    log_succ[p - 1::p] = log[::p]
    zech = array("H", map(log_succ.__getitem__, islice(exp, n)))
    return exp, log, zech


def _binary_tables(k, n, m):
    """exp and log of GF(2^k), m the modulus's code, with no Python step per
    exp entry: multiplication by g^B is GF(2)-linear, so exp[B:2B] is exp[:B]
    mapped by it, byte plane by byte plane of the codes through 256-entry
    ``bytes.translate`` maps xor-ed as big ints (16 rounds for GF(2^16))."""
    def mul(a, b):  # the GF(2)[t] product of two codes, reduced by m
        out = 0
        for j in range(k):
            out ^= a if b >> j & 1 else 0
            a = a << 1 ^ m if a >> (k - 1) else a << 1
        return out
    planes = [b"\1", b"\0"]  # low and high bytes of exp[:size]
    size, step = 1, _primitive_code(n, lambda g, e: _power(g, e, 1, mul))  # step = g^size
    while size < n:
        maps, col = [], step  # col runs through g^size t^j, j < 16
        for _ in range(2):
            images = 0  # a byte's 256 images in 16-bit lanes, doubled by each bit j
            for j in range(8):
                lanes = int.from_bytes(col.to_bytes(2, "little") * (1 << j), "little")
                images |= (images ^ lanes) << (16 << j)
                col = col << 1 ^ m if col >> (k - 1) else col << 1
            words = images.to_bytes(512, "little")
            maps.append((words[0::2], words[1::2]))  # a byte -> its image's low, high byte
        planes = [plane + (int.from_bytes(planes[0].translate(maps[0][o]), "little")
                           ^ int.from_bytes(planes[1].translate(maps[1][o]), "little")
                           ).to_bytes(size, "little") for o, plane in enumerate(planes)]
        size, step = 2 * size, mul(step, step)
    codes = bytearray(4 * n)  # exp as 16-bit words in the machine's byte order
    big = sys.byteorder == "big"
    codes[big::2], codes[1 - big::2] = planes[0][:n] * 2, planes[1][:n] * 2
    exp = array("H", codes)
    log = array("H", [n]) * (n + 1)
    view = memoryview(log)  # its item assignment costs less than the array's
    for i, x in zip(range(n), exp):
        view[x] = i
    return exp, log, None


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


def _field_mul_add(p, exp, log, zech, units):
    """The kernel acc + a b on codes of the field of these tables: a xor
    when p = 2, otherwise one Zech step on the product's logarithm."""
    if p == 2:
        def mul_add(acc, a, b):
            return acc ^ exp[log[a] + log[b]] if a and b else acc
    else:
        def mul_add(acc, a, b):
            if not (a and b):
                return acc
            lp = log[a] + log[b]
            if not acc:
                return exp[lp]
            la = log[acc]
            d = lp - la  # in (-units, 2 units): a negative index wraps
            if d >= units:
                d -= units
            z = zech[d]
            return 0 if z == units else exp[la + z]
    return mul_add


def _power(a, e, one, mul=mul):
    """a^e by repeated squaring, one and mul being the unit and the product
    of a's ring; a negative e inverts a first."""
    if e < 0:
        a, e = a.inv(), -e
    out = one
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


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
            # the identity test settles the common case of one shared field
            if other.field is not self.field and other.field != self.field:
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
        return _power(self, e, self.field.one())

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.val == other.val and (
                other.field is self.field or self.field == other.field)
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        # equal elements share val; __eq__ still tells the fields apart
        return hash(self.val)

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
    Sizes above 2**16 are rejected: the arithmetic tables hold 16-bit
    entries.  The modulus is checked with Rabin's irreducibility test.

    Integer-code arithmetic reads tables over a primitive element g,
    built at construction in O(q) time and memory (the exp/log and
    Zech-logarithm tables of Lidl & Niederreiter, *Finite Fields*): a
    product is g^(log a + log b), an inverse g^(-log a), and for odd p a
    sum a + b = a (1 + g^(log b - log a)) = g^(log a + zech(log b - log a)).
    For p = 2 add_val and sub_val are the xor of the codes and there is no
    Zech table (see _build_tables for how each is built).  The kernel
    acc + a b of sums of products, mul_add_val, is one closure per field.
    """

    def __init__(self, p, k=1, modulus=None):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        # before _is_prime(p) and p ** k, whose cost grows with p and k
        if p > _MAX_FIELD_SIZE or k > 16 or p ** k > _MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds 2^16")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
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
        self._exp, self._log, self._zech = _build_tables(p, k, modulus)
        self._units = self.q - 1
        self._log_minus_one = self._log[p - 1]  # code p - 1 is the constant -1
        if p == 2:
            self.add_val = self.sub_val = xor
        self.mul_add_val = _field_mul_add(p, self._exp, self._log, self._zech, self._units)
        self._trace_dual = None

    # -- integer-code arithmetic -------------------------------------------

    def add_val(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a negative index wraps modulo q - 1, like the exponent it stands for
        z = self._zech[log[b] - la]
        return 0 if z == self._units else self._exp[la + z]

    def neg_val(self, a):
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub_val(self, a, b):
        return self.add_val(a, self.neg_val(b))

    def mul_val(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv_val(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[self._units - self._log[a]]

    # a code is canonical, so an open sum of mul_add_val is its own value
    close_val = staticmethod(index)

    def wrap_sums(self, pairs):
        """{key: the element of s} for the pairs (key, open sum s) whose sum
        is not zero."""
        return {key: FieldElement(self, s) for key, s in pairs if s}

    def trace_dual(self):
        """The codes of the trace-dual basis b_0, ..., b_(k-1) of the power
        basis, Tr(b_j t^i) = 1 if i = j else 0, computed once: with f the
        modulus and f(x) / (x - t) = sum_j beta_j x^j, b_j = beta_j / f'(t)
        (Euler; Lidl & Niederreiter, *Finite Fields*, ch. 2), k products
        and sums for the betas and k more for f'(t) and the quotients."""
        if self._trace_dual is None:
            p, f = self.p, self.modulus
            add, mul, t = self.add_val, self.mul_val, self.gen().val
            betas = [1]  # beta_(k-1) first: beta_(j-1) = f_j + t beta_j
            for fj in f[-2:0:-1]:
                betas.append(add(fj, mul(t, betas[-1])))
            betas.reverse()
            slope = 0  # f'(t) = sum_j j f_j t^(j-1), by Horner
            for j in range(len(f) - 1, 0, -1):
                slope = add(mul(slope, t), j * f[j] % p)
            scale = self.inv_val(slope)
            self._trace_dual = tuple(mul(b, scale) for b in betas)
        return self._trace_dual

    def unwrap(self, a):
        """The code of an element of this field; RingMismatch for any other value."""
        if isinstance(a, FieldElement) and (a.field is self or a.field == self):
            return a.val
        raise RingMismatch(f"{a!r} does not belong to {self}")

    def wrap(self, val):
        """The element of the code val."""
        return FieldElement(self, val)

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

    def additive_basis(self):
        """The power basis 1, t, ..., t^(k-1): a basis of GF(p^k) over GF(p)."""
        return [FieldElement(self, self.p ** j) for j in range(self.k)]

    def coordinates_val(self, a):
        """The digits of the code a on additive_basis(), codes of GF(p)."""
        return _digits(a, self.p, self.k)

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
_ONE = (1, 0, 0, 0, 1)
_new = object.__new__
# the least integer of more than QUATERNION_RESULT_LIMIT decimal digits
_RESULT_BOUND = 10 ** QUATERNION_RESULT_LIMIT


def _quat_value(w, x, y, z, den):
    """The ring value of the quaternion (w + x i + y j + z k) / den, from
    integers with den > 0: the int 0 for zero, otherwise the tuple
    (w, x, y, z, den) in normal form, with gcd(w, x, y, z, den) = 1.

    Equal quaternions have equal values, so values hash, compare and test
    for zero as plain tuples and ints.  Every *_val result and every
    compiled map application is normalized here, with one gcd; its den is
    a product of positive denominators, or a norm.  A sum of products
    (_quat_mul_add) is normalized once instead, when it is closed.
    """
    if not (w or x or y or z):
        return 0
    g = gcd(w, x, y, z, den)
    if g == 1:
        return w, x, y, z, den
    return w // g, x // g, y // g, z // g, den // g


def _quat_add_val(a, b):
    if not a:
        return b
    if not b:
        return a
    aw, ax, ay, az, da = a
    bw, bx, by, bz, db = b
    if da == db:
        # no cross-multiplication, but the sum may still share a factor with da
        return _quat_value(aw + bw, ax + bx, ay + by, az + bz, da)
    return _quat_value(aw * db + bw * da, ax * db + bx * da, ay * db + by * da,
                       az * db + bz * da, da * db)


def _quat_neg_val(a):
    if not a:
        return 0
    w, x, y, z, den = a
    return -w, -x, -y, -z, den


def _quat_sub_val(a, b):
    return _quat_add_val(a, _quat_neg_val(b))


def _quat_mul_val(a, b):
    if not (a and b):
        return 0
    aw, ax, ay, az, da = a
    bw, bx, by, bz, db = b
    return _quat_value(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
        da * db,
    )


def _quat_mul_add(acc, a, b):
    """acc + a b for ring values a, b and an open sum acc: the int 0 or
    numerators over a positive den in any terms, so a cancelled sum is a
    truthy (0, 0, 0, 0, den).  No gcd: the product joins acc on the larger
    den when one divides the other, and cross-multiplies otherwise."""
    if not (a and b):
        return acc
    aw, ax, ay, az, da = a
    bw, bx, by, bz, db = b
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    d = da * db
    if not acc:
        return w, x, y, z, d
    sw, sx, sy, sz, ds = acc
    if ds == d:
        return sw + w, sx + x, sy + y, sz + z, d
    if ds % d == 0:
        s = ds // d
        return sw + w * s, sx + x * s, sy + y * s, sz + z * s, ds
    if d % ds == 0:
        s = d // ds
        return sw * s + w, sx * s + x, sy * s + y, sz * s + z, d
    return sw * d + w * ds, sx * d + x * ds, sy * d + y * ds, sz * d + z * ds, ds * d


def _quat_close(s):
    """The ring value of the open sum s (see _quat_mul_add)."""
    return _quat_value(*s) if s else 0


def _quat_wrap_sums(ring, pairs):
    """{key: the quaternion of s} for the pairs (key, open sum s) whose sum
    is not zero, each normalized with one gcd."""
    out = {}
    for key, s in pairs:
        if s:
            w, x, y, z, den = s
            if w or x or y or z:
                g = gcd(w, x, y, z, den)
                q = out[key] = _new(Quaternion)
                q.ring = ring
                q.val = s if g == 1 else (w // g, x // g, y // g, z // g, den // g)
    return out


def _quat_inv_val(a):
    if not a:
        raise DivisionByZero("inverse of 0")
    w, x, y, z, den = a
    # conj(q) / |q|^2 with q = num / den is conj(num) * den / |num|^2
    return _quat_value(w * den, -x * den, -y * den, -z * den, w * w + x * x + y * y + z * z)


def _quat_wrap(ring, v):
    q = _new(Quaternion)
    q.ring = ring
    q.val = v
    return q


def _printable_parts(v):
    """The parts of the ring value v as (numerator, denominator) pairs in
    lowest terms, each checked against QUATERNION_RESULT_LIMIT before any
    is converted to a string."""
    w, x, y, z, den = v or (0, 0, 0, 0, 1)
    out = []
    for n in (w, x, y, z):
        g = gcd(n, den)
        n, d = n // g, den // g
        if not -_RESULT_BOUND < n < _RESULT_BOUND or d >= _RESULT_BOUND:
            raise InvalidInput(f"a quaternion part has a numerator or denominator of more than "
                               f"QUATERNION_RESULT_LIMIT = {QUATERNION_RESULT_LIMIT} digits")
        out.append((n, d))
    return out


class Quaternion:
    """A rational quaternion (w + x i + y j + z k) / den, held as its ring
    ``val``: the int 0 for zero, else the normal-form tuple
    (w, x, y, z, den) of _quat_value.

    ``num`` (the four integer numerators) and ``den`` read the value, and
    ``w``, ``x``, ``y``, ``z`` are read-only ``Fraction`` views of the parts.
    """

    __slots__ = ("ring", "val")

    def __init__(self, ring, w, x, y, z):
        parts = [p if isinstance(p, int) else Fraction(p) for p in (w, x, y, z)]
        den = lcm(*(p.denominator for p in parts))
        self.ring = ring
        self.val = _quat_value(*(p.numerator * (den // p.denominator) for p in parts), den)

    num = property(lambda self: self.val[:4] if self.val else _ZERO4)
    den = property(lambda self: self.val[4] if self.val else 1)
    w = property(lambda self: Fraction(self.num[0], self.den))
    x = property(lambda self: Fraction(self.num[1], self.den))
    y = property(lambda self: Fraction(self.num[2], self.den))
    z = property(lambda self: Fraction(self.num[3], self.den))

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.ring, other, 0, 0, 0)
        return None

    # the operand is mostly a Quaternion; _coerce takes ints and Fractions

    def __add__(self, other):
        b = other if type(other) is Quaternion else self._coerce(other)
        return NotImplemented if b is None else _quat_wrap(self.ring, _quat_add_val(self.val, b.val))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        return NotImplemented if b is None else _quat_wrap(self.ring, _quat_sub_val(self.val, b.val))

    def __rsub__(self, other):
        b = self._coerce(other)
        return NotImplemented if b is None else _quat_wrap(self.ring, _quat_sub_val(b.val, self.val))

    def __mul__(self, other):
        b = other if type(other) is Quaternion else self._coerce(other)
        return NotImplemented if b is None else _quat_wrap(self.ring, _quat_mul_val(self.val, b.val))

    def __rmul__(self, other):
        b = self._coerce(other)
        return NotImplemented if b is None else _quat_wrap(self.ring, _quat_mul_val(b.val, self.val))

    def __neg__(self):
        return _quat_wrap(self.ring, _quat_neg_val(self.val))

    def __pow__(self, e):
        return _power(self, e, self.ring.one())

    def conjugate(self):
        w, x, y, z = self.num
        return _quat_wrap(self.ring, _quat_value(w, -x, -y, -z, self.den))

    def norm(self):
        """The reduced norm w^2 + x^2 + y^2 + z^2, a nonnegative rational."""
        w, x, y, z = self.num
        return Fraction(w * w + x * x + y * y + z * z, self.den * self.den)

    def inv(self):
        return _quat_wrap(self.ring, _quat_inv_val(self.val))

    def is_zero(self):
        return not self.val

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.val == other.val
        if isinstance(other, (int, Fraction)):
            return self == Quaternion(self.ring, other, 0, 0, 0)
        return NotImplemented

    def __hash__(self):
        # a real quaternion equals its int or Fraction, so it hashes like it
        v = self.val
        if v and not (v[1] or v[2] or v[3]):
            return hash(Fraction(v[0], v[4]))
        return hash(v)

    def __repr__(self):
        parts = []
        for (n, d), unit in zip(_printable_parts(self.val), ("", "i", "j", "k")):
            if not n:
                continue
            if unit and d == 1 and n in (1, -1):
                parts.append(unit if n == 1 else f"-{unit}")
            else:
                parts.append(f"{n}{unit}" if d == 1 else f"{n}/{d}{unit}")
        return " + ".join(parts) if parts else "0"


class QuaternionRing:
    """The rational quaternions: the stock noncommutative division ring.

    A quaternion's ring value is the int 0 for zero and otherwise its
    normal-form tuple (w, x, y, z, den) (see _quat_value), so the value
    memos and eliminations over H hash and compare in C.  The *_val
    arithmetic, named as in FiniteField's code arithmetic, takes and
    returns these values; unwrap reads an element's value and wrap builds
    the element of a value.  A sum of products is built open, off the
    normal form, by mul_add_val, and read once, by close_val or wrap_sums.
    """

    add_val = staticmethod(_quat_add_val)
    sub_val = staticmethod(_quat_sub_val)
    neg_val = staticmethod(_quat_neg_val)
    mul_val = staticmethod(_quat_mul_val)
    inv_val = staticmethod(_quat_inv_val)
    mul_add_val = staticmethod(_quat_mul_add)
    close_val = staticmethod(_quat_close)
    wrap_sums = _quat_wrap_sums

    def unwrap(self, a):
        """The ring value of a quaternion; RingMismatch for any other value."""
        if isinstance(a, Quaternion) and (a.ring is self or a.ring == self):
            return a.val
        raise RingMismatch(f"{a!r} does not belong to {self}")

    # ring.wrap(v) is _quat_wrap(ring, v): the quaternion of the value v
    wrap = _quat_wrap

    def element(self, w, x=0, y=0, z=0):
        return Quaternion(self, w, x, y, z)

    def __call__(self, w, x=0, y=0, z=0):
        return Quaternion(self, w, x, y, z)

    def zero(self):
        return _quat_wrap(self, 0)

    def one(self):
        return _quat_wrap(self, _ONE)

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

    def additive_basis(self):
        """1, i, j, k: a basis of the quaternions over Q."""
        return [self.one(), self.i(), self.j(), self.k()]

    @staticmethod
    def coordinates_val(a):
        """The parts of the value a on additive_basis(), as real quaternion values."""
        return [_quat_value(x, 0, 0, 0, a[4]) for x in a[:4]] if a else _ZERO4

    def random_element(self, rng, height=4):
        """Small random quaternion: numerators in [-height, height], denominators in [1, 3]."""
        parts = [(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(4)]
        den = lcm(*(d for _, d in parts))
        return _quat_wrap(self, _quat_value(*(n * (den // d) for n, d in parts), den))

    def random_nonzero(self, rng, height=4):
        while True:
            a = self.random_element(rng, height)
            if not a.is_zero():
                return a

    def element_to_json(self, a):
        return [f"{n}/{d}" for n, d in _printable_parts(a.val)]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 4:
            raise ValueError("quaternion must be a list of four num/den strings")
        return Quaternion(self, *map(_quaternion_part, obj))

    def spec_to_json(self):
        return {"kind": "rational-quaternion"}

    def __eq__(self, other):
        return isinstance(other, QuaternionRing)

    def __hash__(self):
        return hash("rational-quaternion")

    def __repr__(self):
        return "H(Q)"


def _quaternion_part(s):
    """The rational of a wire part "[sign]num[/den]", den nonzero, each of num
    and den at most QUATERNION_PART_LIMIT decimal digits, checked before
    either is converted."""
    if isinstance(s, str) and len(s) <= 2 * QUATERNION_PART_LIMIT + 2:
        num, slash, den = (s[1:] if s[:1] in ("+", "-") else s).partition("/")
        if all(d.isascii() and d.isdigit() and len(d) <= QUATERNION_PART_LIMIT
               for d in ((num, den) if slash else (num,))) and (not slash or den.strip("0")):
            return Fraction(s)
    raise ValueError(f"quaternion parts must be num/den strings, den nonzero, of at most "
                     f"{QUATERNION_PART_LIMIT} digits each, got {s!r:.80}")


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
