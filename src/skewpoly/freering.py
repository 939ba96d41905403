"""Free multivariate skew polynomials and their degree-additive product.

Monomials are words over the variables x_1..x_n, stored as tuples of
1-based indices; the empty tuple is the monomial 1.  A polynomial is a
finite map word -> nonzero left coefficient.

The monomial order used everywhere (leading terms, division, the row
order of Vandermonde matrices) is graded, then lexicographic reading
words from their rightmost character, with x_1 < x_2 < ... < x_n.
Appending a variable on the right preserves the order, which is what
the division algorithm needs.

The product and division both push coefficients leftward through words.
That kernel works on words as integer nodes of a per-call hash-consed
table (PushMemo): a node is its prefix's node plus one letter, so one
push level costs a few dict steps whatever the length of the word, and
a node's tuple is spelled out only when a result needs it.  Coefficients
are ring values there, not elements (the code over GF(p^k), the
normal-form tuple (w, x, y, z, den) over H, 0 for zero in both), which
the memos hash and compare in C: the ring's unwrap checks each one where
it enters, its *_val arithmetic combines them, and its wrap builds each
result element once.  When sigma is not diagonal or delta is not zero,
one push can make exponentially many words, so mul and divide refuse a
job predicted past PUSH_TERM_LIMIT words before the first push.
"""

from __future__ import annotations

from itertools import product as _cartesian
from operator import add as _add

from .errors import InvalidInput, RingMismatch, ZeroPolynomial
from .rings import FieldElement, Quaternion


class _Bottom:
    """Degree of the zero polynomial.

    A dedicated sentinel rather than a numeric infinity: accidental
    arithmetic on it raises immediately instead of propagating a junk
    degree.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


def mono_key(word):
    """Sort key realizing the global monomial order."""
    return (len(word), word[::-1])


def monomials_of_degree(n, d):
    """All words of length d over n variables, ascending in the global order."""
    for rev in _cartesian(range(1, n + 1), repeat=d):
        yield rev[::-1]


def monomials_below(n, d):
    """All monomials of degree < d, ascending in the global order."""
    out = []
    for e in range(d):
        out.extend(monomials_of_degree(n, e))
    return out


def count_monomials_below(n, d):
    return sum(n ** e for e in range(d))


def word_times_constant(frame, word, a, memo=None):
    """Expand (word) * a as a dict word -> coefficient.

    Pushes a leftward through the word one character at a time starting
    from the right end:

        (m x_i) a = sum_j m (sigma_ij(a) x_j) + m (delta_i(a))

    Degree of every emitted word is at most len(word).  Pass one
    PushMemo to several calls over the same frame to share their pushes.
    """
    if memo is None:
        memo = PushMemo()
    ring, spell = frame.ring, memo.word
    pushed = _push(frame, memo.node(word), ring.unwrap(a), memo)
    return {spell(v): ring.wrap(c) for v, c in pushed.items()}


# Most words the pushes of one mul or divide may produce, as predicted
# before the first push.
PUSH_TERM_LIMIT = 1 << 22


def _push_words(frame, word):
    """The most words one push through word can make: the product of
    frame.branching over its letters, and no more than the words of at
    most len(word) letters.  Once past PUSH_TERM_LIMIT the product stops,
    a lower bound that is still over the limit."""
    branching, words = frame.branching, 1
    for i in word:
        words *= branching[i - 1]
        if words > PUSH_TERM_LIMIT:
            break
    return min(words, _words_up_to(frame.n, len(word)))


def _product_words(F, G):
    """The most words the pushes of F * G can make: _push_words of each
    term of F, once per term of G.  The bound at F's degree with the
    largest branching is tried first, sparing the per-letter products
    when it is within PUSH_TERM_LIMIT."""
    frame, pairs = F.frame, len(F.terms) * len(G.terms)
    top = max(frame.branching)
    if top == 1 or not pairs:
        return pairs
    degree = max(map(len, F.terms))
    words = pairs * min(top ** degree, _words_up_to(frame.n, degree))
    if words <= PUSH_TERM_LIMIT:
        return words
    return len(G.terms) * sum(_push_words(frame, u) for u in F.terms)


def _words_up_to(n, length):
    """The number of words of at most length letters over n variables."""
    return length + 1 if n == 1 else (n ** (length + 1) - 1) // (n - 1)


def _divide_words(frame, terms):
    """The most words the pushes of dividing the given terms can make.

    A kill of a word of l letters pushes through its prefix, and no word
    is killed twice.  When every branching is 1, each push makes one word
    and a term u is killed once per length: |u| words.  Otherwise at most
    all n^l words of l letters are killed, each push making at most
    min(b^(l-1), words of at most l - 1 letters), b the largest branching:
    the sum over l up to the largest degree, stopped once past the limit.
    """
    top, n = max(frame.branching), frame.n
    if top == 1:
        return sum(map(len, terms))
    words = 0
    for length in range(1, max(map(len, terms), default=0) + 1):
        words += n ** length * min(top ** (length - 1), _words_up_to(n, length - 1))
        if words > PUSH_TERM_LIMIT:
            break
    return words


def _check_push_budget(words, what):
    if words > PUSH_TERM_LIMIT:
        raise InvalidInput(
            f"{what} predicts at least {words} pushed words, over the limit of {PUSH_TERM_LIMIT}")


class PushMemo:
    """The pushes of one call, over a hash-consed table of its words.

    Words are integer nodes: node 0 is the empty word, and node v is the
    word of node parent[v] followed by the letter letter[v], with
    depth[v] letters.  children[v] maps a letter i to the node of word v
    followed by i, so appending a letter is one dict step and equal
    words are equal nodes.  spelled[v] is the tuple of node v, or None
    until it is first asked for; it is built at most once.  pushed maps
    (node, ring value) to the push result {node: nonzero ring value}, the
    values being those of the frame's ring (see its unwrap).

    A memo serves one frame and lives as long as the call that made it.
    """

    __slots__ = ("parent", "letter", "depth", "children", "spelled", "pushed")

    def __init__(self):
        self.parent = [0]
        self.letter = [0]
        self.depth = [0]
        self.children = [{}]
        self.spelled = [()]
        self.pushed = {}

    def append(self, v, i):
        """The node of word v followed by letter i."""
        kids = self.children[v]
        w = kids.get(i)
        if w is None:
            w = kids[i] = len(self.parent)
            self.parent.append(v)
            self.letter.append(i)
            self.depth.append(self.depth[v] + 1)
            self.children.append({})
            self.spelled.append(None)
        return w

    def node(self, word):
        """The node of a word given as a tuple of letters."""
        children = self.children
        v = 0
        for i in word:
            w = children[v].get(i)
            v = self.append(v, i) if w is None else w
        if self.spelled[v] is None:
            self.spelled[v] = tuple(word)
        return v

    def word(self, v):
        """The tuple of letters of node v."""
        spelled = self.spelled
        t = spelled[v]
        if t is None:
            # walk up to the nearest spelled ancestor, then spell the rest
            tail = []
            u = v
            while spelled[u] is None:
                tail.append(self.letter[u])
                u = self.parent[u]
            tail.reverse()
            t = spelled[v] = spelled[u] + tuple(tail)
        return t


# Most letters one recursive push descends.  A longer word is cut every
# _PUSH_DEPTH letters, so the Python stack stays shallow for any length.
_PUSH_DEPTH = 512


def _push(frame, v, a, memo):
    """(word) * a for the word of node v of memo and a ring value a, as a
    dict node -> left coefficient (a ring value); memoized per (node,
    value) in memo.pushed.

    The word of a node deeper than _PUSH_DEPTH letters is first swept
    from its right end, level by level up the parent nodes, collecting
    the coefficients still to be pushed through each prefix whose length
    is a multiple of _PUSH_DEPTH and that the memo lacks.  Pushing
    those, shortest prefix first, fills the memo, so the final push
    recurses through at most _PUSH_DEPTH letters.
    """
    if not a:
        return {}
    pushed = memo.pushed
    depth = memo.depth[v]
    if depth > _PUSH_DEPTH and (v, a) not in pushed:
        parent, letter = memo.parent, memo.letter
        cuts = []
        need = {a: None}
        u = v
        for k in range(depth, _PUSH_DEPTH, -1):
            i = letter[u] - 1
            u = parent[u]
            nxt = {}
            for c in need:
                for _, s in frame.sigma_val(c)[i]:
                    nxt[s] = None
                d = frame.delta_val(c)[i]
                if d:
                    nxt[d] = None
            need = nxt
            if (k - 1) % _PUSH_DEPTH == 0:
                need = {c: None for c in need if (u, c) not in pushed}
                if not need:
                    break
                cuts.append((u, need))
        for u, coeffs in reversed(cuts):
            for c in coeffs:
                _push_recursive(frame, u, c, memo)
    return _push_recursive(frame, v, a, memo)


def _push_recursive(frame, v, a, memo):
    """(m x_i) a = sum_j m (sigma_ij(a) x_j) + m (delta_i(a)) for a ring
    value a != 0, recursing on the node of m, which is parent[v]; i is
    letter[v]."""
    if not v:
        return {0: a}
    key = (v, a)
    pushed = memo.pushed
    hit = pushed.get(key)
    if hit is not None:
        return hit
    prefix, i = memo.parent[v], memo.letter[v] - 1
    out = {}
    children = memo.children
    for j, c in frame.sigma_val(a)[i]:
        # words ending in different letters differ: no sums needed
        for w, coeff in _push_recursive(frame, prefix, c, memo).items():
            u = children[w].get(j)
            out[memo.append(w, j) if u is None else u] = coeff
    d = frame.delta_val(a)[i]
    if d:
        add = frame.ring.add_val
        for w, coeff in _push_recursive(frame, prefix, d, memo).items():
            _accumulate(out, w, coeff, add)
    pushed[key] = out
    return out


def _accumulate(terms, w, c, add=_add):
    """terms[w] = add(terms[w], c), dropping the entry when the sum is zero;
    on elements by default, on ring values with the ring's add_val."""
    cur = terms.get(w)
    new = c if cur is None else add(cur, c)
    if new:
        terms[w] = new
    else:
        terms.pop(w, None)


class SkewPolynomial:
    """Sparse skew polynomial with left coefficients over a fixed frame.

    Treat instances as immutable; all arithmetic allocates fresh term
    maps.  Two polynomials interoperate only when they share the same
    frame object.
    """

    __slots__ = ("frame", "terms")

    def __init__(self, frame, terms):
        self.frame = frame
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Maximum word length, or BOTTOM for the zero polynomial."""
        if not self.terms:
            return BOTTOM
        return max(len(w) for w in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def coefficient(self, word):
        c = self.terms.get(tuple(word))
        return c if c is not None else self.frame.ring.zero()

    def sorted_terms(self, reverse=True):
        """(word, coeff) pairs, leading term first by default."""
        return [(w, self.terms[w]) for w in sorted(self.terms, key=mono_key, reverse=reverse)]

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SkewPolynomial):
            return None
        if other.frame is not self.frame:
            raise RingMismatch("polynomials built over different frames")
        return other

    def _coerce(self, other):
        if isinstance(other, SkewPolynomial):
            return self._check(other)
        if isinstance(other, int):
            return constant(self.frame, self.frame.ring.from_int(other))
        if _is_ring_element(self.frame.ring, other):
            return constant(self.frame, other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        out = dict(self.terms)
        for w, c in g.terms.items():
            _accumulate(out, w, c)
        return SkewPolynomial(self.frame, out)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __neg__(self):
        return SkewPolynomial(self.frame, {w: -c for w, c in self.terms.items()})

    def scale_left(self, c):
        """c * self with the scalar acting on the left."""
        if c.is_zero():
            return zero(self.frame)
        return SkewPolynomial(self.frame, {w: c * coeff for w, coeff in self.terms.items()})

    def __rmul__(self, other):
        # element * poly and int * poly are left scalar actions
        if isinstance(other, int):
            return self.scale_left(self.frame.ring.from_int(other))
        if _is_ring_element(self.frame.ring, other):
            return self.scale_left(other)
        return NotImplemented

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return mul(self, g)

    def __eq__(self, other):
        if isinstance(other, SkewPolynomial):
            return self.frame is other.frame and self.terms == other.terms
        if isinstance(other, int) or _is_ring_element(self.frame.ring, other):
            g = self._coerce(other)
            return self.terms == g.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- rendering -------------------------------------------------------------

    def to_text(self):
        """Human-readable rendering: terms "coeff*x1.x2" joined by " + "."""
        if not self.terms:
            return "0"
        chunks = []
        for w, c in self.sorted_terms():
            mono = ".".join(f"x{i}" for i in w) if w else "1"
            chunks.append(f"{c!r}*{mono}")
        return " + ".join(chunks)

    def to_json(self):
        enc = self.frame.ring.element_to_json
        return [
            {"monomial": list(w), "coeff": enc(c)} for w, c in self.sorted_terms()
        ]

    def __repr__(self):
        return self.to_text()


def _is_ring_element(ring, x):
    """Whether x is a ring element at all; RingMismatch (from the ring's
    unwrap) when it is an element of another ring."""
    if isinstance(x, (FieldElement, Quaternion)):
        ring.unwrap(x)
        return True
    return False


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def zero(frame):
    return SkewPolynomial(frame, {})


def one(frame):
    return constant(frame, frame.ring.one())


def constant(frame, c):
    return SkewPolynomial(frame, {(): c})


def variable(frame, i):
    """The polynomial x_i (1-based index)."""
    if not 1 <= i <= frame.n:
        raise ValueError(f"variable index {i} out of range 1..{frame.n}")
    return SkewPolynomial(frame, {(i,): frame.ring.one()})


def check_word(frame, word):
    """The word as a tuple of variable indices, each an int (not a bool)
    in 1..n."""
    word = tuple(word)
    n = frame.n
    for i in word:
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"variable index {i!r} is not an integer in 1..{n}")
    return word


def monomial(frame, word, coeff=None):
    if coeff is None:
        coeff = frame.ring.one()
    frame.ring.unwrap(coeff)
    return SkewPolynomial(frame, {check_word(frame, word): coeff})


def from_terms(frame, pairs):
    """Polynomial from (word, coeff) pairs of this frame's ring (see its
    unwrap); repeated words accumulate."""
    terms = {}
    for w, c in pairs:
        frame.ring.unwrap(c)  # a method call: no bound method is built
        _accumulate(terms, check_word(frame, w), c)
    return SkewPolynomial(frame, terms)


def monomial_from_json(frame, obj):
    """A job monomial: a list of JSON integers, each in 1..n."""
    if not isinstance(obj, list):
        raise ValueError(f"monomial must be a list of variable indices, got {obj!r}")
    return check_word(frame, obj)


def poly_from_json(frame, obj):
    if not isinstance(obj, list):
        raise ValueError("polynomial must be a list of term objects")
    dec = frame.ring.element_from_json
    return from_terms(frame, ((monomial_from_json(frame, t["monomial"]), dec(t["coeff"]))
                              for t in obj))


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def mul_monomial_constant(frame, word, a):
    """The product (word) * a as a polynomial of degree <= len(word)."""
    return SkewPolynomial(frame, word_times_constant(frame, tuple(word), a))


def mul(F, G):
    """The unique degree-additive ring product.

    Each left coefficient of G is pushed through the corresponding
    monomial of F, and G's monomial is appended on the right; on bare
    monomials this is concatenation.  A product whose pushes
    _product_words predicts to make more than PUSH_TERM_LIMIT words is
    refused before the first push.
    """
    if F.frame is not G.frame:
        raise RingMismatch("polynomials built over different frames")
    frame = F.frame
    ring = frame.ring
    unwrap, add, times = ring.unwrap, ring.add_val, ring.mul_val
    g_terms = [(nw, unwrap(gc)) for nw, gc in G.terms.items()]
    _check_push_budget(_product_words(F, G), "the product")
    out = {}
    memo = PushMemo()
    spelled = memo.spelled
    for mw, fc in F.terms.items():
        fc = unwrap(fc)
        v = memo.node(mw)
        for nw, gc in g_terms:
            for w, c in _push(frame, v, gc, memo).items():
                t = spelled[w]
                _accumulate(out, (memo.word(w) if t is None else t) + nw, times(fc, c), add)
    wrap = ring.wrap
    return SkewPolynomial(frame, {w: wrap(c) for w, c in out.items()})
