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
A push is linear, u a = sum_w P_(u,w)(a) w with each P_(u,w) additive
(Leroy's pseudo-linear maps), so each word of a frame's hash-consed word
table (PushMemo) carries its push list of (output word, compiled map),
built once from its parent's by x_i a = sum_j sigma_ij(a) x_j + delta_i(a),
and a push is one map image per output word, whatever the word's length;
when sigma is diagonal and delta zero the list is the one map sigma_u.
Coefficients there are ring values, not elements (the code over GF(p^k),
the normal-form tuple (w, x, y, z, den) over H, 0 for zero in both),
which the memos hash and compare in C: the ring's unwrap checks each one
where it enters.  mul, divide and reconstruct read a word's push list
themselves and add each nonzero image, times its coefficient, into the
ring's open sums (mul_add_val): off the normal form over H, numerators
over one denominator, and the images come open too (frames.PushMap), so
no image pays a gcd of its own.  Open sums never reach a memo key; the
ring's wrap_sums closes a result dict once, drops the sums that cancel,
and builds each result element once.  When sigma is not diagonal or delta
is not zero, one push can make exponentially many words, so mul and
divide refuse a job predicted past PUSH_TERM_LIMIT words before the first
push.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as _cartesian
from math import comb
from operator import add as _add, itemgetter

from . import frames
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
    """The number of monomials of degree < d over n variables."""
    if d <= 0:
        return 0
    return d if n == 1 else (n ** d - 1) // (n - 1)


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
    return min(words, count_monomials_below(frame.n, len(word) + 1))


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
    words = pairs * min(top ** degree, count_monomials_below(frame.n, degree + 1))
    if words <= PUSH_TERM_LIMIT:
        return words
    return len(G.terms) * sum(_push_words(frame, u) for u in F.terms)


def _divide_words(frame, terms):
    """The most words the pushes of dividing the given terms can make.

    A kill of a word of l letters pushes through its prefix, and no word
    is killed twice.  When every branching is 1, each push makes one word,
    and a term u is killed once per length.  Otherwise at most n^l words
    of l letters are killed, each push making at most min(b^(l-1), words
    of at most l - 1 letters), b the largest branching.  And a word the
    division meets holds l of u's letters, each turned into one of the at
    most alpha letters it reaches through nonzero sigma entries, whose
    branchings sum to at most beta: their pushes make at most
    alpha beta^(l-1) C(|u|, l) words, summed over the terms u (frame.reach
    holds alpha and beta).  The smaller bound is summed over l up to the
    largest degree, stopped past the limit.
    """
    branching, n = frame.branching, frame.n
    if max(branching) == 1:
        return sum(map(len, terms))
    alpha, beta = frame.reach
    sizes, words = Counter(map(len, terms)), 0
    for length in range(1, max(sizes, default=0) + 1):
        bound = n ** length * min(max(branching) ** (length - 1), count_monomials_below(n, length))
        weight = alpha * beta ** (length - 1)
        if weight < bound:  # else it loses: the sum of the C(|u|, l) is at least 1
            bound = min(bound, weight * sum(k * comb(size, length) for size, k in sizes.items()))
        words += bound
        if words > PUSH_TERM_LIMIT:
            break
    return words


def _check_push_budget(words, what):
    if words > PUSH_TERM_LIMIT:
        raise InvalidInput(
            f"{what} predicts at least {words} pushed words, over the limit of {PUSH_TERM_LIMIT}")


class PushMemo:
    """A hash-consed table of words and their push lists.

    Words are integer nodes: node 0 is the empty word, and node v is the
    word of node parent[v] followed by the letter letter[v], with
    depth[v] letters.  children maps (v, i) to the node of word v followed
    by the letter i, one dict for the whole table, so appending a letter is
    one dict step and equal words are equal nodes.  spelled[v] is the tuple
    of node v, or None until it is first asked for, and letters counts the
    letters spelled.  pushes[v] is the push list of word v (see
    _push_list), or None until a push needs it; size counts the nodes and
    the entries of the lists, so a chain of L nodes counts L, not the
    L(L + 1)/2 letters of their words.  last is the node node() returned
    last.  A memo serves one frame: mul, divide and reconstruct share the
    frame's own (frame_memo) across calls.
    """

    __slots__ = ("parent", "letter", "depth", "children", "spelled", "letters", "pushes",
                 "size", "last")

    def __init__(self):
        self.parent = [0]
        self.letter = [0]
        self.depth = [0]
        self.children = {}
        self.spelled = [()]
        self.letters = 0
        self.pushes = [None]
        self.size = 0
        self.last = 0

    def append(self, v, i):
        """The node of word v followed by letter i."""
        w = self.children.get((v, i))
        if w is None:
            w = self.children[v, i] = len(self.parent)
            self.parent.append(v)
            self.letter.append(i)
            self.depth.append(self.depth[v] + 1)
            self.spelled.append(None)
            self.pushes.append(None)
            self.size += 1
        return w

    def node(self, word):
        """The node of a word given as a tuple of letters.

        A word that extends, or is a prefix of, the word of the previous
        call is walked from that word's node, so the L nested prefixes of
        a quotient cost O(L) dict steps, not O(L^2).
        """
        word = tuple(word)
        v, rest = self.last, word
        prev = self.spelled[v]
        if word[:len(prev)] == prev:
            rest = word[len(prev):]
        elif prev[:len(word)] == word:
            parent = self.parent
            for _ in range(len(prev) - len(word)):
                v = parent[v]
            rest = ()
        else:
            v = 0
        children = self.children
        for i in rest:
            w = children.get((v, i))
            v = self.append(v, i) if w is None else w
        if self.spelled[v] is None:
            self.spelled[v] = word
            self.letters += len(word)
        self.last = v
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
            self.letters += len(t)
        return t


def frame_memo(frame):
    """The frame's PushMemo, a new one once its size reaches
    frames._MEMO_LIMIT; a call takes it once, so it keeps its nodes.  Once
    its spellings hold that many letters they are forgotten, and the nodes
    and lists kept."""
    memo = frame._push_memo
    if memo is None or memo.size >= frames._MEMO_LIMIT:
        memo = frame._push_memo = PushMemo()
    elif memo.letters >= frames._MEMO_LIMIT:
        memo.spelled = [()] + [None] * (len(memo.parent) - 1)
        memo.letters = memo.last = 0
    return memo


def _push(frame, v, a, memo):
    """(word) * a for the word u of node v of memo and a ring value a, as a
    dict node -> nonzero left coefficient (a closed ring value): one image
    P_(u,w)(a) per pair (w, P_(u,w)) of u's push list memo.pushes[v] (see
    _push_list and frames.PushMap), zero images dropped.  mul, divide and
    reconstruct read the list the same way but add each open image to their
    sums in place; this reader closes each one (the ring's close_val)."""
    pushes = (memo.pushes[v] or _push_list(frame, v, memo)) if a else ()
    images = ((w, m.apply(a)) for w, m in pushes)
    return {w: frame.ring.close_val(c) for w, c in images if c}


_second = itemgetter(1)


def _push_list(frame, v, memo):
    """The push list of node v, built parent first from the nearest node
    that has one; the empty word's is the identity on itself.  As (m x_i) a
    = sum_j m (sigma_ij(a) x_j) + m delta_i(a), the list of u x_i takes
    P_(u,w) o sigma_ij on w x_j and P_(u,w) o delta_i on w for each pair
    (w, P_(u,w)) of u's list (Frame.push_after), summing the maps that meet
    on one word and dropping zero sums."""
    lists, parent, letter, path = memo.pushes, memo.parent, memo.letter, []
    while lists[v] is None and v:
        path.append(v)
        v = parent[v]
    pushes = lists[v]
    if pushes is None:
        pushes = lists[0] = ((0, frame.push_identity()),)
        memo.size += 1
    after, add, children, size = frame.push_after, frame.push_sum, memo.children, 0
    for u in reversed(path):
        i = letter[u]
        steps = len(pushes) == 1 and (pushes[0][1].after.get(i) or after(pushes[0][1], i))
        if steps and len(steps) == 1:  # one pair, one step, as on every diagonal frame
            (w, _), ((j, f),) = pushes[0], steps
            pushes = ((children.get((w, j)) or memo.append(w, j)) if j else w, f),
        else:
            out = {}
            for w, m in pushes:
                for j, f in m.after.get(i) or after(m, i):
                    x = (children.get((w, j)) or memo.append(w, j)) if j else w
                    g = out.get(x)
                    out[x] = f if g is None else add(g, f)
            pushes = tuple(filter(_second, out.items()))  # zero sums are None
        lists[u] = pushes
        size += len(pushes)
    memo.size += size
    return pushes


def _accumulate(terms, w, c, add=_add):
    """terms[w] = add(terms[w], c), dropping the entry when the sum is zero;
    on elements by default, on ring values with the ring's add_val.  The
    sums of products in mul, divide, reconstruct and evaluate run on the
    ring's open sums instead (mul_add_val)."""
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

    @classmethod
    def _made(cls, frame, terms):
        """The polynomial of terms with no zero coefficient, not tested again."""
        F = object.__new__(cls)
        F.frame, F.terms = frame, terms
        return F

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
    return mul(monomial(frame, word), constant(frame, a))


def mul(F, G):
    """The unique degree-additive ring product.

    Each left coefficient of G is pushed through the corresponding
    monomial of F, one image per pair of its push list, and G's monomial
    is appended on the right; on bare monomials this is concatenation.  A
    product whose pushes _product_words predicts to make more than
    PUSH_TERM_LIMIT words is refused before the first push.
    """
    if F.frame is not G.frame:
        raise RingMismatch("polynomials built over different frames")
    frame = F.frame
    ring = frame.ring
    unwrap, mul_add = ring.unwrap, ring.mul_add_val
    g_terms = [(nw, unwrap(gc)) for nw, gc in G.terms.items()]
    _check_push_budget(_product_words(F, G), "the product")
    out = {}  # word -> open sum
    memo = frame_memo(frame)
    spelled = memo.spelled
    for mw, fc in F.terms.items():
        fc = unwrap(fc)
        v = memo.node(mw)
        pushes = (memo.pushes[v] or _push_list(frame, v, memo)) if g_terms else ()
        for nw, gc in g_terms:
            for w, m in pushes:
                c = m.apply(gc)  # open over H: added to the sum, not closed alone
                if c:
                    t = spelled[w]
                    x = (memo.word(w) if t is None else t) + nw
                    out[x] = mul_add(out.get(x, 0), fc, c)
    return SkewPolynomial._made(frame, ring.wrap_sums(out.items()))
