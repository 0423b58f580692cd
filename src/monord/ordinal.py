"""Ordinal arithmetic below epsilon_0.

Ordinals are kept in hereditary Cantor normal form: a sum
w^g1 * c1 + ... + w^gk * ck with g1 > g2 > ... > gk and positive integer
coefficients, where the exponents are themselves ordinals in the same form.
The arithmetic provided here is the commutative (Hessenberg) natural sum
and natural product, which is what order-type bookkeeping for well partial
orders needs.  An Ord wraps its *form*, the nested tuple
((g1, c1), ..., (gk, ck)) whose exponents are forms and where () is zero;
tuple order on forms is the ordinal order.

Forms are kept sorted, so the natural sum is one merge of two sorted forms
(_sum), or their concatenation when one lies wholly above the other, and
the natural product forms each of its |f|*|g| exponent sums by that merge,
adding the coefficients of equal exponents in one dict sorted once (_prod).
The parser cuts its text into tokens with one regular-expression scan and
reads them in one loop, with no call per character.  The paper's two
ordinal answers, the bounds on the maximal order type (bounds_report) and
the height psi(E) (_psi_of), are built here as forms, and nowhere else.
"""

import re
from functools import total_ordering
from math import comb

from .errors import (DataError, ParseError, Value, check_dim, digit_limited,
                     natural)

# Parenthesised exponents nest at most this deep in parse_ordinal, and
# Ord(terms) and omega_pow refuse forms deeper than parse_ordinal builds.
# Parsing and printing are loops, but CPython itself recurses when it
# compares, hashes or pickles a nested form, so the cap keeps those far from
# its recursion limit.
MAX_NESTING = 100


@total_ordering
class Ord(Value, fields=("form",)):
    """An ordinal below epsilon_0 in Cantor normal form.

    A value over ``form`` (errors.Value), printed as ``Ord[...]`` in the
    textual syntax.  ``terms`` is a tuple of (exponent, coefficient) pairs
    with strictly decreasing Ord exponents and coefficients >= 1; ``form``
    is the same with exponent forms.
    """

    __slots__ = ("form",)

    def __init__(self, terms=()):
        try:
            terms = tuple((e, c) for e, c in terms)
        except (TypeError, ValueError):
            raise DataError(f"bad CNF terms {terms!r}") from None
        for i, (e, c) in enumerate(terms):
            if not isinstance(e, Ord):
                raise DataError(f"bad CNF term {terms[i]!r}")
            natural(c, "bad CNF term: coefficient", 1)
            if i > 0 and terms[i - 1][0].form <= e.form:
                raise DataError("CNF exponents must strictly decrease")
        form = tuple((e.form, c) for e, c in terms)
        depth, g = 0, form
        while g:  # a larger ordinal never nests less deeply
            depth, g = depth + 1, g[0][0]
        if depth > MAX_NESTING + 3:  # w^( MAX_NESTING times, then w^w
            raise DataError(f"ordinal nests deeper than {MAX_NESTING + 3}")
        self._set("form", form)

    def __reduce__(self):
        # pickles and copies go through __init__, so each load is checked
        return (Ord, (self.terms,))

    @property
    def terms(self):
        return tuple((Ord._of(g), c) for g, c in self.form)

    @staticmethod
    def from_int(n):
        return Ord._of(_finite(natural(n, "ordinal")))

    def is_zero(self):
        return not self.form

    def is_finite(self):
        return not self.form or (len(self.form) == 1 and not self.form[0][0])

    def to_int(self):
        """The integer value of a finite ordinal."""
        if not self.is_finite():
            raise DataError(f"{self} is infinite")
        return self.form[0][1] if self.form else 0

    def is_limit(self):
        return bool(self.form) and bool(self.form[-1][0])

    def __lt__(self, other):
        if not isinstance(other, Ord):
            return NotImplemented
        return self.form < other.form

    def __add__(self, other):
        return nat_sum(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return nat_prod(self, other)

    __rmul__ = __mul__

    def __str__(self):
        return format_ordinal(self)

    def __repr__(self):
        return f"Ord[{format_ordinal(self)}]"


def _coerce(x):
    """x as an Ord: an Ord itself, or a natural number."""
    return x if isinstance(x, Ord) else Ord.from_int(x)


def _finite(n):  # the form of a natural number n
    return (((), n),) if n else ()


ZERO = Ord()
ONE = Ord.from_int(1)
OMEGA = Ord(((ONE, 1),))


def cmp(a, b):
    """Three-way comparison of two ordinals: -1, 0, or 1."""
    if not (isinstance(a, Ord) and isinstance(b, Ord)):
        raise DataError(f"cmp compares two ordinals, not {a!r} and {b!r}")
    return (a.form > b.form) - (a.form < b.form)


def _sum(f, g):
    """The form of the natural sum of forms f and g, by one merge of their
    decreasing exponents that adds the coefficients of equal ones; f + g
    when f lies wholly above g, and g + f when g lies wholly above f."""
    if not (f and g):
        return f or g
    if f[-1][0] > g[0][0]:
        return f + g
    if g[-1][0] > f[0][0]:
        return g + f
    out, i, j, m, n = [], 0, 0, len(f), len(g)
    while i < m and j < n:
        a, b = f[i], g[j]
        if a[0] > b[0]:
            out.append(a)
            i += 1
        elif a[0] == b[0]:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
        else:
            out.append(b)
            j += 1
    return (*out, *f[i:], *g[j:])


def _prod(f, g):
    """The form of the natural product of forms f and g: the terms
    w^(ea (+) eb)*(ca*cb), each exponent a merge, whose coefficients add up
    per exponent in one dict that is sorted once."""
    coeffs = {}
    for ea, ca in f:
        for eb, cb in g:
            e = _sum(ea, eb)
            coeffs[e] = coeffs.get(e, 0) + ca * cb
    return tuple(sorted(coeffs.items(), reverse=True))


def nat_sum(a, b):
    """Hessenberg natural sum: merge the CNF terms exponent by exponent."""
    return Ord._of(_sum(_coerce(a).form, _coerce(b).form))


def nat_prod(a, b):
    """Hessenberg natural product, distributing over natural sums of terms."""
    return Ord._of(_prod(_coerce(a).form, _coerce(b).form))


def nat_pow(a, n):
    """Iterated natural product a (x) ... (x) a, n a natural number: by
    squaring, so it takes O(log n) natural products."""
    out, base, n = ONE.form, _coerce(a).form, natural(n, "exponent")
    while n:
        if n & 1:
            out = _prod(out, base)
        if n := n >> 1:  # no square past the top bit
            base = _prod(base, base)
    return Ord._of(out)


def omega_pow(a):
    """w^a for an ordinal (or natural number) a."""
    return Ord(((_coerce(a), 1),))


def ot_decreasing_sequences(a):
    """Order type of the tree of strictly decreasing sequences below a.

    Sequences b_0 > b_1 > ... with all b_i < a, ordered by the usual
    Kleene-Brouwer style comparison, form a well-order whose type depends
    only on a:  0 and 1 map to themselves, a finite n >= 2 maps to
    w^(n-1) + 1, an infinite limit a maps to w^a, and an infinite
    successor a maps to w^a + 1.
    """
    a = _coerce(a)
    if a.is_zero():
        return ZERO
    if a == ONE:
        return ONE
    if a.is_finite():
        return nat_sum(omega_pow(a.to_int() - 1), ONE)
    if a.is_limit():
        return omega_pow(a)
    return nat_sum(omega_pow(a), ONE)


def bounds_report(m):
    """The ordinal bound constants for dimension m, each written as its
    Cantor normal form.

    height = w^m + 1: order type of the height function range on final
    segments;
    kb_order_type = w^(w^(m-1)) + 1: order type under the KB well-ordering,
    which is also the lower bound type_lower for any total extension of
    reverse inclusion;
    type_upper = w^((w+1) nat-powered to m): the general upper bound.  The
    natural product is commutative and distributes over the natural sum,
    so by the binomial theorem (w+1)^m = sum over k = m..0 of w^k*C(m, k).
    For m = 2 the triangle order's exact type w^(w+1) + 1 is included.
    """
    kb = Ord._of(((((_finite(check_dim(m) - 1), 1),), 1), *ONE.form))
    report = {
        "height": Ord._of(((_finite(m), 1), *ONE.form)),
        "kb_order_type": kb,
        "type_lower": kb,
        "type_upper": Ord._of(
            ((tuple((_finite(k), comb(m, k)) for k in range(m, -1, -1)), 1),)),
    }
    if m == 2:
        report["triangle_order_type_m2"] = Ord._of(
            ((OMEGA.form + ONE.form, 1), *ONE.form))
    return report


def _psi_of(c):
    """psi = w^(m-1)*c_{m-1} + ... + c_0 from c = (c_{m-1}, ..., c_0), the
    minimizing coefficients of a realizable polynomial (hilbert)."""
    m = len(c)
    return Ord._of(tuple((_finite(k), ci)
                         for k, ci in zip(range(m - 1, -1, -1), c) if ci))


@digit_limited
def format_ordinal(a):
    """Render a in the textual CNF syntax, e.g. ``w^(w + 1)*2 + w + 3``, in
    one loop: a (parts, terms, coefficient) frame per exponent in ( ).

    A DataError if a coefficient or finite exponent has more decimal digits
    than Python's int-string limit allows (errors.digit_limited).
    """
    stack, parts, terms = [], [], iter(_coerce(a).form)
    while True:
        for g, c in terms:
            if not g:
                parts.append(str(c))
                continue
            if not g[0][0]:  # a finite exponent, written bare
                s = "w" if g[0][1] == 1 else f"w^{g[0][1]}"
            elif g == OMEGA.form:
                s = "w^w"
            else:
                stack.append((parts, terms, c))
                parts, terms = [], iter(g)
                break
            parts.append(f"{s}*{c}" if c > 1 else s)
        else:
            s = " + ".join(parts) or "0"
            if not stack:
                return s
            parts, terms, c = stack.pop()
            parts.append(f"w^({s})*{c}" if c > 1 else f"w^({s})")


def parse_ordinal(text):
    """Parse the syntax produced by :func:`format_ordinal`.

    Terms must appear in strictly decreasing exponent order with positive
    coefficients, and parenthesised exponents nest at most MAX_NESTING
    deep; anything else is a :class:`ParseError`.  One ``findall`` cuts the
    text into tokens (_TOKEN), and one loop reads them term by term:
    ``w^(`` opens a sum on ``stack``, and ``)`` closes the innermost into
    the exponent of the term that opened it.  Each open sum keeps ``bad``,
    the CNF error its terms made as they were appended (a zero term wins
    over disorder), raised when it closes.  Nothing counts characters on
    the way: an error's column is the length of the tokens before it.
    """
    if not isinstance(text, str):
        raise ParseError(f"an ordinal is read from a str, not a "
                         f"{type(text).__name__}")
    toks = _TOKEN.findall(text)
    toks.append("")  # the end
    stack, terms, bad, i = [], [], None, 0
    while True:
        tok = toks[i]
        i += 1
        if tok == "w":
            exp = ONE.form
        elif tok == "w^(":
            if len(stack) == MAX_NESTING:
                _fail(f"exponents nest deeper than {MAX_NESTING}", toks, i)
            stack.append((terms, bad))
            terms, bad = [], None
            continue
        elif tok.isdecimal():
            exp, c = None, _nat(tok, toks, i)
            if not c:  # valid only as the whole ordinal
                bad = "'0' is only valid on its own"
            elif terms and not terms[-1][0]:  # a finite term before it
                bad = bad or "exponents must strictly decrease"
            terms.append(((), c))
        elif tok == "w^w":
            exp = OMEGA.form
        elif tok[:2] == "w^":
            n = _nat(tok[2:], toks, i)
            exp = _finite(n)
        elif tok[-1:] == " " and "+" not in tok:  # blanks opening a sum
            continue
        else:
            _fail("expected 'w' or a number", toks, i - 1, _blanks(tok))
        while True:
            if exp is not None:  # the term w^exp reads its coefficient
                c = 1
                if toks[i][:1] == "*":
                    i += 1
                    c = _nat(toks[i - 1][1:], toks, i)
                    if not c:
                        _fail("coefficient must be positive", toks, i)
                if not exp:
                    _fail("write finite terms as plain numbers", toks, i)
                if terms and terms[-1][0] <= exp:
                    bad = bad or "exponents must strictly decrease"
                terms.append((exp, c))
            tok = toks[i]
            if "+" in tok:
                i += 1
                break
            if not bad:
                exp = tuple(terms)
            elif terms == [((), 0)]:
                exp = ()
            else:
                _fail(bad, toks, i)
            if tok[-1:] == " ":  # blanks, then neither '+' nor ')'
                i += 1
                tok = toks[i]
            if not stack:
                if tok:
                    _fail("trailing input", toks, i, _blanks(tok))
                return Ord._of(exp)
            if tok[-1:] != ")":
                _fail("expected ')'", toks, i)
            terms, bad = stack.pop()
            i += 1


# The tokens of parse_ordinal, longest first: a number; w^( and the other
# heads of a term (w^ alone lacks its number); a coefficient (* alone lacks
# its number); '+' or ')' with the blanks before them (and after '+');
# other blanks; any other character.  \d is what str.isdecimal accepts.
_TOKEN = re.compile(r"\d+|w\^\(|w\^w|w\^\d*|w|\*\d*| *\+ *| *\)| +|.", re.S)


def _fail(msg, toks, i, lead=0):
    """A ParseError ``lead`` characters into toks[i]."""
    raise ParseError(msg, line=1, column=sum(map(len, toks[:i])) + lead + 1)


def _blanks(tok):
    """The number of blanks tok starts with."""
    return len(tok) - len(tok.lstrip(" "))


def _nat(digits, toks, i):
    """The natural number written as ``digits``, which end toks[i - 1]."""
    if not digits:
        _fail("expected a number", toks, i)
    if digits[0] == "0" and len(digits) > 1:
        _fail("no leading zeros", toks, i)
    try:
        return int(digits)
    except ValueError:  # past Python's int-string digit limit
        _fail("too many digits", toks, i)
