"""Ordinal arithmetic below epsilon_0.

Ordinals are kept in hereditary Cantor normal form: a sum
w^g1 * c1 + ... + w^gk * ck with g1 > g2 > ... > gk and positive integer
coefficients, where the exponents are themselves ordinals in the same form.
The arithmetic provided here is the commutative (Hessenberg) natural sum
and natural product, which is what order-type bookkeeping for well partial
orders needs.  An Ord wraps its *form*, the nested tuple
((g1, c1), ..., (gk, ck)) whose exponents are forms and where () is zero;
tuple order on forms is the ordinal order.
"""

from functools import total_ordering

from .errors import DataError, ParseError, Value, digit_limited, natural

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
        n = natural(n, "ordinal")
        return Ord._of((((), n),) if n else ())

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


ZERO = Ord()
ONE = Ord.from_int(1)
OMEGA = Ord(((ONE, 1),))


def cmp(a, b):
    """Three-way comparison of two ordinals: -1, 0, or 1."""
    if not (isinstance(a, Ord) and isinstance(b, Ord)):
        raise DataError(f"cmp compares two ordinals, not {a!r} and {b!r}")
    return (a.form > b.form) - (a.form < b.form)


def _merge(terms):
    """The form of the natural sum of (exponent form, coefficient) terms."""
    coeffs = {}
    for g, c in terms:
        coeffs[g] = coeffs.get(g, 0) + c
    return tuple(sorted(coeffs.items(), reverse=True))


def _prod(f, g):
    """The form of the natural product of forms f and g."""
    return _merge((_merge(ea + eb), ca * cb) for ea, ca in f for eb, cb in g)


def nat_sum(a, b):
    """Hessenberg natural sum: merge the CNF terms exponent by exponent."""
    return Ord._of(_merge(_coerce(a).form + _coerce(b).form))


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
    deep; anything else is a :class:`ParseError`.  One loop reads the text
    term by term: ``w^(`` opens a sum on ``stack``, and ``)`` closes the
    innermost into the exponent of the term that opened it.
    """
    if not isinstance(text, str):
        raise ParseError(f"an ordinal is read from a str, not a "
                         f"{type(text).__name__}")
    stack, terms, pos = [], [], _blanks(text, 0)
    while True:
        ch = text[pos:pos + 1]
        if ch.isdecimal():
            # a bare zero is only valid as the whole ordinal, checked by _cnf
            c, pos = _nat(text, pos)
            terms.append(((), c))
            exp = None
        elif ch != "w":
            _fail("expected 'w' or a number", pos)
        elif text.startswith("^(", pos + 1):
            pos += 3
            if len(stack) == MAX_NESTING:
                _fail(f"exponents nest deeper than {MAX_NESTING}", pos)
            stack.append(terms)
            terms, pos = [], _blanks(text, pos)
            continue
        elif text.startswith("^w", pos + 1):
            exp, pos = OMEGA.form, pos + 3
        elif text.startswith("^", pos + 1):
            n, pos = _nat(text, pos + 2)
            exp = (((), n),) if n else ()
        else:
            exp, pos = ONE.form, pos + 1
        while True:
            if exp is not None:  # the term w^exp reads its coefficient
                c = 1
                if text.startswith("*", pos):
                    c, pos = _nat(text, pos + 1)
                    if not c:
                        _fail("coefficient must be positive", pos)
                if not exp:
                    _fail("write finite terms as plain numbers", pos)
                terms.append((exp, c))
            end = _blanks(text, pos)
            if text.startswith("+", end):
                pos = _blanks(text, end + 1)
                break
            exp = _cnf(terms, pos)
            if not stack:
                if end != len(text):
                    _fail("trailing input", end)
                return Ord._of(exp)
            if not text.startswith(")", end):
                _fail("expected ')'", end)
            terms, pos = stack.pop(), end + 1


def _fail(msg, pos):
    raise ParseError(msg, line=1, column=pos + 1)


def _blanks(text, pos):
    """The first position at or after pos that holds no blank."""
    while text.startswith(" ", pos):
        pos += 1
    return pos


def _nat(text, pos):
    """The natural number written from pos on, and the position after it."""
    end = pos
    while text[end:end + 1].isdecimal():
        end += 1
    if end == pos:
        _fail("expected a number", pos)
    if end - pos > 1 and text[pos] == "0":
        _fail("no leading zeros", end)
    try:
        return int(text[pos:end]), end
    except ValueError:  # past Python's int-string digit limit
        _fail("too many digits", end)


def _cnf(terms, pos):
    """The form of a closed sum of terms, checked to be in CNF at pos."""
    if terms == [((), 0)]:
        return ()
    if any(c == 0 for _, c in terms):
        _fail("'0' is only valid on its own", pos)
    for i in range(1, len(terms)):
        if terms[i - 1][0] <= terms[i][0]:
            _fail("exponents must strictly decrease", pos)
    return tuple(terms)
