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

from .errors import DataError, ParseError, immutable, natural

# Parenthesised exponents nest at most this deep in parse_ordinal, so that
# parsing and the recursive arithmetic stay far from Python's recursion limit;
# Ord(terms) and omega_pow refuse forms deeper than parse_ordinal builds.
MAX_NESTING = 100


@total_ordering
class Ord:
    """An ordinal below epsilon_0 in Cantor normal form.

    Instances are immutable and hashable.  ``terms`` is a tuple of
    (exponent, coefficient) pairs with strictly decreasing Ord exponents
    and coefficients >= 1; ``form`` is the same with exponent forms.
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
        object.__setattr__(self, "form", form)

    __setattr__ = __delattr__ = immutable

    def __reduce__(self):
        # pickles and copies go through __init__, so each load is checked
        return (Ord, (self.terms,))

    @property
    def terms(self):
        return tuple((_wrap(g), c) for g, c in self.form)

    @staticmethod
    def from_int(n):
        n = natural(n, "ordinal")
        return _wrap((((), n),) if n else ())

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

    def __eq__(self, other):
        return isinstance(other, Ord) and self.form == other.form

    def __lt__(self, other):
        if not isinstance(other, Ord):
            return NotImplemented
        return self.form < other.form

    def __hash__(self):
        return hash(self.form)

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


def _wrap(form):
    """The Ord of a form already in CNF, built without Ord's checks."""
    a = object.__new__(Ord)
    object.__setattr__(a, "form", form)
    return a


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
    return _wrap(_merge(_coerce(a).form + _coerce(b).form))


def nat_prod(a, b):
    """Hessenberg natural product, distributing over natural sums of terms."""
    return _wrap(_prod(_coerce(a).form, _coerce(b).form))


def nat_pow(a, n):
    """Iterated natural product a (x) ... (x) a, n a natural number."""
    a = _coerce(a)
    natural(n, "exponent")
    out = ONE.form
    for _ in range(n):
        out = _prod(out, a.form)
    return _wrap(out)


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


def format_ordinal(a):
    """Render a in the textual CNF syntax, e.g. ``w^(w + 1)*2 + w + 3``."""
    return _format(_coerce(a).form)


def _format(form):
    parts = []
    for g, c in form:
        if not g:
            parts.append(str(c))
            continue
        if g == ONE.form:
            s = "w"
        else:
            es = _format(g)
            if not (es.isdigit() or es == "w"):
                es = "(" + es + ")"
            s = "w^" + es
        if c > 1:
            s += "*" + str(c)
        parts.append(s)
    return " + ".join(parts) or "0"


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, line=1, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self):
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        tok = self.text[start:self.pos]
        if len(tok) > 1 and tok[0] == "0":
            self.error("no leading zeros")
        try:
            return int(tok)
        except ValueError:  # past Python's int-string digit limit
            self.error("too many digits")


def parse_ordinal(text):
    """Parse the syntax produced by :func:`format_ordinal`.

    Terms must appear in strictly decreasing exponent order with positive
    coefficients, and parenthesised exponents nest at most MAX_NESTING
    deep; anything else is a :class:`ParseError`.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    form = _parse_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return _wrap(form)


def _parse_sum(sc):
    """The form of a sum of terms, checked to be in Cantor normal form."""
    terms = [_parse_term(sc)]
    while True:
        save = sc.pos
        sc.skip_ws()
        if sc.peek() != "+":
            sc.pos = save
            break
        sc.take("+")
        sc.skip_ws()
        terms.append(_parse_term(sc))
    if terms == [((), 0)]:
        return ()
    if any(c == 0 for _, c in terms):
        sc.error("'0' is only valid on its own")
    for i in range(1, len(terms)):
        if terms[i - 1][0] <= terms[i][0]:
            sc.error("exponents must strictly decrease")
    return tuple(terms)


def _parse_term(sc):
    if sc.peek().isdecimal():
        # a bare zero is only valid as the whole ordinal, checked by caller
        return ((), sc.nat())
    if sc.peek() != "w":
        sc.error("expected 'w' or a number")
    sc.take("w")
    exp = ONE.form
    if sc.peek() == "^":
        sc.take("^")
        if sc.peek() == "(":
            sc.take("(")
            sc.depth += 1
            if sc.depth > MAX_NESTING:
                sc.error(f"exponents nest deeper than {MAX_NESTING}")
            sc.skip_ws()
            exp = _parse_sum(sc)
            sc.skip_ws()
            sc.take(")")
            sc.depth -= 1
        elif sc.peek() == "w":
            sc.take("w")
            exp = OMEGA.form
        else:
            exp = Ord.from_int(sc.nat()).form
    coeff = 1
    if sc.peek() == "*":
        sc.take("*")
        coeff = sc.nat()
        if coeff == 0:
            sc.error("coefficient must be positive")
    if not exp:
        sc.error("write finite terms as plain numbers")
    return (exp, coeff)
