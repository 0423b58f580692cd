"""Integer-valued polynomials in the binomial basis, plus Macaulay bounds.

A polynomial is stored by its coordinates (b_0, ..., b_d) in the basis
C(T+i, i), so p(T) = sum b_i * C(T+i, i).  Every polynomial taking integer
values on the integers has a unique such expansion with integer b_i.
"""

import math
from typing import NamedTuple

from .errors import DataError, Value, digit_limited, is_a, listed, natural


def binomial(x, k):
    """C(x, k) for any integer x and natural k, extended polynomially in x:
    below zero, C(x, k) = (-1)^k C(k - x - 1, k)."""
    if type(x) is not int:
        raise DataError(f"upper index {x!r} is not an integer")
    natural(k, "lower index")
    if x >= 0:
        return math.comb(x, k)
    return (-1) ** k * math.comb(k - x - 1, k)


class IVPoly(Value, fields=("coeffs",)):
    """An integer-valued polynomial in the binomial basis; a value over
    ``coeffs`` (errors.Value).  Its minimizing coefficients per m
    (hilbert.minimizing_coefficients) are kept on it by
    ``Value._derived``."""

    def __init__(self, coeffs=()):
        coeffs = listed(coeffs, "coordinate list")
        if any(type(b) is not int for b in coeffs):
            raise DataError(f"IVPoly coordinates {coeffs!r} are not all ints")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._set("coeffs", tuple(coeffs))

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __call__(self, t):
        if type(t) is not int:
            raise DataError(f"polynomial argument {t!r} is not an integer")
        # C(t + i, i) = (-1)^i C(-t - 1, i), place d - i of the kernel's row
        row = reversed(_binom_row(-t - 1, self.degree))
        return sum(b * c for b, c in zip(self.coeffs, row))

    def __add__(self, other):
        a, b = self.coeffs, check_poly(other).coeffs
        n = max(len(a), len(b))
        a += (0,) * (n - len(a))
        b += (0,) * (n - len(b))
        return IVPoly(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        return self + check_poly(other).scale(-1)

    def scale(self, k):
        if type(k) is not int:  # bools are not scale factors
            raise DataError(f"scale factor {k!r} is not an integer")
        return IVPoly(k * b for b in self.coeffs)

    @digit_limited
    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in reversed(range(len(self.coeffs))):
            b = self.coeffs[i]
            if b == 0:
                continue
            basis = f"C(T+{i},{i})" if i > 0 else ""
            mag = abs(b)
            if basis:
                term = basis if mag == 1 else f"{mag}*{basis}"
            else:
                term = str(mag)
            parts.append(("- " if b < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def check_poly(p):
    """p, when it is an IVPoly; else a DataError."""
    if not is_a(p, IVPoly):
        raise DataError(f"not an integer-valued polynomial: {p!r}")
    return p


def binom_poly(c, k):
    """The polynomial C(T - c + k, k) as an IVPoly: its generating function
    is x^c / (1 - x)^(k + 1), and x^c = (1 - (1 - x))^c."""
    if type(c) is not int:
        raise DataError(f"c = {c!r} is not an integer")
    return IVPoly(_binom_row(c, natural(k, "k =")))


def _binom_row(c, k):
    """The coordinates (-1)^(k - i) C(c, k - i), i = 0..k, of C(T - c + k, k),
    unchecked: (-1)^j C(c, j) is (-1)^(j-1) C(c, j-1) (j - 1 - c) / j."""
    row = [1]
    for j in range(1, k + 1):
        row.append(row[-1] * (j - 1 - c) // j)
    return row[::-1]


def from_samples(values):
    """The unique polynomial of degree < len(values) through the samples
    p(0), p(1), ...: as D C(T+i, i) = C(T+i, i-1), b_k = D^k p(-k-1), left
    in place k of the forward-difference column once it is stepped k + 1
    places left by D^j p(x-1) = D^j p(x) - D^{j+1} p(x-1)."""
    col, row = [], listed(values, "sample list")
    if not row or any(type(x) is not int for x in row):
        raise DataError(f"samples {values!r} are not a nonempty list of ints")
    while row:
        col.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    for k in range(len(col)):
        for j in range(len(col) - 2, k - 1, -1):
            col[j] -= col[j + 1]
    return IVPoly(col)


def dominance_cmp(p, q):
    """Compare by the lexicographic order on (b_d, ..., b_0), padding the
    shorter coefficient vector with zeros."""
    a, b = check_poly(p).coeffs, check_poly(q).coeffs
    n = max(len(a), len(b))
    a = (a + (0,) * (n - len(a)))[::-1]
    b = (b + (0,) * (n - len(b)))[::-1]
    return (a > b) - (a < b)


class MacaulayRep(NamedTuple):
    """The d-th Macaulay representation a = C(a_d,d) + ... + C(a_1,1)."""

    d: int
    tops: tuple  # (a_d, ..., a_1), strictly decreasing, a_1 >= 0


def _greedy_top(rem, i):
    """The largest c >= i - 1 with C(c, i) <= rem, and C(c, i), for i >= 2.

    C(c, i) increases with c from C(i - 1, i) = 0, so a search that doubles
    its distance from i - 1 brackets c and a bisection pins it: O(log rem)
    binomial evaluations, two when c = i.
    """
    lo, lo_val, hi = i - 1, 0, i
    while (val := math.comb(hi, i)) <= rem:
        lo, lo_val, hi = hi, val, 2 * hi - i + 1
    while hi - lo > 1:  # C(lo, i) <= rem < C(hi, i)
        mid = (lo + hi) // 2
        val = math.comb(mid, i)
        if val <= rem:
            lo, lo_val = mid, val
        else:
            hi = mid
    return lo, lo_val


def _greedy_tops(a, d):
    """The tops of macaulay_rep(a, d) up to its last nonzero term; as
    C(c, 1) = c, the last top is what is left of a."""
    tops = []
    for i in range(d, 0, -1):
        if not a:
            break
        c, val = (a, a) if i == 1 else _greedy_top(a, i)
        tops.append(c)
        a -= val
    return tops


def macaulay_rep(a, d):
    """Greedy d-th Macaulay representation of a natural number a.

    a = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_1, 1), where each top a_i is
    the largest c >= i - 1 with C(c, i) at most what is left of a.  The tops
    are strictly decreasing and a_1 >= 0.  The list always has length d: once
    a is used up, each later top sits just below its index (a_i = i - 1) and
    its term C(a_i, i) is 0.

    Costs O(d log a) binomial evaluations.
    """
    tops = _greedy_tops(natural(a, "a =", 1), natural(d, "d =", 1))
    tops += range(d - len(tops) - 1, -1, -1)
    return MacaulayRep(d, tuple(tops))


def macaulay_next(a, d):
    """The Macaulay bound a^<d>: raise every top and index by one.

    0^<d> is 0.  Only the tops of nonzero terms are built, so the cost
    follows the number of those terms, not d.
    """
    tops = _greedy_tops(natural(a, "a ="), natural(d, "d =", 1))
    return sum(math.comb(t + 1, i + 1) for t, i in zip(tops, range(d, 0, -1)))


class OSequenceCheck(NamedTuple):
    ok: bool
    violation: int | None  # first failing index: 0 or 1 for the anchor
    # conditions, the step n for a growth failure f(n+1) > f(n)^<n>
    f1_exact: bool  # whether f(1) equals the ambient dimension m


def is_osequence(values, m):
    """Check a finite prefix f(0), f(1), ... against Macaulay's growth bound
    for Hilbert functions of ideals in m variables.

    The values must be natural numbers.  The prefix needs f(0) = 1,
    f(1) <= m and f(n+1) <= f(n)^<n> for n >= 1.  The flag ``f1_exact``
    records whether f(1) hits m, which is where honest Hilbert functions of
    proper monomial ideals sit.
    """
    natural(m, "m =", 1)
    values = [natural(v, "O-sequence value") for v in values]
    if not values:
        raise DataError("need at least f(0)")
    if values[0] != 1:
        return OSequenceCheck(False, 0, False)
    f1_exact = len(values) > 1 and values[1] == m
    if len(values) > 1 and values[1] > m:
        return OSequenceCheck(False, 1, False)
    for n in range(1, len(values) - 1):
        if values[n + 1] > macaulay_next(values[n], n):
            return OSequenceCheck(False, n, f1_exact)
    return OSequenceCheck(True, None, f1_exact)
