"""Independent answers for the benchmark's checks.

Nothing here calls monord: these are separate, plain implementations
(lattice counting, Macaulay growth, box membership, chain recursions,
Cantor normal form arithmetic) used to judge the library's answers.
"""

from __future__ import annotations

import functools
import math


# -- points and ideals (gens are tuples of naturals) ----------------------

def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def member(gens, v):
    return any(divides(g, v) for g in gens)


def contains(big, small):
    """Whether the ideal generated by ``big`` contains the one by ``small``."""
    return all(member(big, g) for g in small)


def minimal(points):
    pts = sorted(set(points), key=lambda v: (sum(v), v))
    out = []
    for p in pts:
        if not member(out, p):
            out.append(p)
    return out


class Counter:
    """h(s) = #{u in N^m : deg u <= s, u outside the ideal}, by recursion
    on the last coordinate.  One memo serves every s for one ideal."""

    def __init__(self, gens, m):
        self.m = m
        self.gens = tuple(minimal(gens))
        self.memo = {}

    def h(self, s):
        return self._count(self.gens, self.m, s)

    def H(self, n):
        return self.h(n) - (self.h(n - 1) if n > 0 else 0)

    def _count(self, gens, m, s):
        if s < 0:
            return 0
        if any(not any(g) for g in gens):
            return 0
        if m == 1:
            top = min((g[0] for g in gens), default=s + 1)
            return min(top, s + 1)
        key = (gens, m, s)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        cuts = sorted({g[-1] for g in gens if g[-1] <= s})
        total = 0
        prev = None
        for j in range(s + 1):
            if prev is None or (cuts and j in cuts):
                sl = tuple(minimal(g[:-1] for g in gens if g[-1] <= j))
                prev = sl
            total += self._count(prev, m - 1, s - j)
        self.memo[key] = total
        return total


def threshold(gens):
    return sum(max(col) for col in zip(*gens)) if gens else 0


class HilbertOracle:
    """Hilbert-Samuel data of one ideal from lattice counts alone.

    p_E is fitted through h(t), ..., h(t + m) with t the threshold and
    evaluated anywhere by Newton's forward formula; the minimizing
    coefficients c follow the peel-the-leading-coefficient recursion,
    and phi = sum(c).
    """

    def __init__(self, gens, m):
        self.m = m
        self.counter = Counter(gens, m)
        self.t = threshold(self.counter.gens)
        vals = [self.counter.h(self.t + i) for i in range(m + 1)]
        self.diffs = _diffs(vals)
        self.c = _coeffs(self.p, m - 1)
        self.c = [0] * (m - len(self.c)) + self.c
        self.phi = sum(self.c) if min(self.c) >= 0 else None

    def p(self, s):
        x = s - self.t
        return sum(d * gen_binom(x, k) for k, d in enumerate(self.diffs))


def _diffs(vals):
    out = []
    row = list(vals)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _coeffs(pf, dmax):
    """Descending c-list of the polynomial pf (degree <= dmax)."""
    diffs = _diffs([pf(t) for t in range(dmax + 1)])
    d = max((k for k, x in enumerate(diffs) if x), default=0)
    if d == 0:
        return [diffs[0]]
    bd = diffs[d]

    def q(t):
        return (pf(t + bd) - gen_binom(t + bd + d + 1, d + 1)
                + gen_binom(t + d + 1, d + 1))
    inner = _coeffs(q, d - 1)
    return [bd] + [0] * (d - len(inner)) + inner


def eval_binomial_basis(coeffs, t):
    """p(t) for p = sum b_i * C(T + i, i), extended to all integers t."""
    return sum(b * gen_binom(t + i, i) for i, b in enumerate(coeffs))


def gen_binom(x, k):
    if x >= 0:
        return math.comb(x, k)
    num = 1
    for j in range(k):
        num *= x - j
    return num // math.factorial(k)


def macaulay_next(a, d):
    """a^<d> via the greedy d-th Macaulay representation (binary search)."""
    if a == 0:
        return 0
    out = 0
    rem = a
    for i in range(d, 0, -1):
        if rem == 0:
            break
        lo, hi = i - 1, i
        while math.comb(hi, i) <= rem:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        rem -= math.comb(lo, i)
        out += math.comb(lo + 1, i + 1)
    return out


def same_ideal_as_intersection(gens, comps, m):
    """Whether the ideal equals the intersection of the irreducible ideals
    m^nu (nu in comps), compared on a coordinate-compressed grid: membership
    on either side changes only at exponents that occur in the data.

    Each side is a bitmask over the grid, built from per-axis masks
    "coordinate >= v"; a generator contributes the AND of its axis masks,
    a component the OR over its support.
    """
    axes = []
    for i in range(m):
        vals = {0}
        vals.update(g[i] for g in gens)
        vals.update(nu[i] for nu in comps)
        axes.append(sorted(vals))
    sizes = [len(a) for a in axes]
    total = 1
    for n in sizes:
        total *= n
    strides = []
    acc = total
    for n in sizes:
        acc //= n
        strides.append(acc)
    index = [{v: k for k, v in enumerate(a)} for a in axes]

    def ge(i, v):
        n, stride = sizes[i], strides[i]
        k = index[i][v]
        period = n * stride
        block = ((1 << ((n - k) * stride)) - 1) << (k * stride)
        reps = total // period
        return block * (((1 << (period * reps)) - 1) // ((1 << period) - 1))

    everything = (1 << total) - 1
    in_e = 0
    for g in gens:
        mask = everything
        for i, x in enumerate(g):
            if x:
                mask &= ge(i, x)
        in_e |= mask
    in_all = everything
    for nu in comps:
        mask = 0
        for i, x in enumerate(nu):
            if x:
                mask |= ge(i, x)
        in_all &= mask
    return in_e == in_all


def poly_cmp(a, b):
    """Dominance order of two Hilbert-Samuel polynomials (HilbertOracle):
    the sign of p_a - p_b at large T, read off the highest nonzero forward
    difference of the difference."""
    m = max(a.m, b.m)
    t0 = max(a.t, b.t)
    diffs = _diffs([a.p(t0 + i) - b.p(t0 + i) for i in range(m + 1)])
    top = next((x for x in reversed(diffs) if x), 0)
    return (top > 0) - (top < 0)


def bad_witness(seq):
    """The earliest (i, j), ordered by (j, i), with seq[i] containing
    seq[j]; None when the sequence is bad."""
    for j in range(1, len(seq)):
        for i in range(j):
            if contains(seq[i], seq[j]):
                return (i, j)
    return None


# -- chains -----------------------------------------------------------------

def ell_affine(m, p, q, cap=None):
    """ell(m, i -> p + i q) by the symbolic recurrence: shifting an affine
    bound keeps it affine, f_i = (q * off + i) + j q.  With ``cap``, the
    answer is min(ell, cap) and the recursion stops once it reaches cap."""
    if m == 1:
        total = p + 1
    elif q == 0:
        total = math.comb(p + m, m)
    else:
        total = 1
        for i in range(1, p + 1):
            if cap is not None and total >= cap:
                break
            total += ell_affine(m - 1, q * total + i, q,
                                None if cap is None else cap - total)
    return total if cap is None else min(total, cap)


def ell_generic(m, f):
    """ell(m, f) for a nondecreasing f, straight from the recursion."""
    if m == 1:
        return f(0) + 1
    total = 1
    f0 = f(0)
    for i in range(1, f0 + 1):
        off = total
        total += ell_generic(m - 1, lambda j, off=off, i=i: f(j + off) - f0 + i)
    return total


def h_bound(s, m):
    return s + gen_binom(s - 1 + m, m)


# -- ordinals in Cantor normal form: tuple of (exponent, coefficient) -------

def ord_cmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ord_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def _normal(coeffs):
    exps = sorted(coeffs, key=functools.cmp_to_key(ord_cmp), reverse=True)
    return tuple((e, coeffs[e]) for e in exps)


def ord_sum(a, b):
    coeffs = {}
    for e, c in a + b:
        coeffs[e] = coeffs.get(e, 0) + c
    return _normal(coeffs)


def ord_prod(a, b):
    coeffs = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ord_sum(ea, eb)
            coeffs[e] = coeffs.get(e, 0) + ca * cb
    return _normal(coeffs)


ZERO = ()
ONE = ((ZERO, 1),)


def ord_text(a):
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            s = "w"
        else:
            es = ord_text(e)
            s = "w^" + (es if es.isdigit() or es == "w" else "(" + es + ")")
        parts.append(s + ("*" + str(c) if c > 1 else ""))
    return " + ".join(parts)


def ord_of_int(n):
    return ((ZERO, n),) if n else ZERO


def omega_pow(a):
    return ((a, 1),)


def from_lib(o):
    """The library's Ord as a plain tuple, by walking its terms."""
    return tuple((from_lib(e), c) for e, c in o.terms)


def bounds_expected(m):
    """The bounds report for dimension m, in text, from the closed forms."""
    w_plus_1 = ord_sum(omega_pow(ONE), ONE)
    power = ONE
    for _ in range(m):
        power = ord_prod(power, w_plus_1)
    kb = ord_sum(omega_pow(omega_pow(ord_of_int(m - 1))), ONE)
    out = {
        "height": ord_text(ord_sum(omega_pow(ord_of_int(m)), ONE)),
        "kb_order_type": ord_text(kb),
        "type_lower": ord_text(kb),
        "type_upper": ord_text(omega_pow(power)),
    }
    if m == 2:
        out["triangle_order_type_m2"] = ord_text(
            ord_sum(omega_pow(w_plus_1), ONE))
    return out
