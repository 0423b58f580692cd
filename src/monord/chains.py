"""Quantitative chain bounds and bad-sequence checking.

ell(m, f) is the exact maximal length of an f-bounded lex-decreasing
sequence in N^m; it grows Ackermann-like in m, so the one walk behind
ell, t_m and the extremal sequences runs under a budget, not a value bound.
"""

from itertools import accumulate
from math import comb, inf
from typing import NamedTuple

from .errors import Budget, DataError, is_a, listed, natural
from .ideal import _checked_ideal, check_dim, check_ideal
from .monom import _support, check_same_dim, points_of_degree

DEFAULT_BUDGET = 1_000_000


def _step(budget, off):
    """Charge one step of the walk: one unit plus one per byte of the offset
    its bound is shifted by, so that the budget bounds the values built;
    callables charge their new table values, and t_m each h_m(s) it takes."""
    budget.charge(1 + (off.bit_length() + 7) // 8)


class BoundFn:
    """A degree bound i -> f(i), read as its increasing envelope
    max(f(0), ..., f(i)): a callable fn, ``BoundFn(fn)``, read lazily into a
    table of envelope values, or such a table continued by p + (i - len) * q,
    p >= its last value, from ``affine`` and ``from_table``."""

    def __init__(self, fn):
        if not callable(fn):
            raise DataError(f"a bound is a callable, not {fn!r}")
        # f is constant from index _flat on; a callable is never known to be
        self._fn, self._vals, self._flat = fn, [], inf

    def __call__(self, i):
        return self._at(natural(i, "bound index"))

    def _at(self, i, budget=None):
        """f(i) for a natural i, as the engines read it; a callable's new
        table values are charged to ``budget`` before they are read."""
        vals = self._vals
        if i >= len(vals) and self._fn is None:
            return self._p + (i - len(vals)) * self._q
        if i >= len(vals) and budget is not None:
            budget.charge(i + 1 - len(vals))
        while len(vals) <= i:
            j = len(vals)
            v = natural(self._fn(j), f"bound value f({j}) =")
            vals.append(max(v, vals[-1]) if vals else v)
        return vals[i]

    @classmethod
    def affine(cls, p, q):
        """i -> p + i*q."""
        natural(p, "affine bound needs naturals p, q; p =")
        natural(q, "affine bound needs naturals p, q; q =")
        f = object.__new__(cls)
        f._fn, f._vals, f._p, f._q, f._flat = None, [], p, q, inf if q else 0
        return f

    @classmethod
    def from_table(cls, values):
        """Finite table, continued by its last value."""
        values = [natural(v, "table value") for v in listed(values, "table")]
        if not values:
            raise DataError("table must be nonempty")
        values = list(accumulate(values, max))
        f = cls.affine(values[-1], 0)
        f._vals, f._flat = values, values.index(values[-1])
        return f


def as_bound_fn(f):
    if is_a(f, BoundFn):
        return f
    return BoundFn(f) if callable(f) else BoundFn.affine(
        natural(f, "constant bound"), 0)


def _preamble(m, f, budget):
    """The checked arguments of ell, t_bound and extremal_sequence."""
    check_dim(m)
    return as_bound_fn(f), Budget(budget, DEFAULT_BUDGET)


def _walk(m, read, flat, budget):
    """ell's recursion as one walk: the blocks (v, size), v reused, of the
    greedy lex-decreasing sequence from (f(0), 0, ..., 0).  Block j keeps
    v[:j]; at j = m - 1, or from index flat on, it is the C(v[j] + m - j,
    m - j) points whose rest has degree <= v[j], else one point.  Then the
    last positive v[i], i < m - 1, drops by one, a step is charged for its
    block's length so far, and v[i + 1] is filled up to the bound there.
    A closed block at j < m - 1 on a v[j] past 64 bits is charged first,
    (m - j) units per byte of v[j], about the bytes of the C(...) it
    builds; at j = m - 1 that is v[j] + 1, which the next step's offset
    charges."""
    v = [read(0, budget)] + [0] * (m - 1)
    starts = [0] * m  # where the block at each index began
    j = total = 0
    while True:
        closed = j == m - 1 or starts[j] >= flat
        if closed and j < m - 1 and v[j] >> 64:
            budget.charge((m - j) * ((v[j].bit_length() + 7) // 8))
        size = comb(v[j] + m - j, m - j) if closed else 1
        yield v, size
        total += size
        if closed:
            v[j] = 0
        i = min(j, m - 2)
        while i >= 0 and not v[i]:
            i -= 1
        if i < 0:
            return
        _step(budget, total - starts[i])
        v[i] -= 1
        j = i + 1
        starts[j] = total
        v[j] = read(total, budget) - sum(v)


def ell(m, f, budget=None):
    """Maximal length of a lex-decreasing sequence v_0 > v_1 > ... in N^m
    with deg(v_i) <= f(i).

    ell(1, f) = f(0) + 1; for m >= 2 the first vector must be
    (f(0), 0, ..., 0) and each later first coordinate f(0) - i heads a
    block whose tail is an extremal sequence for the shifted bound
    f_i(j) = f(j + out) - f(0) + i, out the length so far, giving
    ell(m, f) = 1 + sum of ell(m-1, f_i) for i = 1..f(0).  A constant
    bound c admits every point of degree <= c: ell(m, c) = C(c + m, m).
    """
    f, budget = _preamble(m, f, budget)
    return sum(size for _, size in _walk(m, f._at, f._flat, budget))


def extremal_sequence(m, f, cap, budget=None):
    """A longest f-bounded lex-decreasing sequence, truncated to ``cap``
    entries; uncapped it has length exactly ell(m, f).  From
    (f(0), 0, ..., 0), each entry is the lex-largest point below the last
    within the bound: ell's walk with no flat index, so that each block is
    one point or a run of the last coordinate, stopped at ``cap``."""
    f, budget = _preamble(m, f, budget)
    natural(cap, "cap")
    seq = []
    for v, size in _walk(m, f._at, inf, budget):
        head, last = tuple(v[:-1]), v[-1]
        seq += [head + (last - j,) for j in range(min(size, cap - len(seq)))]
        if len(seq) == cap:
            break
    return seq


def h_bound(s, m):
    """h_m(s) = s + C(s - 1 + m, m), the degree bound fed to ell when
    translating ideal chains into vector sequences."""
    return _h(natural(s, "degree"), check_dim(m))


def _h(s, m):
    """h_m(s), unchecked."""
    return s + comb(s - 1 + m, m)


def t_bound(m, f, budget=None):
    """t_m(f) = ell(m, h_m o f), bounding bad sequences of ideals in N^m
    whose i-th member is generated in degrees <= f(i).  The walk reads each
    f(i) = s through h_m after charging 1 + m * bytes(s), its result's size."""
    f, budget = _preamble(m, f, budget)

    def read(i, budget):
        s = f._at(i, budget)
        budget.charge(1 + m * ((s.bit_length() + 7) // 8))
        return _h(s, m)

    return sum(size for _, size in _walk(m, read, f._flat, budget))


class BadnessVerdict(NamedTuple):
    bad: bool
    witness: tuple | None  # (i, j) with ideals[i] >= ideals[j], i < j


def is_bad_sequence(ideals):
    """Check that no earlier ideal contains a later one.

    A sequence is good when E_i is a superset of E_j for some i < j;
    the witness returned is the earliest such pair ordered by (j, i).
    """
    ideals = list(map(check_ideal, listed(ideals, "ideal sequence")))
    for e in ideals[1:]:
        check_same_dim(ideals[0].dim, e.dim)
    for j in range(1, len(ideals)):
        for i in range(j):
            if ideals[i] >= ideals[j]:
                return BadnessVerdict(False, (i, j))
    return BadnessVerdict(True, None)


class SearchResult(NamedTuple):
    sequence: list
    exhaustive: bool
    nodes: int


def _antichains(div, allowed, outs):
    """The antichains within the point mask ``allowed`` that meet every
    mask in ``outs``, as point masks in increasing order.  div[k] masks
    the points that divide point k, itself included; all come before it."""
    found, stack = [], [(0, allowed, outs)]
    while stack:
        c, allowed, outs = stack.pop()
        if not outs:
            found.append(c)
        left = allowed
        while left:  # the highest point first, so the lowest is popped first
            k = left.bit_length() - 1
            left ^= 1 << k
            below = allowed & (1 << k) - 1 & ~div[k]
            # the masks point k leaves unmet, cut to the points still allowed
            unmet = [o & below for o in outs if not o >> k & 1]
            if all(unmet):
                stack.append((c | 1 << k, below, unmet))
    return found


def max_bad_degree_growth(m, f, cap):
    """Desk-scale DFS for a longest bad sequence of ideals in N^m with the
    i-th ideal generated in degrees <= f(i).

    The i-th member ranges over the ideals generated by antichains of
    points of degree <= f(i), in increasing order of their masks over that
    box of points, and skips those an earlier member contains.  A node
    whose bound differs from its parent's lists those admissible ideals in
    full; any other node filters its parent's list by the newest member.
    ``cap`` bounds the number of search nodes, not that enumeration; the
    result reports whether the search ran to exhaustion.  Every returned
    sequence passes is_bad_sequence.
    """
    f = as_bound_fn(f)
    check_dim(m)
    natural(cap, "cap")

    # the points in deglex order, at their positions, with div the masks of
    # their divisors, themselves included: a bound's box is a prefix, so a
    # member is kept as its antichain mask; outs caches outside masks per box
    at, div, outs = {(0,) * m: 0}, [1], {}

    def box(d):
        """The size of the box of degree bound d, its points added first:
        p's divisors are p and those of each p - e_i, i in p's support."""
        n = comb(d + m, m)
        while len(div) < n:
            for p in points_of_degree(m, sum(next(reversed(at))) + 1):
                at[p], mask = len(div), 1 << len(div)
                for i in _support(p):
                    mask |= div[at[p[:i] + (p[i] - 1,) + p[i + 1:]]]
                div.append(mask)
        return n

    def outside(n, c):
        """The first n points that lie outside the ideal of member c."""
        if (n, c) not in outs:
            outs[n, c] = sum(1 << j for j in range(n) if not div[j] & c)
        return outs[n, c]

    # per node on the path: its box size, its candidates and their iterator
    seq, stack, best, nodes, exhaustive = [], [], [], 0, False
    while nodes < cap:
        nodes += 1
        if len(seq) > len(best):
            best = seq[:]
        n = box(f._at(len(seq)))
        if stack and stack[-1][0] == n:
            out = outside(n, seq[-1])
            cands = [c for c in stack[-1][1] if c & out]
        else:
            cands = _antichains(div, (1 << n) - 1,
                                [outside(n, c) for c in seq])
        stack.append((n, cands, iter(cands)))
        while stack and (c := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            exhaustive = True
            break
        seq[len(stack) - 1:] = [c]
    return SearchResult([_checked_ideal(m, tuple(
        p for p, j in at.items() if c >> j & 1)) for c in best],
        exhaustive, nodes)
