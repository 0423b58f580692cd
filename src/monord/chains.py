"""Quantitative chain bounds and bad-sequence checking.

ell(m, f) is the exact maximal length of an f-bounded lex-decreasing
sequence in N^m; it grows Ackermann-like in m, so every recursion here
runs under an explicit frame budget rather than a value bound.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import BudgetExceeded, DataError
from .ivpoly import binomial
from .monom import divides, points_of_degree

DEFAULT_BUDGET = 1_000_000


def default_budget():
    value = os.environ.get("MONORD_BUDGET")
    if value is None:
        return DEFAULT_BUDGET
    try:
        out = int(value)
    except ValueError:
        raise DataError(f"MONORD_BUDGET={value!r} is not an integer")
    if out < 1:
        raise DataError("MONORD_BUDGET must be positive")
    return out


class _Budget:
    def __init__(self, frames):
        self.left = frames
        self.spent = 0

    def tick(self):
        if self.left <= 0:
            raise BudgetExceeded(
                f"recursion budget exceeded after {self.spent} frames",
                spent=self.spent)
        self.left -= 1
        self.spent += 1


class BoundFn:
    """A degree bound i -> f(i), memoized and monotonized on the fly.

    Wrapping replaces f by i -> max(f(0), ..., f(i)), the increasing
    envelope the length recursion assumes.  Values must be naturals.
    """

    def __init__(self, fn):
        self._fn = fn
        self._vals = []

    def __call__(self, i):
        if i < 0:
            raise DataError("bound functions are defined on naturals")
        while len(self._vals) <= i:
            j = len(self._vals)
            v = self._fn(j)
            if not isinstance(v, int) or v < 0:
                raise DataError(f"bound value f({j}) = {v!r} is not natural")
            if self._vals:
                v = max(v, self._vals[-1])
            self._vals.append(v)
        return self._vals[i]

    @classmethod
    def affine(cls, p, q):
        """i -> p + i*q."""
        return cls(lambda i: p + i * q)

    @classmethod
    def from_table(cls, values, tail=None):
        """Finite table, continued by its last value (or ``tail``)."""
        values = list(values)
        if not values:
            raise DataError("table must be nonempty")
        last = values[-1] if tail is None else tail
        return cls(lambda i: values[i] if i < len(values) else last)


def as_bound_fn(f):
    if isinstance(f, BoundFn):
        return f
    if callable(f):
        return BoundFn(f)
    if isinstance(f, int):
        return BoundFn(lambda i: f)
    raise DataError(f"cannot use {f!r} as a bound function")


def ell(m, f, budget=None):
    """Maximal length of a lex-decreasing sequence v_0 > v_1 > ... in N^m
    with deg(v_i) <= f(i).

    ell(1, f) = f(0) + 1; for m >= 2 the first vector must be
    (f(0), 0, ..., 0) and each later first coordinate f(0) - i heads a
    block whose tail is an extremal sequence for the shifted bound f_i,
    giving ell(m, f) = 1 + sum of ell(m-1, f_i) for i = 1..f(0).
    """
    f = as_bound_fn(f)
    if m < 1:
        raise DataError("m must be >= 1")
    counter = _Budget(default_budget() if budget is None else budget)
    return _ell(m, f, counter, {})


def _memo_lookup(trie, f):
    """Walk a value trie along f(0), f(1), ...; a stored result means some
    earlier bound function agreed with f on its whole relevant prefix."""
    k = 0
    while trie is not None:
        if "result" in trie:
            return trie["result"]
        trie = trie.get("kids", {}).get(f(k))
        k += 1
    return None


def _memo_store(trie, f, result):
    for k in range(len(f._vals)):
        trie = trie.setdefault("kids", {}).setdefault(f._vals[k], {})
    trie["result"] = result


def _ell(m, f, counter, memo):
    trie = memo.setdefault(m, {})
    cached = _memo_lookup(trie, f)
    if cached is not None:
        return cached
    counter.tick()
    if m == 1:
        out = f(0) + 1
    else:
        lens = []
        for i in range(1, f(0) + 1):
            off = 1 + sum(lens)
            fi = BoundFn(lambda j, off=off, i=i: f(j + off) - f(0) + i)
            lens.append(_ell(m - 1, fi, counter, memo))
        out = 1 + sum(lens)
    _memo_store(trie, f, out)
    return out


def extremal_sequence(m, f, cap, budget=None):
    """A longest f-bounded lex-decreasing sequence, truncated to ``cap``
    entries; uncapped it has length exactly ell(m, f)."""
    f = as_bound_fn(f)
    if m < 1:
        raise DataError("m must be >= 1")
    if cap < 0:
        raise DataError("cap must be a natural number")
    counter = _Budget(default_budget() if budget is None else budget)
    return _extremal(m, f, cap, counter)


def _extremal(m, f, cap, counter):
    counter.tick()
    if cap == 0:
        return []
    if m == 1:
        return [(f(0) - i,) for i in range(min(f(0) + 1, cap))]
    seq = [(f(0),) + (0,) * (m - 1)]
    for i in range(1, f(0) + 1):
        if len(seq) >= cap:
            break
        off = len(seq)
        fi = BoundFn(lambda j, off=off, i=i: f(j + off) - f(0) + i)
        tail = _extremal(m - 1, fi, cap - len(seq), counter)
        seq.extend((f(0) - i,) + t for t in tail)
    return seq[:cap]


def h_bound(s, m):
    """h_m(s) = s + C(s - 1 + m, m), the degree bound fed to ell when
    translating ideal chains into vector sequences."""
    if s < 0 or m < 1:
        raise DataError("need s >= 0 and m >= 1")
    return s + binomial(s - 1 + m, m)


def t_bound(m, f, budget=None):
    """t_m(f) = ell(m, h_m o f): a length bound for bad sequences of
    ideals in N^m whose i-th member is generated in degrees <= f(i)."""
    f = as_bound_fn(f)
    return ell(m, lambda i: h_bound(f(i), m), budget=budget)


class BadnessVerdict(NamedTuple):
    bad: bool
    witness: tuple | None  # (i, j) with ideals[i] >= ideals[j], i < j


def is_bad_sequence(ideals):
    """Check that no earlier ideal contains a later one.

    A sequence is good when E_i is a superset of E_j for some i < j;
    the witness returned is the earliest such pair ordered by (j, i).
    """
    ideals = list(ideals)
    for e in ideals[1:]:
        if e.dim != ideals[0].dim:
            raise DataError("ideals live in different dimensions")
    for j in range(1, len(ideals)):
        for i in range(j):
            if ideals[i] >= ideals[j]:
                return BadnessVerdict(False, (i, j))
    return BadnessVerdict(True, None)


class SearchResult(NamedTuple):
    sequence: list
    exhaustive: bool
    nodes: int


def _antichains(points):
    """All antichains (as tuples) within a divisibility-sorted point list."""
    out = [()]
    for p in points:
        out.extend(chain + (p,) for chain in list(out)
                   if not any(divides(q, p) or divides(p, q) for q in chain))
    return out


def max_bad_degree_growth(m, f, cap):
    """Desk-scale DFS for a longest bad sequence of ideals in N^m with the
    i-th ideal generated in degrees <= f(i).

    The i-th member ranges over the ideals generated by antichains of
    points of degree <= f(i), listed in full the first time the search
    reaches that degree bound.  ``cap`` bounds the number of search nodes,
    not that enumeration; the result reports whether the search ran to
    exhaustion.  Every returned sequence passes is_bad_sequence.
    """
    from .ideal import normalize

    f = as_bound_fn(f)
    if m < 1:
        raise DataError("m must be >= 1")

    def points_up_to(d):
        return [v for n in range(d + 1) for v in points_of_degree(m, n)]

    # Each candidate ideal gets one id across all degree lists, and a bit
    # slot once it has been a sequence member.  containers[k] holds the
    # slots, among the first tested[k], whose ideal contains candidate k,
    # so k is admissible iff containers[k] & members == 0.  Masks over
    # slots rather than ids stay valid when a later degree list registers
    # new candidates.
    ids = {}
    ideals = []
    containers = []
    tested = []
    slot_ideals = []
    slot_of = {}
    candidates = {}

    def candidates_for(i):
        d = f(i)
        if d not in candidates:
            out = []
            for chain in _antichains(points_up_to(d)):
                e = normalize(m, chain)
                k = ids.setdefault(e.gens, len(ideals))
                if k == len(ideals):
                    ideals.append(e)
                    containers.append(0)
                    tested.append(0)
                out.append(k)
            candidates[d] = out
        return candidates[d]

    def extend_containers(k):
        e = ideals[k]
        for s in range(tested[k], len(slot_ideals)):
            if slot_ideals[s] >= e:
                containers[k] |= 1 << s
        tested[k] = len(slot_ideals)

    best = []
    nodes = 0
    exhausted = True

    def dfs(seq, members):
        nonlocal best, nodes, exhausted
        if nodes >= cap:
            exhausted = False
            return
        nodes += 1
        if len(seq) > len(best):
            best = list(seq)
        for k in candidates_for(len(seq)):
            if tested[k] < len(slot_ideals):
                extend_containers(k)
            if not containers[k] & members:
                if k not in slot_of:
                    slot_of[k] = len(slot_ideals)
                    slot_ideals.append(ideals[k])
                seq.append(ideals[k])
                dfs(seq, members | 1 << slot_of[k])
                seq.pop()
                if not exhausted:
                    return

    dfs([], 0)
    return SearchResult(best, exhausted, nodes)
