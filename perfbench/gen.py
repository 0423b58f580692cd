"""Seeded input generators.

Every generator draws from ``random.Random`` seeded with a string built
from the run seed, the workload and the round, so the same seed gives the
same inputs in every process (string seeds do not depend on hash
randomization).  Inputs are plain tuples; the workloads build monord
objects from them.
"""

from __future__ import annotations

import functools
import hashlib
import random

from oracles import ord_cmp, ord_of_int

ANTICHAIN_TRIES = 400    # draws before antichain() settles for fewer points


def rng_for(seed, workload, round_no):
    return random.Random(f"{seed}/{workload}/{round_no}")


def _composition(rng, m, d):
    """A uniform-ish random point of N^m with degree d."""
    cuts = sorted(rng.randint(0, d) for _ in range(m - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


def _incomparable(v, gens):
    return not any(all(a <= b for a, b in zip(g, v))
                   or all(b <= a for a, b in zip(g, v)) for g in gens)


def antichain(rng, m, k, lo, hi, pure=0):
    """Up to k pairwise incomparable points with degrees in [lo, hi], after
    the pure powers x_i^pure when ``pure`` is positive."""
    if m == 2 and not pure:
        # a staircase: x rising while y falls
        xs = sorted(rng.sample(range(hi + 1), min(k, hi + 1)))
        ys = sorted(rng.sample(range(hi + 1), len(xs)), reverse=True)
        return [(x, y) for x, y in zip(xs, ys)]
    gens = [tuple(pure if i == j else 0 for i in range(m))
            for j in range(m)] if pure else []
    for _ in range(ANTICHAIN_TRIES):
        if len(gens) >= k:
            break
        v = _composition(rng, m, rng.randint(lo, hi))
        if _incomparable(v, gens):
            gens.append(v)
    return gens


def layer(rng, m, k, d):
    """k distinct points of degree exactly d (always an antichain)."""
    pts = _points_of_degree(m, d)
    rng.shuffle(pts)
    return sorted(pts[:k])


def _points_of_degree(m, d):
    if m == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1)
            for rest in _points_of_degree(m - 1, d - a)]


def ordinal(rng, depth):
    """A random Cantor normal form (tuple of (exponent, coeff)) nested at
    most ``depth`` deep, exponents strictly decreasing."""
    if depth == 0:
        return ord_of_int(rng.randint(1, 9))
    exps = {ord_of_int(rng.randint(1, 4))}
    for _ in range(rng.randint(0, 2)):
        exps.add(ordinal(rng, depth - 1))
    exps = sorted(exps, key=functools.cmp_to_key(ord_cmp), reverse=True)
    terms = [(e, rng.randint(1, 5)) for e in exps]
    if rng.random() < 0.5:
        terms.append(((), rng.randint(1, 9)))
    return tuple(terms)


class Fingerprint:
    """A running SHA-256 over the repr of every input generated."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, obj):
        self._h.update(repr(obj).encode())
        self.items += 1

    def hexdigest(self):
        return self._h.hexdigest()[:16]
