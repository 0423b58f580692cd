"""Monomial ideals as final segments of N^m.

An ideal is stored by its canonical generating antichain: the minimal
points under divisibility, sorted by deglex.  The zero ideal is the empty
antichain and the unit ideal is generated by the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import DataError
from .monom import (DEGLEX, check_point, check_same_dim, degree, divides,
                    support, term_cmp, unit_vec, vec_add, vec_max)


@dataclass(frozen=True)
class MonomialIdeal:
    """A finitely generated final segment of N^m in canonical form."""

    dim: int
    gens: tuple

    def __post_init__(self):
        check_dim(self.dim)
        for g in self.gens:
            check_point(g)
            if len(g) != self.dim:
                raise DataError(
                    f"generator {g!r} does not live in N^{self.dim}")

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == ((0,) * self.dim,)

    def is_proper(self):
        return not self.is_unit()

    def contains(self, v):
        """Whether the point v lies in the ideal."""
        check_point(v)
        if len(v) != self.dim:
            raise DataError(f"point {v!r} does not live in N^{self.dim}")
        return any(divides(g, v) for g in self.gens)

    def __le__(self, other):
        """Containment: self is a subset of other."""
        if self.dim != other.dim:
            raise DataError("ideals live in different dimensions")
        return all(any(divides(h, g) for h in other.gens) for g in self.gens)

    def __ge__(self, other):
        return other <= self

    def __str__(self):
        if self.is_zero():
            return f"zero ideal in N^{self.dim}"
        return "ideal<" + ", ".join(str(g) for g in self.gens) + ">"


def check_dim(dim):
    """Reject an ambient dimension that is not an int >= 1 (bools too)."""
    if type(dim) is not int:
        raise DataError(f"dimension {dim!r} is not an integer")
    if dim < 1:
        raise DataError("ambient dimension must be >= 1")


def normalize(dim, points):
    """The ideal generated by an arbitrary finite set of points."""
    check_dim(dim)
    pts = []
    for p in points:
        p = check_point(tuple(p))
        if len(p) != dim:
            raise DataError(f"point {p!r} does not live in N^{dim}")
        pts.append(p)
    return _checked_ideal(dim, minimal_points(pts))


def _checked_ideal(dim, gens):
    """The ideal on generators already checked, minimal and deglex-sorted,
    built without running MonomialIdeal's checks a second time."""
    e = object.__new__(MonomialIdeal)
    object.__setattr__(e, "dim", dim)
    object.__setattr__(e, "gens", gens)
    return e


def minimal_points(points):
    """The distinct minimal points of a finite set of points of one N^m
    under divisibility, sorted by deglex."""
    minimal = []
    for p in sorted(set(points), key=DEGLEX.key):
        if not any(divides(q, p) for q in minimal):
            minimal.append(p)
    return tuple(minimal)


def zero_ideal(dim):
    return MonomialIdeal(dim, ())


def unit_ideal(dim):
    return MonomialIdeal(dim, ((0,) * dim,))


def ideal_sum(e, f):
    """Smallest ideal containing both: union of generators."""
    if e.dim != f.dim:
        raise DataError("ideals live in different dimensions")
    return normalize(e.dim, e.gens + f.gens)


def ideal_intersect(e, f):
    """Intersection: generated by pairwise lcms."""
    if e.dim != f.dim:
        raise DataError("ideals live in different dimensions")
    return normalize(e.dim, (vec_max(g, h) for g in e.gens for h in f.gens))


def colon(e, v):
    """The quotient (e : v) = {u : u + v in e}."""
    check_point(v)
    if len(v) != e.dim:
        raise DataError(f"point {v!r} does not live in N^{e.dim}")
    return normalize(
        e.dim, (tuple(max(a - b, 0) for a, b in zip(g, v)) for g in e.gens))


def slice_last(e, j):
    """The slice at last coordinate j: points u of N^(m-1) with (u, j) in e.

    Requires m >= 2.  Slices grow with j and stabilize once j reaches the
    largest last coordinate among the generators.
    """
    if e.dim < 2:
        raise DataError("slicing needs ambient dimension >= 2")
    if j < 0:
        raise DataError("slice index must be a natural number")
    return normalize(e.dim - 1,
                     (g[:-1] for g in e.gens if g[-1] <= j))


def cone(e):
    """Extend by one fresh variable: same generators, one more coordinate."""
    return MonomialIdeal(e.dim + 1, tuple(g + (0,) for g in e.gens))


def direct_sum(e, f):
    """The kernel-sum construction on N^(m+n): generated by e, f (in their
    own blocks) and all mixed products x_i * y_j.

    Both inputs must be nonzero and proper.
    """
    if e.is_zero() or f.is_zero() or e.is_unit() or f.is_unit():
        raise DataError("direct sum needs nonzero proper ideals")
    m, n = e.dim, f.dim
    gens = [g + (0,) * n for g in e.gens]
    gens += [(0,) * m + h for h in f.gens]
    gens += [unit_vec(m, i) + unit_vec(n, j)
             for i in range(m) for j in range(n)]
    return normalize(m + n, gens)


def _irr_contains(nu, mu):
    """Whether the irreducible ideal for nu contains the one for mu.

    The ideal for nu is generated by x_i^(nu_i) over the support of nu;
    containment holds iff every bounded direction of mu is bounded at
    least as tightly by nu.
    """
    return all(n > 0 and n <= m for n, m in zip(nu, mu) if m > 0)


def irreducible_component_ideal(dim, nu):
    """The irreducible ideal m^nu: generated by pure powers x_i^(nu_i)."""
    return normalize(dim, (unit_vec(dim, i, x)
                           for i, x in enumerate(nu) if x))


def irreducible_decomposition(e):
    """The unique irredundant set of exponent vectors nu with
    e = intersection of the ideals m^nu.

    Works by splitting a mixed generator g = u + v into parts with
    disjoint supports, recursing on (gens, u) and (gens, v), and pruning
    components that contain another component.  Requires e nonzero and
    proper.
    """
    if e.is_zero() or e.is_unit():
        raise DataError("decomposition needs a nonzero proper ideal")
    out = set()
    _decompose(e, out)
    comps = sorted(out, key=DEGLEX.key)
    keep = []
    for nu in comps:
        if not any(mu != nu and _irr_contains(nu, mu) for mu in comps):
            keep.append(nu)
    return keep


def _decompose(e, out):
    mixed = next((g for g in e.gens if len(support(g)) >= 2), None)
    if mixed is None:
        nu = [0] * e.dim
        for g in e.gens:
            i = support(g)[0]
            nu[i] = g[i]
        out.add(tuple(nu))
        return
    i = support(mixed)[0]
    u = unit_vec(e.dim, i, mixed[i])
    v = tuple(0 if k == i else x for k, x in enumerate(mixed))
    _decompose(normalize(e.dim, e.gens + (u,)), out)
    _decompose(normalize(e.dim, e.gens + (v,)), out)


def components_by_support(e):
    """Group the irreducible components by their support.

    Returns a dict mapping a support (tuple of 0-based indices) to the
    sorted list of components compressed to those coordinates.
    """
    grouped = {}
    for nu in irreducible_decomposition(e):
        s = support(nu)
        grouped.setdefault(s, []).append(tuple(nu[i] for i in s))
    return {s: sorted(vs, key=DEGLEX.key) for s, vs in sorted(grouped.items())}


def generator_word(e, order=DEGLEX):
    """The generators of e listed in increasing term order, as a word."""
    key = cmp_to_key(lambda u, v: term_cmp(order, u, v))
    return sorted(e.gens, key=key)
