"""Monomial ideals as final segments of N^m.

An ideal is stored by its canonical generating antichain: the minimal
points under divisibility, sorted by deglex.  The zero ideal is the empty
antichain and the unit ideal is generated by the origin.
"""

from itertools import compress
from operator import le

from .errors import (MAX_DIM, DataError, Value, check_dim, digit_limited,
                     is_a, natural)  # MAX_DIM: ideal.MAX_DIM names it too
from .monom import (DEGLEX, Packing, _support, _term_cmp, check_order,
                    check_point, check_same_dim, unit_vec)


class MonomialIdeal(Value, fields=("dim", "gens")):
    """A finitely generated final segment of N^m in canonical form.

    A value over (dim, gens) (errors.Value).  Derived data (the numerator,
    p_E, the decomposition) is computed at most once per instance and kept
    on it by ``Value._derived``; slices are built per call.
    """

    def __init__(self, dim, gens):
        """Check the points gens and keep the minimal ones, deglex-sorted."""
        check_dim(dim)
        gens = minimal_points([check_point_in(dim, g) for g in gens])
        self._set("dim", dim)
        self._set("gens", gens)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == ((0,) * self.dim,)

    def contains(self, v):
        """Whether the point v lies in the ideal."""
        check_point_in(self.dim, v)
        return any(all(map(le, g, v)) for g in self.gens)

    def __le__(self, other):
        """Containment: self is a subset of other."""
        check_same_dim(self.dim, check_ideal(other).dim)
        return all(any(all(map(le, h, g)) for h in other.gens)
                   for g in self.gens)

    def __ge__(self, other):
        return check_ideal(other) <= self

    @digit_limited
    def __str__(self):
        if self.is_zero():
            return f"zero ideal in N^{self.dim}"
        return "ideal<" + ", ".join(str(g) for g in self.gens) + ">"


def check_ideal(e):
    """e, when it is a MonomialIdeal; else a DataError."""
    if not is_a(e, MonomialIdeal):
        raise DataError(f"not a monomial ideal: {e!r}")
    return e


def check_point_in(dim, v):
    """check_point, and that v has dim coordinates."""
    if len(check_point(v)) != dim:
        raise DataError(f"point {v!r} does not live in N^{dim}")
    return v


def normalize(dim, points):
    """The ideal generated by a finite set of points, each any sequence."""
    try:
        return MonomialIdeal(dim, [tuple(p) for p in points])
    except TypeError:
        raise DataError("normalize takes point sequences") from None


def minimal_points(points):
    """The distinct minimal points of a finite set of points of one N^m
    under divisibility, sorted by deglex."""
    minimal = []
    for p in sorted(set(points), key=DEGLEX.key):
        if not any(all(map(le, q, p)) for q in minimal):
            minimal.append(p)
    return tuple(minimal)


def zero_ideal(dim):
    return MonomialIdeal(dim, ())


def unit_ideal(dim):
    return MonomialIdeal(dim, ((0,) * dim,))


def ideal_sum(e, f):
    """Smallest ideal containing both: union of generators."""
    check_same_dim(check_ideal(e).dim, check_ideal(f).dim)
    return MonomialIdeal._of(e.dim, minimal_points(e.gens + f.gens))


def ideal_intersect(e, f):
    """Intersection: generated by pairwise lcms."""
    check_same_dim(check_ideal(e).dim, check_ideal(f).dim)
    return MonomialIdeal._of(e.dim, minimal_points(
        tuple(map(max, g, h)) for g in e.gens for h in f.gens))


def colon(e, v):
    """The quotient (e : v) = {u : u + v in e}."""
    check_point_in(check_ideal(e).dim, v)
    return MonomialIdeal._of(e.dim, minimal_points(
        tuple(max(a - b, 0) for a, b in zip(g, v)) for g in e.gens))


def slice_last(e, j):
    """The slice at last coordinate j: points u of N^(m-1) with (u, j) in e.

    Requires m >= 2.  Slices grow with j and stabilize once j reaches the
    largest last coordinate among the generators.
    """
    if check_ideal(e).dim < 2:
        raise DataError("slicing needs ambient dimension >= 2")
    j = natural(j, "slice index")
    return MonomialIdeal._of(e.dim - 1, minimal_points(
        g[:-1] for g in e.gens if g[-1] <= j))


def cone(e):
    """Extend by one fresh variable: same generators, one more coordinate."""
    check_dim(check_ideal(e).dim + 1)
    return MonomialIdeal._of(e.dim + 1, tuple(g + (0,) for g in e.gens))


def direct_sum(e, f):
    """The kernel-sum construction on N^(m+n): generated by e, f (in their
    own blocks) and the mixed products x_i * y_j with x_i not in e and y_j
    not in f.  None of these divides another, so they are only sorted.

    Both inputs must be nonzero and proper.
    """
    if any(x.is_zero() or x.is_unit() for x in map(check_ideal, (e, f))):
        raise DataError("direct sum needs nonzero proper ideals")
    m, n = e.dim, f.dim
    check_dim(m + n)
    xs = {g.index(1) for g in e.gens if sum(g) == 1}
    ys = {h.index(1) for h in f.gens if sum(h) == 1}
    gens = [g + (0,) * n for g in e.gens]
    gens += [(0,) * m + h for h in f.gens]
    gens += [unit_vec(m, i) + unit_vec(n, j) for i in range(m) if i not in xs
             for j in range(n) if j not in ys]
    return MonomialIdeal._of(m + n, tuple(sorted(gens, key=DEGLEX.key)))


def irreducible_decomposition(e):
    """The unique irredundant set of exponent vectors nu with
    e = intersection of the ideals m^nu, sorted by deglex.

    Incremental Alexander duality (Miller-Sturmfels, Combinatorial
    Commutative Algebra, ch. 5): start from nu = 0, whose m^nu is the zero
    ideal, and fold in one generator g at a time.  A component that
    already holds x^g (0 < nu_i <= g_i for some i) stays; any other nu
    becomes the vectors nu' with nu'_i = g_i, one for each i in the
    support of g, since m^nu + <x^g> is their intersection.  A new nu'
    whose ideal contains another component is redundant and dropped.
    Requires e nonzero and proper.  Each ideal decomposes once; every call
    returns a fresh list.
    """
    if check_ideal(e).is_zero() or e.is_unit():
        raise DataError("decomposition needs a nonzero proper ideal")
    return list(e._derived("decomposition", _decompose))


def _decompose(e, _):
    """irreducible_decomposition as a tuple, computed.

    Each nu is packed once (monom.Packing) with its zeros written as inf,
    one past the largest exponent: then nu holds x^g iff nu_i <= g_i for
    some i, and nu's ideal contains mu's iff nu <= mu componentwise, each
    one guarded subtraction.  A nu that misses x^g has nu_i > g_i for
    every i, so nu - g borrows nowhere, and taking its field i from nu
    gives c, nu with c_i = g_i.  If c <= mu for a kept mu, then mu_j >=
    nu_j > g_j for j != i, so field i is the one field where mu holds x^g:
    h = (g | G) - mu & G is its guard bit alone.  A new c' made at field
    j != i has c'_j = g_j < c_j.  So c is tested only against the bucket
    of kept mu with that h and the other candidates made at field i; with
    one nu missing x^g, there are none of those.
    """
    inf = max(map(max, e.gens)) + 1
    pk = Packing(e.dim, inf)
    guards, value, b = pk.guards, pk.value, pk.width
    fields = [(value << s, 1 << s + b - 1) for s in pk.shifts]  # mask, guard
    infs = pk.pack((inf,) * e.dim)
    comps = [infs]  # nu = 0: the zero ideal
    for g, packed in zip(e.gens, map(pk.pack, e.gens)):
        over = packed | guards
        kept, missed, buckets = [], [], {}
        for mu in comps:
            h = over - mu & guards
            if not h:
                missed.append(mu)
                continue
            kept.append(mu)
            if not h & h - 1:  # mu holds x^g at one field only
                buckets.setdefault(h, []).append(mu)
        comps = kept
        if len(missed) == 1:
            nu = missed[0]
            d = nu - packed
            for f, bit in compress(fields, g):
                c = nu - (d & f)
                for mu in buckets.get(bit, ()):
                    if (mu | guards) - c & guards == guards:
                        break  # c <= mu, so m^c contains m^mu
                else:
                    comps.append(c)
            continue
        for f, bit in compress(fields, g):
            new = {nu - (nu - packed & f) for nu in missed}
            pool = [*buckets.get(bit, ()), *new]
            for c in new:
                for mu in pool:
                    if (mu | guards) - c & guards == guards and mu != c:
                        break
                else:
                    comps.append(c)
    ones, out = guards >> b - 1, []
    for nu in comps:
        live = (nu ^ infs | guards) - ones & guards  # fields below inf
        out.append(pk.unpack(nu & (live >> b - 1) * value))
    return tuple(sorted(out, key=DEGLEX.key))


def components_by_support(e):
    """Group the irreducible components by their support.

    Returns a dict mapping a support (tuple of 0-based indices) to the
    list of components compressed to those coordinates, in deglex order:
    dropping the zeros that vectors of one support share keeps it.
    """
    grouped = {}
    for nu in irreducible_decomposition(e):
        grouped.setdefault(_support(nu), []).append(tuple(filter(None, nu)))
    return dict(sorted(grouped.items()))


def generator_word(e, order=DEGLEX):
    """The generators of e listed in increasing term order, as a word:
    under deglex, e.gens as every ideal stores them.  A matrix order that
    gives two generators one key does not order them: a DataError.
    """
    if check_order(order).kind == "deglex":
        return list(check_ideal(e).gens)
    word = sorted(check_ideal(e).gens, key=order.key)
    for u, v in zip(word, word[1:]):
        _term_cmp(order, u, v)  # a DataError if the matrix ties u and v
    return word
