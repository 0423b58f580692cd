"""Exponent vectors, term orders, and word embeddings.

Points of N^m stand for monomials; divisibility is the componentwise
order.  Words are finite sequences of points, compared by the three
embedding quasi-orders used for ideal generators: subsequence (Higman),
commutative image (bipartite matching), and multiset.
"""

from collections import Counter
from itertools import compress, repeat
from math import comb
from operator import and_, le, lshift, rshift

from .errors import DataError, DimensionMismatch, Value, is_a, listed


def check_point(v):
    if not isinstance(v, tuple) or not v or any(
            type(x) is not int or x < 0 for x in v):  # bools are not points
        raise DataError(f"not a point of N^m: {v!r}")
    return v


def check_same_dim(m, n):
    """Reject operands of N^m and N^n, points or ideals, with m != n."""
    if m != n:
        raise DimensionMismatch(f"dimensions {m} and {n} differ")


def check_order(order):
    """order, when it is a TermOrder; else a DataError."""
    if not is_a(order, TermOrder):
        raise DataError(f"not a term order: {order!r}")
    return order


def degree(v):
    return sum(check_point(v))


def support(v):
    """Indices (0-based) of the nonzero coordinates."""
    return _support(check_point(v))


def _support(v):
    """support, unchecked, for the library's own points."""
    return tuple(compress(range(len(v)), v))


def divides(u, v):
    """Whether u <= v componentwise (the monomial x^u divides x^v).  The
    library's own callers run it unchecked, as ``all(map(le, u, v))``."""
    check_same_dim(len(check_point(u)), len(check_point(v)))
    return all(map(le, u, v))


def unit_vec(m, i, scale=1):
    return (0,) * i + (scale,) + (0,) * (m - i - 1)


class Packing:
    """Points of N^m packed into ints of m b-bit fields, for the engines
    that compare many points of one ideal: built once per ideal, unchecked.

    x_1 sits in the top field, at ``shifts[0]``, so that packed points of
    one degree compare as their points do in lex order.  b is one more
    than the bit length of ``top``, the largest value a field must hold, so
    the top bit of each field, its guard bit, stays clear.  With G the
    guard bits (``guards``) and p, q packed:
    - ((p | G) - q) & G == G exactly when q <= p componentwise: each field
      subtracts without borrowing from the next, and keeps its guard bit
      unless q's coordinate is the larger;
    - ((p | G) - q) & G != 0 exactly when q_i <= p_i for some i;
    - (p + F) & G, with F = G - (G >> (b - 1)) the bits below the guards,
      holds the guard bit of each field where p is nonzero.
    """

    __slots__ = ("width", "value", "shifts", "guards")

    def __init__(self, m, top):
        b = top.bit_length() + 1
        self.width, self.value = b, (1 << b - 1) - 1  # bits below a guard
        self.shifts = range((m - 1) * b, -1, -b)
        self.guards = ((1 << m * b) - 1) // ((1 << b) - 1) << b - 1

    def pack(self, v):
        return sum(map(lshift, v, self.shifts))

    def unpack(self, p):
        return tuple(map(and_, map(rshift, repeat(p), self.shifts),
                         repeat(self.value)))


def points_of_degree(m, n, start=0, stop=None):
    """Degree-n points of N^m in increasing lex order, by stars and bars:
    the gaps between m - 1 bars, listed in lex order, in n + m - 1 slots.
    Only those of lex rank in [start, stop) are built, so the cost is the
    output's: the bars at rank ``start`` are unranked (the combinatorial
    number system), and each later point is the lex successor of the last.
    """
    slots, k = n + m - 1, m - 1
    total = comb(slots, k)
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return []
    bars, r, c = [], start, 0
    for left in range(k, 0, -1):  # bars left to place, this one included
        while r >= (q := comb(slots - c - 1, left - 1)):
            r, c = r - q, c + 1
        bars.append(c)
        c += 1
    out = [_gaps(bars, slots)]
    for _ in range(stop - start - 1):
        i = k - 1
        while bars[i] == slots - k + i:  # the last bar that can move
            i -= 1
        bars[i:] = range(bars[i] + 1, bars[i] + 1 + k - i)
        out.append(_gaps(bars, slots))
    return out


def _gaps(bars, slots):
    """The point whose stars and bars put the bars at ``bars``."""
    return tuple(b - a - 1 for a, b in zip([-1] + bars, bars + [slots]))


class TermOrder(Value, fields=("kind", "matrix")):
    """A term order on N^m: ``lex``, ``deglex``, or an integer matrix order.

    A matrix order compares u, v by the lexicographic order on A*u, A*v.
    The matrix is a tuple of rows, each a tuple of ints, and must order
    every point after the origin, which holds when the first nonzero entry
    in each column is positive.  A value over (kind, matrix)
    (errors.Value); lex and deglex take no matrix.
    """

    def __init__(self, kind, matrix=()):
        if kind not in ("lex", "deglex", "matrix"):
            raise DataError(f"unknown term order {kind!r}")
        if kind == "matrix":
            rows = matrix
            if type(rows) is not tuple or not rows or any(
                    type(r) is not tuple or len(r) != len(rows[0])
                    or any(type(x) is not int for x in r) for r in rows):
                raise DataError("matrix order needs a rectangular tuple of "
                                "tuples of ints")
            for j, col in enumerate(zip(*rows)):
                if next((x for x in col if x), 0) <= 0:
                    raise DataError(
                        f"matrix order column {j} does not order x{j + 1} "
                        "above 1")
        elif type(matrix) is not tuple or matrix:
            raise DataError(f"term order {kind!r} takes no matrix")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "matrix", matrix)

    def key(self, v):
        if self.kind == "lex":
            return v
        if self.kind == "deglex":
            return (sum(v),) + v
        if len(self.matrix[0]) != len(v):
            raise DimensionMismatch(
                f"matrix has {len(self.matrix[0])} columns, point has "
                f"dimension {len(v)}")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.matrix)

    def is_type_omega(self):
        """Whether the order has type omega (finitely many predecessors
        everywhere).  Holds for deglex, fails for lex on m >= 2, and for a
        matrix order amounts to a strictly positive first row."""
        if self.kind == "deglex":
            return True
        if self.kind == "lex":
            return False
        return all(x > 0 for x in self.matrix[0])


LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")


def term_cmp(order, u, v):
    """Three-way comparison of two points under a term order."""
    check_same_dim(len(check_point(u)), len(check_point(v)))
    return _term_cmp(check_order(order), u, v)


def _term_cmp(order, u, v):
    """term_cmp on points of one dimension, unchecked."""
    ku, kv = order.key(u), order.key(v)
    if order.kind == "matrix" and ku == kv and u != v:
        raise DataError("matrix does not totally order these points")
    return (ku > kv) - (ku < kv)


def higman_leq(u, v):
    """Subsequence embedding: u embeds into v preserving order of positions,
    each letter mapping to a componentwise-larger letter.

    The greedy earliest-match scan is correct because any embedding can be
    pushed left.
    """
    u, v = _words(u, v)
    j = 0
    for x in u:
        while j < len(v) and not all(map(le, x, v[j])):
            j += 1
        if j == len(v):
            return False
        j += 1
    return True


def comm_leq(u, v):
    """Embedding with positions permuted freely: an injection from the
    letters of u to letters of v with each letter mapped above itself.

    Letters common to both words are matched to each other first, which
    some injection always does: if one sends a letter x of u to y and a
    letter z to an equal x of v, sending x to x and z to y is one too, as
    z <= x <= y (if no letter goes to that x, x can just move there).
    The rest is bipartite matching, one letter of u at a time, each along
    an augmenting path that a breadth-first search finds, so that no path
    length costs a stack frame.
    """
    cu, cv = _cancel(u, v)
    v = list(cv.elements())
    above = []  # per letter of u left, the mask of the places of v above it
    for x, k in cu.items():
        above += [sum(1 << j for j, y in enumerate(v)
                      if all(map(le, x, y)))] * k
    if len(above) > len(v):
        return False
    match, place = [-1] * len(v), [-1] * len(above)  # the matching, both ways
    return all(_augment(above, match, place, i) for i in range(len(above)))


def _augment(above, match, place, i):
    """Match the free letter i of u along a shortest augmenting path, moving
    the letters on it; False when there is none."""
    parent, seen = {}, 0  # j: the letter of u whose search reached j first
    queue = [i]
    for k in queue:
        new = above[k] & ~seen
        seen |= new
        while new:
            j = (new & -new).bit_length() - 1
            new &= new - 1
            parent[j] = k
            if match[j] < 0:
                while j >= 0:  # back along the path to letter i, unplaced
                    k = parent[j]
                    match[j], place[k], j = k, j, place[k]
                return True
            queue.append(match[j])
    return False


def multiset_leq(u, v):
    """Multiset embedding: cancel letters common to both words, then every
    leftover letter of u must divide some leftover letter of v."""
    cu, cv = _cancel(u, v)
    return all(any(all(map(le, x, y)) for y in cv) for x in cu)


def _cancel(u, v):
    """The letters of u and of v, as Counters, left when the letters common
    to both words are cancelled."""
    cu, cv = map(Counter, _words(u, v))
    common = cu & cv
    return cu - common, cv - common


def _words(u, v):
    """The words u and v as lists, once every letter of both is checked to
    be a point, all of one dimension, so that the embeddings compare
    letters unchecked."""
    u, v = listed(u, "word"), listed(v, "word")
    letters = u + v
    for x in letters:
        check_same_dim(len(check_point(x)), len(letters[0]))
    return u, v
