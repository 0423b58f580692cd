"""Three total well-orderings on monomial ideals extending reverse inclusion.

Each comparator returns -1/0/1 and satisfies: E a strict superset of F
implies E strictly less.  ``kb_cmp`` orders ideals through their sorted
generator words Kleene-Brouwer style, ``triangle_cmp`` compares slice
sequences, read off the generators, and ``min_type_cmp`` sorts by the
ordinal invariant first and breaks ties with the triangle order.
"""

from math import inf

from .errors import DataError
from .ideal import check_dim, check_ideal, generator_word
from .ivpoly import dominance_cmp
from .monom import DEGLEX, _term_cmp, check_order, check_same_dim
from .ordinal import ONE, OMEGA, nat_pow, nat_sum, omega_pow


def kb_cmp(e, f, order=DEGLEX):
    """Kleene-Brouwer comparison of generator words.

    Generators are sorted increasingly by the term order; the word that
    extends a common prefix comes first, otherwise the first differing
    generators decide.  The zero ideal (empty word) is the maximum.  The
    term order must have order type omega, so lex is rejected.
    """
    check_same_dim(check_ideal(e).dim, check_ideal(f).dim)
    return _kb(e, f, order)[0]


def _kb(e, f, order):
    """kb_cmp and the index of the deciding generator (None when the
    words agree on their common prefix), for ideals of one dimension."""
    if not check_order(order).is_type_omega():
        raise DataError(f"{order.kind} order does not have type omega; KB "
                        "needs one")
    u = generator_word(e, order)
    v = generator_word(f, order)
    for i, (x, y) in enumerate(zip(u, v)):
        if x != y:  # the words are sorted: the first difference decides
            return _term_cmp(order, x, y), i
    if len(u) != len(v):
        # the longer word is an extension and precedes its truncation
        return (-1 if len(u) > len(v) else 1), None
    return 0, None


def triangle_cmp(e, f):
    """Compare the slice sequences (slice at j = 0, 1, ...) lexicographically,
    recursing in one dimension less; in dimension 1, containment decides
    (bigger set first, the zero ideal last).

    So the least point of the symmetric difference, in lex order read from
    the last coordinate, decides: the ideal holding it comes first.  That
    order is a term order, so the point is the least generator of either
    ideal that the other one misses.
    """
    check_same_dim(check_ideal(e).dim, check_ideal(f).dim)
    return _triangle(e, f)[0]


def _triangle(e, f):
    """triangle_cmp and the deciding slice index (None in dimension 1 or
    when the ideals are equal), for ideals of one dimension.

    Both generator lists, sorted by their reversed points (the term order
    above), are walked side by side: the KB rule of kb_cmp in that order.
    The first generator g that only one ideal holds decides, with no
    divisor test.  A divisor h of g in the other ideal has h <= g in every
    term order, so it comes before g, where both ideals hold every
    generator; then g's own ideal would hold two generators that divide
    one another."""
    # (inf,) is past every point: where one list runs out, the other's
    # next generator decides
    end = [(inf,)]
    u = sorted(g[::-1] for g in e.gens) + end
    v = sorted(g[::-1] for g in f.gens) + end
    for x, y in zip(u, v):
        if x != y:
            side, g = (-1, x) if x < y else (1, y)
            return side, (g[0] if len(g) > 1 else None)
    return 0, None


def min_type_cmp(e, f):
    """Order by the Hilbert-Samuel polynomial under dominance (equivalently
    by psi), breaking ties with the triangle order."""
    check_same_dim(check_ideal(e).dim, check_ideal(f).dim)
    return _min_type(e, f)[0]


def _min_type(e, f):
    """min_type_cmp and the key that decided it: "polynomial" when the
    Hilbert-Samuel polynomials differ, else "triangle", for ideals of one
    dimension."""
    from . import hilbert  # here, so that kb and triangle never load it
    pe, _ = hilbert.hilbert_samuel_poly(e)
    pf, _ = hilbert.hilbert_samuel_poly(f)
    c = dominance_cmp(pe, pf)
    if c != 0:
        return c, "polynomial"
    return _triangle(e, f)[0], "triangle"


def bounds_report(m):
    """The ordinal bound constants for dimension m, computed (not quoted).

    height: order type of the height function range on final segments;
    kb_order_type: order type under the KB well-ordering, which is also
    the lower bound for any total extension of reverse inclusion;
    type_upper: the general upper bound w^((w+1) nat-powered to m).  For
    m = 2 the triangle order's exact type is included.
    """
    check_dim(m)
    kb = nat_sum(omega_pow(omega_pow(m - 1)), ONE)
    report = {
        "height": nat_sum(omega_pow(m), ONE),
        "kb_order_type": kb,
        "type_lower": kb,
        "type_upper": omega_pow(nat_pow(nat_sum(OMEGA, ONE), m)),
    }
    if m == 2:
        report["triangle_order_type_m2"] = nat_sum(
            omega_pow(nat_sum(OMEGA, ONE)), ONE)
    return report
