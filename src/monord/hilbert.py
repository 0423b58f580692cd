"""Hilbert functions, Hilbert-Samuel polynomials, and the ordinal invariant.

For a final segment E of N^m, H_E(n) counts the degree-n points outside E
and h_E(s) = sum of H_E over degrees <= s.  From some threshold on, h_E
agrees with an integer-valued polynomial p_E; its minimizing coefficients
give the ordinal psi(E) < w^m + 1 that measures the height of E in the
containment order.

All three are read off one exact object, the K-polynomial
N(t) = sum over generator subsets S of (-1)^|S| t^(deg lcm S), so that
sum_n H_E(n) t^n = N(t) / (1 - t)^m.  It is computed once per ideal by
pivot recursion rather than by summing over the 2^n subsets, and kept on
the ideal with p_E.

The recursion runs on the generators with two or more variables, packed
into ints by monom.Packing, so that divisibility, supports and
per-variable counts are a few int operations each.  The pure powers x_j^a
are one packed vector beside them, and the recursion stops, in closed
form, once the others have pairwise disjoint supports (see _numerator).
The sum of those closed forms is one int too, N evaluated at t = 2^w for
an n-generator ideal, w = max(n, 2): each coefficient is a balanced w-bit
digit, read off once at the end.
"""

from itertools import accumulate, chain, groupby, repeat, zip_longest
from math import comb
from typing import NamedTuple

from .errors import DataError, digit_limited, listed, natural
from .ideal import MonomialIdeal, check_dim, check_ideal
from .ivpoly import IVPoly, _binom_row, _greedy_tops, check_poly, macaulay_next
from .monom import DEGLEX, Packing, points_of_degree, unit_vec
from .ordinal import ZERO, Ord, omega_pow

# Past this many bits in N(2^w), the pivot leaf sums a dict instead: it
# costs less from about 2^15 bits on random ideals, and from about 2^12 on
# ones with few terms over a wide span of degrees, such as (x1^k, x2, x3).
PACKED_BITS = 1 << 15


def _numerator(e):
    """The K-polynomial N(t) of e as (degree, coefficient) pairs, in
    increasing degree, with nonzero coefficients.

    Pivot recursion (Bayer-Stillman, JSC 14 (1992); Bigatti, JPAA 119
    (1997)): N(I) = N(I + x_i^a) + t^a N(I : x_i^a).  A frame holds the
    mixed generators (those with two or more variables), which no pure
    power divides; the pure powers x_j^(a_j) as one packed vector A, with
    a_j = inf, one past the top exponent, where there is none; and the
    power of t that multiplies the frame's N.  The pivot variable x_i is
    the one in the most mixed generators; on a tie, the first of the tied
    variables met in them, read in deglex order.  a is the upper median
    exponent of x_i among them, so a < a_i:
    - I + x_i^a sets a_i = a and drops the mixed generators with p_i >= a;
    - I : x_i^a takes a from a_i (inf stays inf) and sorts the mixed p,
      an antichain, by c = p_i.  For c > a, p - a e_i is kept untested:
      a_j > p_j for j != i, a_i - a > p_i - a, and the result of another
      q, or a power folded from it, divides it only if q <= p.  For
      0 < c <= a, the cut p - c e_i, if left with one variable, folds into
      A by a minimum; all folds come first, and the other cuts, sorted by
      (degree, packed), are dropped when A or a cut kept before divides
      them.  For c = 0, p is dropped when A or a kept cut divides it;
      another whole q dividing it would be q <= p.
    Once the mixed generators have pairwise disjoint supports, N is the
    product of P_g(a) - t^(deg g) P_g(a - g) over the mixed g, P_g(b) the
    product of (1 - t^(b_j)) over the finite a_j on supp g, and of the
    (1 - t^(a_j)) over the finite a_j off every mixed support: 1 for the
    zero ideal and 0 for the unit ideal, whose a_j are all 0.

    The leaves are summed as one int, N(2^w) (Kronecker substitution):
    t^d P is P << d*w, P (1 - t^a) is P - (P << a*w), and a sum of
    polynomials is +.  Each int is exact, however large its digits grow on
    the way.  Only the result must have every N_k in [-2^(w-1), 2^(w-1)),
    so that _digits reads it back, and w = max(n, 2) bits do for n
    generators: N_0 is 1, or 0 for the unit ideal, and for k >= 1, N_k is
    the number of nonempty even subsets S with deg lcm S = k, at most
    2^(n-1) - 1, less the number of odd ones, at most 2^(n-1).  The bound
    is met at n = 2 and 3: (x, y) has N_1 = -2 and (x, y, z) has N_2 = 3.
    The ints have about (threshold + 1) * w bits, as N has degree at most
    the threshold; past PACKED_BITS the leaf sums a dict (_Terms) instead,
    with w = 1.

    The recursion runs on (degree, packed, mask) triples and never
    unpacks.  Each generator is packed once by monom.Packing, whose fields
    hold the larger of inf and the generator count: no exponent or count
    outgrows it, since exponents only fall and the generator count never
    grows.  With G the guard bits and F the bits below them:
    - the mask ((p + F) & G) >> (b - 1), made at packing and updated by
      the cuts, marks p's support by the low bit of each field, and
      supports are pairwise disjoint when the masks sum to their union;
    - the masks of the mixed generators sum to how many of them use each
      variable, field by field;
    - ((p | G) - A) & G != 0 exactly when a pure power divides p.
    """
    return e._derived("numerator", _pivot_numerator)


def _pivot_numerator(e, _):
    """_numerator, computed."""
    gens = e.gens
    top = max(map(max, gens), default=0) + 1  # inf: no pure power
    pk = Packing(e.dim, max(top, len(gens)))
    b, value, guards = pk.width, pk.value, pk.guards
    ones = guards >> b - 1  # the low bit of each field
    fill, inf = guards - ones, top * ones
    w, span = max(len(gens), 2), threshold(e) + 1
    packed = span * w <= PACKED_BITS
    if packed:
        one, acc = 1, 0  # N(2^w) so far
    else:
        one, acc, w = _Terms({0: 1}), _Terms(), 1
    pairs, pure = [], inf  # pure: A
    for d, p in zip(map(sum, gens), map(pk.pack, gens)):
        mask = (p + fill & guards) >> b - 1
        if mask & mask - 1:
            pairs.append((d, p, mask))
        else:  # one pure power per variable at most; p = 0: the unit ideal
            pure = pure - (inf & value * mask) + p if p else 0
    todo = [(pairs, pure, 0)]
    while todo:
        pairs, pure, offset = todo.pop()
        counts = rest = 0
        for _, _, mask in pairs:
            counts += mask
            rest |= mask
        if counts == rest:
            terms = one << offset * w
            free = ((pure ^ inf) + fill & guards) >> b - 1  # finite a_j
            for d, p, mask in pairs:
                cut = -(terms << d * w)
                own, free = free & mask, free & ~mask
                while own:
                    s = (own & -own).bit_length() - 1
                    own &= own - 1
                    terms -= terms << (pure >> s & value) * w
                    cut -= cut << (pure - p >> s & value) * w
                terms += cut
            while free:
                s = (free & -free).bit_length() - 1
                free &= free - 1
                terms -= terms << (pure >> s & value) * w
            acc += terms
            continue
        best = 0
        while rest:  # ties: the low bits of the most frequent variables
            low = rest & -rest
            rest ^= low
            count = counts >> low.bit_length() - 1 & value
            if count > best:
                best, ties = count, low
            elif count == best:
                ties |= low
        for _, _, mask in pairs:
            if mask & ties:  # i: the shift of the pivot variable's field
                bit = 1 << (i := (mask & ties).bit_length() - 1)
                break
        exps = sorted([p >> i & value for _, p, mask in pairs if mask & bit])
        a = exps[len(exps) // 2]
        ai, lift, below = pure & value << i, a << i, []
        todo.append((below, pure - ai + lift, offset))
        if ai != inf & value << i:  # inf stays inf
            pure -= lift
        kept, cuts, wholes, held = [], [], [], []  # held: the cuts kept
        for t in pairs:
            d, p, mask = t
            c = p >> i & value
            if c > a:  # nothing divides p - a e_i
                kept.append((d - a, p - lift, mask))
                continue
            if c < a:
                below.append(t)
                if not c:
                    wholes.append(t)
                    continue
            if (mask := mask ^ bit) & mask - 1:
                cuts.append((d - c, p - (c << i), mask))
            elif (p := p - (c << i)) < (cur := pure & value * mask):
                pure += p - cur  # one variable left: fold into A by a min
        for group, out in ((sorted(cuts), held), (wholes, kept)):
            for t in group:
                over = t[1] | guards
                if over - pure & guards:
                    continue
                for _, q, _ in held:
                    if over - q & guards == guards:
                        break
                else:
                    out.append(t)
        kept += held
        kept.sort()
        todo.append((kept, pure, offset + a))
    if packed:
        return _digits(acc, w, span)
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _digits(x, w, span):
    """The nonzero (k, N_k) of N from x = N(2^w), N of degree < span with
    every N_k in [-2^(w-1), 2^(w-1)), in increasing k.

    Adding half = 2^(w-1) to every digit makes them all nonnegative, with
    no borrow between them, and an xor with the same bias clears the zero
    digits: rfind on the bits skips from one nonzero digit to the next, so
    the cost is linear in the bits.
    """
    half, size = 1 << w - 1, span * w
    bias = int(format(half, "b") * span, 2)  # half in every digit
    bits, out = format(x + bias ^ bias, "b").zfill(size), []
    end = size  # the digits below end are still to read
    while (j := bits.rfind("1", 0, end)) >= 0:
        k = (size - 1 - j) // w
        end = size - k * w - w
        out.append((k, (int(bits[end:end + w], 2) ^ half) - half))
    return tuple(out)


class _Terms(dict):
    """A polynomial in t as {degree: coefficient}, for ideals whose packed
    numerator would pass PACKED_BITS: << d multiplies by t^d, and +, - and
    unary - act termwise, so the pivot leaf runs on it as on a packed int
    with w = 1."""

    def __lshift__(self, d):
        return _Terms({k + d: c for k, c in self.items()})

    def __neg__(self):
        return _Terms({k: -c for k, c in self.items()})

    def __add__(self, other):
        out = _Terms(self)
        for k, c in other.items():
            out[k] = out.get(k, 0) + c
        return out

    def __sub__(self, other):
        return self + -other


def _hilbert_value(num, m, n):
    """H(n) = sum_k N_k C(n - k + m - 1, m - 1) over the terms with k <= n.

    With m + 1 for m this is h(s): h_E is H of the cone over E, which has
    the same numerator in one more variable.
    """
    return sum(c * comb(n - k + m - 1, m - 1) for k, c in num if k <= n)


def _hilbert_prefix(num, m, size):
    """H(0), ..., H(size - 1) as an iterator: the coefficients of
    N(t) / (1 - t)^m are N's, densified, under m running sums.  With m + 1
    for m it gives h(0), ..., h(size - 1), as _hilbert_value does.

    The sums are chained C-level iterators, so the prefix costs m additions
    per degree and holds m partial sums, however long it is.
    """
    values = map(dict(num).get, range(size), repeat(0))
    for _ in range(m):
        values = accumulate(values)
    return values


def _samuel_poly(e, _):
    """(p_E, threshold): p_E = sum_k N_k C(T - k + m, m) by column sums of
    math.comb, twice as fast as N_k * _binom_row(k, m) stepped in Python."""
    num, m = _numerator(e), e.dim
    return IVPoly((-1) ** (m - i) * sum(c * comb(k, m - i) for k, c in num)
                  for i in range(m + 1)), threshold(e)


def threshold(e):
    """Degree of the lcm of all generators: past it, h_E is polynomial.

    This equals the largest lcm degree over generator subsets, since lcms
    only grow as subsets do.  Zero for the zero and unit ideals.
    """
    return sum(map(max, zip(*check_ideal(e).gens)))


def hilbert_fn(e, n):
    """H_E(n): the number of degree-n points of N^m outside E."""
    return _hilbert_value(_numerator(check_ideal(e)), e.dim,
                          natural(n, "degree"))


def hilbert_samuel_fn(e, s):
    """h_E(s): the number of points of degree <= s outside E."""
    return _hilbert_value(_numerator(check_ideal(e)), e.dim + 1,
                          natural(s, "degree"))


def hilbert_samuel_poly(e):
    """The polynomial p_E with h_E(s) = p_E(s) for all s >= threshold(e).

    Returns the pair (p_E, threshold), worked out once per ideal.
    """
    return check_ideal(e)._derived("poly", _samuel_poly)


class MinimizingCoefficients(NamedTuple):
    """Result of minimizing_coefficients: c = (c_{m-1}, ..., c_0)."""

    c: tuple
    valid: bool
    first_negative: int | None  # position i of the first c_i < 0, if any


def minimizing_coefficients(p, m):
    """The coefficient tuple behind psi_p = w^(m-1)*c_{m-1} + ... + c_0.

    p must be nonzero of degree < m.  A polynomial is the Hilbert-Samuel
    polynomial of some nonzero proper ideal exactly when all c_i come out
    nonnegative; ``valid`` reports that, with the offending position.

    One loop peels the c_j off p's coordinates from the top degree down:
    c_j is the degree-j coordinate of what is left, and its c_j summands
    in poly_from_a_sequence add up (hockey stick) to C(T - S + j + 1, j + 1)
    - C(T - S - c_j + j + 1, j + 1), S the sum of the c above; subtracting
    that difference of two _binom_rows clears degree j.  The result is kept
    on p per m (Value._derived), so psi, phi, the canonical list and
    realize peel p once.
    """
    check_dim(m)
    if check_poly(p).is_zero():
        raise DataError("p must be nonzero (the unit ideal has no psi)")
    if p.degree >= m:
        raise DataError(f"degree {p.degree} is too big for N^{m}")
    return p._derived(m, _peel)


def _peel(p, m):
    """minimizing_coefficients, computed."""
    b, c, s = list(p.coeffs) + [0] * (m - len(p.coeffs)), [], 0
    for j in range(m - 1, -1, -1):
        cj = b[j]
        if cj:  # b is 0 above j, so zip may cut it off at the rows' end
            b = [x - y + z for x, y, z in
                 zip(b, _binom_row(s, j + 1), _binom_row(s + cj, j + 1))]
            s += cj
        c.append(cj)
    first_neg = next((i for i, ci in enumerate(reversed(c)) if ci < 0), None)
    return MinimizingCoefficients(tuple(c), first_neg is None, first_neg)


def psi_poly(p, m):
    """The ordinal psi_p < w^m + 1 attached to a realizable polynomial.

    By convention psi of C(T+m, m) itself (the zero ideal) is w^m; any
    other polynomial must have degree < m and nonnegative minimizing
    coefficients.
    """
    if check_poly(p).coeffs == (0,) * check_dim(m) + (1,):
        return omega_pow(m)
    return _psi_of(_realizable(p, m))


def _psi_of(c):
    """psi = w^(m-1)*c_{m-1} + ... + c_0 from c = (c_{m-1}, ..., c_0)."""
    m = len(c)  # the form of a natural k: (((), k),), and () for k = 0
    return Ord._of(tuple(((((), k),) if k else (), ci)
                         for k, ci in zip(range(m - 1, -1, -1), c) if ci))


def _realizable(p, m):
    """The minimizing coefficients of p; a DataError if one is negative,
    since then no ideal realizes p."""
    mc = minimizing_coefficients(p, m)
    if not mc.valid:
        raise DataError(
            f"no ideal realizes this polynomial (c_{mc.first_negative} < 0)")
    return mc.c


def a_sequence(c):
    """The canonical weakly decreasing exponent list: c_i copies of i,
    read from the top coefficient down."""
    return list(_exponents([natural(ci, "coefficient")
                            for ci in listed(c, "coefficient list")]))


def _exponents(c):
    """a_sequence of c, unchecked, as an iterator."""
    return chain.from_iterable(map(repeat, range(len(c) - 1, -1, -1), c))


def poly_from_a_sequence(seq):
    """Rebuild the polynomial sum_k C(T + a_k - (k-1), a_k) from its
    canonical exponent list: as in the peel, a run of copies of a, entries
    r + 1 to s, adds up to _binom_row(r, a + 1) - _binom_row(s, a + 1)."""
    b, s = [], 0
    for a, run in groupby(map(natural, listed(seq, "exponent list"),
                              repeat("exponent"))):
        r, s = s, s + len(list(run))
        b = [x + y - z for x, y, z in zip_longest(
            b, _binom_row(r, a + 1), _binom_row(s, a + 1), fillvalue=0)]
    return IVPoly(b)


def canonical_decomposition(p, m):
    """The canonical exponent list a_1 >= ... >= a_s of a realizable p;
    poly_from_a_sequence inverts it exactly."""
    return tuple(_exponents(_realizable(p, m)))


def phi_poly(p, m):
    """phi(p): the length of the canonical exponent list, i.e. the number
    of summands when p is written degreewise; counted, not listed."""
    return sum(_realizable(p, m))


def realize_poly(p, m):
    """An ideal in N^m whose Hilbert-Samuel polynomial is exactly p.

    Built from the minimizing coefficients c = (c_{m-1}, ..., c_0) of p,
    top variable first.  With j variables left and the coefficients left
    not a constant, the top one, say a, is a slab of a hyperplane layers
    in x_j: E = (x_j^(a + 1)) + x_j^a * J, with J realizing the rest one
    variable down (a leading zero kills x_j).  A constant c_0 in j
    variables is realized by (x_j^(c_0), x_1, ..., x_(j-1)); c_0 = 0 is
    the unit ideal, which makes the slab above it (x_(j+1)^a).  So the
    generators come out minimal, and are only sorted.
    """
    c = _realizable(p, m)
    gens, top = [], ()  # top: the exponents of the variables peeled so far
    for i, ci in enumerate(c):
        j = m - i  # the variables left
        if not any(c[i:-1]):
            if c[-1]:
                gens += [unit_vec(j, j - 1, c[-1]) + top]
                gens += [unit_vec(j, v) + top for v in range(j - 1)]
            else:  # c is nonzero, so a slab came before
                gens[-1] = (0,) * j + top
            break
        gens.append(unit_vec(j, j - 1, ci + 1) + top)
        top = (ci,) + top
    return MonomialIdeal._of(m, tuple(sorted(gens, key=DEGLEX.key)))


def psi_ideal(e):
    """psi(E) for a nonzero proper ideal; the height of E among final
    segments ordered by reverse containment."""
    return psi_poly(hilbert_samuel_poly(e)[0], e.dim)


def height(e):
    """Height of E in the containment order: 0 for the unit ideal, w^m for
    the zero ideal (psi_poly's convention), psi(E) in between."""
    return ZERO if check_ideal(e).is_unit() else psi_ideal(e)


class N0Result(NamedTuple):
    n0: int
    window: int  # H was read on degrees up to this one; >= threshold + 1
    certified: bool


def stability_index(e):
    """n0(E): least n0 with H(n+1) = H(n)^<n> for every n >= n0.

    Every generator has degree at most the threshold, so maximal growth
    there persists (Gotzmann, Math. Z. 158 (1978); Bruns-Herzog, Thm
    4.3.3) and n0 is one past the last failure in 1..threshold: the first
    one a scan from the threshold down meets.  When growth fails at the
    threshold itself, n0 is the Gotzmann number of H's polynomial Delta p_E:
    the kept p_E's coordinates but b_0 (C(T+i,i) - C(T-1+i,i) = C(T+i-1,i-1)).
    The scan walks H(t)'s greedy Macaulay representation down: H(n) =
    H(n - 1)^<n - 1> exactly when H(n)'s has no index-1 term and H(n - 1)
    is its sum with every top and index lowered by one, which is then
    H(n - 1)'s, as the representation is unique (Bruns-Herzog 4.2).
    """
    if check_ideal(e).is_zero() or e.is_unit():
        raise DataError("stability index needs a nonzero proper ideal")
    return _stability_index(e)


def _stability_index(e):
    """stability_index of a nonzero proper ideal, unchecked."""
    num, m, t = _numerator(e), e.dim, threshold(e)
    tops, n0 = _greedy_tops(_hilbert_value(num, m, t), t), 1  # C(a, t - j)
    if _hilbert_value(num, m, t + 1) != sum(
            comb(a + 1, t + 1 - j) for j, a in enumerate(tops)):
        p = e._derived("poly", _samuel_poly)[0]
        n0 = phi_poly(IVPoly(p.coeffs[1:]), m - 1)
    else:
        for n in range(t, 1, -1):
            low = t - n + 1  # H(n - 1)'s tops and indices: lowered low times
            if len(tops) == n or _hilbert_value(num, m, n - 1) != sum(
                    comb(a - low, n - 1 - j) for j, a in enumerate(tops)):
                n0 = n
                break
    return N0Result(n0, t + 1, True)


def lex_segment_ideal(e, bound):
    """The lex segment with the same Hilbert function as e: in each degree
    n <= bound, all but the first H_E(n) points in increasing lex order.
    Every generator of e must have degree at most ``bound``.

    By Macaulay (Bruns-Herzog 4.2) the multiples of its degree n - 1 part
    are the degree-n points past the first r_n = H(n - 1)^<n - 1> (r_0 = 1,
    r_1 = m H(0)), so its degree-n generators have lex ranks [H(n), r_n):
    none from the first n past e's top degree with r_n = H(n) on (Gotzmann).
    """
    m = check_ideal(e).dim
    natural(bound, "degree bound")
    gens, r, top = [], 1, max(map(sum, e.gens), default=0)
    if top > bound:
        raise DataError(f"bound {bound} is below a generator degree")
    for n, h in enumerate(_hilbert_prefix(_numerator(e), m, bound + 1)):
        if n > top and h == r:  # growth maximal at n - 1 >= top: it persists
            break
        gens += points_of_degree(m, n, h, r)
        r = m * h if n == 0 else macaulay_next(h, n)
    return MonomialIdeal._of(m, tuple(gens))


class HilbertProfile(NamedTuple):
    """Everything the polynomial side knows about one ideal."""

    dim: int
    p: IVPoly
    threshold: int
    c: tuple | None  # minimizing coefficients, None for zero/unit ideal
    psi: Ord  # the height: psi(E), or w^m / 0 for the zero / unit ideal
    phi: int | None
    n0: int | None
    numerator: tuple  # N(t) as (degree, coefficient) pairs


HilbertProfile.__repr__ = digit_limited(HilbertProfile.__repr__)


def hilbert_profile(e):
    """Assemble the HilbertProfile of an ideal from one numerator."""
    m, num = check_ideal(e).dim, _numerator(e)
    p, t = hilbert_samuel_poly(e)
    if e.is_zero() or e.is_unit():
        return HilbertProfile(m, p, t, None, height(e), None, None, num)
    c = _realizable(p, m)
    return HilbertProfile(m, p, t, c, _psi_of(c), sum(c),
                          _stability_index(e).n0, num)
