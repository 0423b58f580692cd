"""Independent brute-force oracles and random generators shared by tests.

Everything here recomputes results from first principles (enumeration,
exhaustive search, naive matching) so the library has something honest to
be checked against.
"""

import itertools
import json
import random
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from math import comb, factorial, inf
from operator import le

from monord import (OMEGA, ONE, DataError, IVPoly, MonomialIdeal, Ord,
                    ParseError, binomial, divides, format_ordinal,
                    from_samples, hilbert_fn, hilbert_profile, macaulay_next,
                    normalize, phi_poly, slice_last)
from monord import monom
from monord.chains import SearchResult, _step, as_bound_fn
from monord.hilbert import (_hilbert_prefix, _hilbert_value, _numerator,
                            _realizable)
from monord.ideal import minimal_points
from monord.ivpoly import binom_poly
from monord.monom import _words, unit_vec
from monord.ordinal import MAX_NESTING, _coerce


def points_of_degree(m, n):
    """All points of N^m with degree exactly n."""
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        out.extend((first,) + rest for rest in points_of_degree(m - 1, n - first))
    return out


def points_up_to(m, d):
    return [v for n in range(d + 1) for v in points_of_degree(m, n)]


def in_ideal(gens, v):
    return any(all(a <= b for a, b in zip(g, v)) for g in gens)


def naive_hilbert(e, n):
    """Count degree-n points outside e by enumeration."""
    return sum(1 for v in points_of_degree(e.dim, n) if not in_ideal(e.gens, v))


def naive_hilbert_samuel(e, s):
    return sum(naive_hilbert(e, n) for n in range(s + 1))


def slice_count(e, s):
    """h_e(s) by recursion on the last coordinate; independent of the
    library's Hilbert numerator."""
    return slice_counter(e)(s)


def slice_counter(e):
    """s -> h_e(s) as slice_count computes it, with one memo for every s."""

    @lru_cache(maxsize=None)
    def slices(gens):
        """The slices at j = 0, 1, ..., up to the largest last coordinate,
        past which they stay the same."""
        top = max((g[-1] for g in gens), default=0)
        return [tuple(sorted({g[:-1] for g in gens if g[-1] <= j}))
                for j in range(top + 1)]

    @lru_cache(maxsize=None)
    def count(gens, m, budget):
        if budget < 0:
            return 0
        if in_ideal(gens, (0,) * m):
            return 0
        if m == 1:
            bound = min((g[0] for g in gens), default=budget + 1)
            return min(bound, budget + 1)
        sl = slices(gens)
        return sum(count(sl[min(j, len(sl) - 1)], m - 1, budget - j)
                   for j in range(budget + 1))

    return lambda s: count(tuple(e.gens), e.dim, s)


def subset_lcm_degrees(gens):
    """(sign, deg lcm S) over all nonempty generator subsets S, with sign
    (-1)^(|S|+1): the 2^n inclusion-exclusion the library once used."""
    lcms = {0: None}
    out = []
    for mask in range(1, 1 << len(gens)):
        low = (mask & -mask).bit_length() - 1
        rest = lcms[mask & (mask - 1)]
        cur = gens[low] if rest is None else tuple(map(max, gens[low], rest))
        lcms[mask] = cur
        out.append((1 if bin(mask).count("1") % 2 else -1, sum(cur)))
    return out


def ie_numerator(e):
    """The K-polynomial sum_S (-1)^|S| t^(deg lcm S) by inclusion-exclusion,
    as (degree, coefficient) pairs in increasing degree, zeros dropped."""
    acc = {0: 1}
    for sign, c in subset_lcm_degrees(e.gens):
        acc[c] = acc.get(c, 0) - sign
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def tuple_pivot_numerator(e):
    """The K-polynomial by pivot recursion on exponent tuples, with pure
    powers kept among the generators:
    N(I) = N(I + x_i^a) + t^a N(I : x_i^a), x_i the variable in the most
    mixed generators (the first met on a tie) and a the upper median of
    its exponents among them, down to generators with pairwise disjoint
    supports, where N = prod (1 - t^deg g).  The library's engine picks the
    same pivots, but keeps the pure powers in one vector and stops as soon
    as the mixed generators alone have disjoint supports."""
    acc = Counter()
    todo = [(e.gens, 0)]
    while todo:
        gens, offset = todo.pop()
        supports = [[i for i, x in enumerate(g) if x] for g in gens]
        if sum(map(len, supports)) == len(set().union(*supports)):
            terms = Counter({offset: 1})
            for g in gens:
                terms.subtract({k + sum(g): c for k, c in terms.items()})
            acc.update(terms)
            continue
        mixed = [(g, sup) for g, sup in zip(gens, supports) if len(sup) > 1]
        i = Counter(i for _, sup in mixed for i in sup).most_common(1)[0][0]
        exps = sorted(g[i] for g, _ in mixed if g[i])
        a = exps[len(exps) // 2]
        todo.append((tuple(g for g in gens if g[i] < a)
                     + (unit_vec(len(gens[0]), i, a),), offset))
        todo.append((minimal_points(g[:i] + (max(g[i] - a, 0),) + g[i + 1:]
                                    for g in gens), offset + a))
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def falling_binomial(x, k):
    """C(x, k) for any integer x: the falling factorial x (x-1) ... (x-k+1)
    over k!."""
    num = 1
    for j in range(k):
        num *= x - j
    return num // factorial(k)


def ie_hilbert_samuel_poly(e):
    """p_E = C(T + m, m) - sum_S sign * C(T - deg lcm S + m, m), fitted to
    its values at T = 0..m."""
    m, lcms = e.dim, subset_lcm_degrees(e.gens)

    def value(t):
        return falling_binomial(t + m, m) - sum(
            sign * falling_binomial(t - c + m, m) for sign, c in lcms)

    return from_samples([value(t) for t in range(m + 1)])


def binomial_from_samples(values):
    """The polynomial through p(0), p(1), ... by the formula the library
    once used on the forward differences:
    b_k = sum_j (-1)^j C(k + j, j) D^{k+j} p(0)."""
    table = [list(values)]
    while len(table[-1]) > 1:
        row = table[-1]
        table.append([row[i + 1] - row[i] for i in range(len(row) - 1)])
    diffs = [row[0] for row in table]
    return IVPoly([sum((-1) ** j * binomial(k + j, j) * diffs[k + j]
                       for j in range(len(diffs) - k))
                   for k in range(len(values))])


def sampled_binom_poly(c, k):
    """The polynomial C(T - c + k, k), fitted to its values."""
    return from_samples([falling_binomial(t - c + k, k) for t in range(k + 1)])


def shift(p, k):
    """The polynomial T |-> p(T + k), fitted to its values."""
    d = max(p.degree, 0)
    return from_samples([p(k + t) for t in range(d + 1)])


def shift_coeff_recursion(p):
    """The descending minimizing coefficients (c_d, ..., c_0) of p of degree
    d by the recursion the library once used: c_d is the leading coordinate
    b_d, and the rest are those of p(T + b_d) - C(T + b_d + d + 1, d + 1)
    + C(T + d + 1, d + 1), which has degree < d."""
    d = p.degree
    if d <= 0:
        return [p.coeffs[0] if p.coeffs else 0]
    bd = p.coeffs[d]
    q = (shift(p, bd) - sampled_binom_poly(-bd, d + 1)
         + sampled_binom_poly(0, d + 1))
    assert q.degree < d, "leading terms failed to cancel"
    inner = shift_coeff_recursion(q)
    return [bd] + [0] * (d - len(inner)) + inner


def ivpoly_peel(p, m):
    """The minimizing coefficients (c_{m-1}, ..., c_0) of p by the IVPoly
    arithmetic the library once used: at each nonzero c_j, subtract
    binom_poly(S, j + 1) and add binom_poly(S + c_j, j + 1), S the sum of
    the c above."""
    c, s = [], 0
    for j in range(m - 1, -1, -1):
        cj = p.coeffs[j] if j < len(p.coeffs) else 0
        if cj:
            p = p - binom_poly(s, j + 1) + binom_poly(s + cj, j + 1)
            s += cj
        c.append(cj)
    return tuple(c)


def ivpoly_sum(seq):
    """poly_from_a_sequence as the library once built it: one IVPoly sum
    per exponent."""
    p = IVPoly()
    for k, a in enumerate(seq, start=1):
        p = p + binom_poly(k - 1, a)
    return p


def certified_stability_index(e, margin=8):
    """n0 by the scan the library once used: H, from the inclusion-exclusion
    numerator, on every degree up to past phi(p_E), the Gotzmann number,
    beyond which Macaulay growth is provably exact, plus ``margin`` degrees
    as a sanity check."""
    m = e.dim
    num = ie_numerator(e)
    t = sum(map(max, zip(*e.gens)))
    cert = max(t + 1, phi_poly(ie_hilbert_samuel_poly(e), m))
    window = max(cert + 1, t + m + margin)
    hvals = [sum(c * comb(n - k + m - 1, m - 1) for k, c in num if k <= n)
             for n in range(window + 1)]
    n0 = 1
    for n in range(1, window):
        if hvals[n + 1] != macaulay_next(hvals[n], n):
            assert n < cert, "growth broke past the certified bound"
            n0 = n + 1
    return n0


def persistence_stability_index(e):
    """n0 by the scan the library used before it took the Gotzmann number
    past the threshold: H on n = 1, 2, ... until the first n >= threshold
    where growth is maximal; n0 is one past the last failure.  Its cost
    grows with n0, so it suits only ideals whose n0 is modest."""
    m = e.dim
    num = ie_numerator(e)
    t = sum(map(max, zip(*e.gens)))

    def hilbert(n):
        return sum(c * comb(n - k + m - 1, m - 1) for k, c in num if k <= n)

    n0, n, h = 1, 1, hilbert(1)
    while True:
        h_next = hilbert(n + 1)
        if h_next != macaulay_next(h, n):
            n0 = n + 1
        elif n >= t:
            return n0
        n, h = n + 1, h_next


def column_sum_poly(num, m):
    """sum_k N_k C(T - k + m, m) by column sums of math.comb, the sum the
    library once ran twice: at m for p_E and at m - 1 for H's polynomial,
    which it now reads off p_E."""
    return IVPoly((-1) ** (m - i) * sum(c * comb(k, m - i) for k, c in num)
                  for i in range(m + 1))


def stepwise_stability_index(e):
    """n0 by the scan the library used before it walked one Macaulay
    representation down: from the threshold down, H(n + 1) against a fresh
    macaulay_next(H(n), n) at every degree, each a greedy search of its
    own; when growth fails at the threshold, the Gotzmann number of H's
    polynomial, summed from the numerator one dimension down."""
    m, num = e.dim, _numerator(e)
    t = sum(map(max, zip(*e.gens)))
    n0, h_next = 1, _hilbert_value(num, m, t + 1)
    for n in range(t, 0, -1):
        h = _hilbert_value(num, m, n)
        if h_next != macaulay_next(h, n):
            n0 = n + 1
            break
        h_next = h
    if n0 == t + 1:
        n0 = phi_poly(column_sum_poly(num, m - 1), m - 1)
    return n0


def every_degree_lex_segment(e, bound):
    """The lex segment by the loop the library ran before it stopped where
    growth persists: the Macaulay ranks [H(n), r_n) in every degree
    n <= bound."""
    m = e.dim
    if any(sum(g) > bound for g in e.gens):
        raise DataError(f"bound {bound} is below a generator degree")
    gens, r = [], 1
    for n, h in enumerate(_hilbert_prefix(_numerator(e), m, bound + 1)):
        gens += monom.points_of_degree(m, n, h, r)
        r = m * h if n == 0 else macaulay_next(h, n)
    return MonomialIdeal._of(m, tuple(gens))


def listing_lex_segment(e, bound):
    """The lex segment the library once built by listing: in each degree
    n <= bound keep all but the first H_E(n) points in increasing lex
    order, check that each kept layer extends upward into the next, and
    normalize every kept point."""
    m = e.dim
    if any(sum(g) > bound for g in e.gens):
        raise DataError(f"bound {bound} is below a generator degree")
    layers = [set(points_of_degree(m, n)[hilbert_fn(e, n):])
              for n in range(bound + 1)]
    for n in range(bound):
        for v in layers[n]:
            for i in range(m):
                w = v[:i] + (v[i] + 1,) + v[i + 1:]
                if w not in layers[n + 1]:
                    raise DataError(
                        f"bound {bound} too small: layer {n} does not "
                        "extend upward")
    return normalize(m, (v for layer in layers for v in layer))


def listing_hilbert_output(e, as_json):
    """What ``monord hilbert`` printed when it built H and h as lists: H
    from one _hilbert_value per degree of the window 0..t + 2m, h its
    running sums, and the whole payload through json.dumps or one f-string.
    """
    prof = hilbert_profile(e)
    p, t = prof.p, prof.threshold
    hs = [_hilbert_value(prof.numerator, e.dim, n)
          for n in range(t + 2 * e.dim + 1)]
    cum = list(itertools.accumulate(hs))
    payload = {
        "H": hs,
        "h": cum,
        "p": list(p.coeffs),
        "threshold": t,
        "c": list(prof.c) if prof.c is not None else None,
        "psi": format_ordinal(prof.psi),
        "phi": prof.phi,
        "n0": prof.n0,
        "height": format_ordinal(prof.psi),
    }
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return (f"p = {p}\nthreshold = {t}\nH = {hs}\nh = {cum}\n"
            f"c = {payload['c']}\npsi = {payload['psi']}\n"
            f"phi = {payload['phi']}\nn0 = {payload['n0']}\n"
            f"height = {payload['height']}\n")


def printing_emit(args, payload, text):
    """The CLI's writer before one streaming writer served every
    subcommand: the whole payload through json.dumps, or the text through
    print, with each Iterator (a list the CLI streams) read whole first."""
    if args.json:
        print(json.dumps({k: list(v) if isinstance(v, Iterator) else v
                          for k, v in payload.items()},
                         indent=2, sort_keys=True))
        return
    if not isinstance(text, str):
        text = "".join(", ".join(map(str, part))
                       if isinstance(part, Iterator) else part
                       for part in text)
    print(text, end="" if text.endswith("\n") else "\n")


def irreducible_component_ideal(dim, nu):
    """The irreducible ideal m^nu: generated by pure powers x_i^(nu_i)."""
    return normalize(dim, (unit_vec(dim, i, x) for i, x in enumerate(nu) if x))


def irr_contains(nu, mu):
    """Whether the irreducible ideal m^nu contains m^mu: every direction
    mu bounds, nu bounds at least as tightly.  One coordinate at a time,
    with 0 meaning unbounded, as the library once tested it."""
    return all(0 < n <= m for n, m in zip(nu, mu) if m > 0)


def split_decomposition(e):
    """The irreducible components of a nonzero proper ideal as the library
    once computed them: split a mixed generator g into x_i^(g_i) and the
    rest of g, recurse on both enlarged ideals until every generator is a
    pure power, then drop each leaf vector whose ideal contains another
    leaf's.  Deglex-sorted."""
    out = set()
    stack = [e]
    while stack:
        f = stack.pop()
        mixed = next((g for g in f.gens if sum(1 for x in g if x) >= 2), None)
        if mixed is None:
            nu = [0] * f.dim
            for g in f.gens:
                i = next(k for k, x in enumerate(g) if x)
                nu[i] = g[i]
            out.add(tuple(nu))
            continue
        i = next(k for k, x in enumerate(mixed) if x)
        u = tuple(x if k == i else 0 for k, x in enumerate(mixed))
        v = tuple(0 if k == i else x for k, x in enumerate(mixed))
        stack.append(normalize(f.dim, f.gens + (u,)))
        stack.append(normalize(f.dim, f.gens + (v,)))

    comps = sorted(out, key=lambda nu: (sum(nu),) + nu)
    return [nu for nu in comps
            if not any(mu != nu and irr_contains(nu, mu) for mu in comps)]


def tuple_decompose(e):
    """The irreducible components of a nonzero proper ideal by incremental
    Alexander duality on exponent tuples, the engine the library ran before
    it packed points into ints: each nu is kept with its zeros written as
    inf, one past the largest exponent, so nu holds x^g iff nu_i <= g_i for
    some i, and nu's ideal contains mu's iff nu <= mu componentwise.
    Deglex-sorted."""
    top = max(map(max, e.gens)) + 1  # inf
    comps = [(top,) * e.dim]
    for g in e.gens:
        kept, new = [], set()
        supp = [i for i, x in enumerate(g) if x]
        for nu in comps:
            if any(map(le, nu, g)):
                kept.append(nu)
            else:
                new.update(nu[:i] + (g[i],) + nu[i + 1:] for i in supp)
        pool = kept + list(new)
        comps = kept + [nu for nu in new if not any(
            mu != nu and all(map(le, nu, mu)) for mu in pool)]
    return sorted((tuple(x % top for x in nu) for nu in comps),
                  key=lambda nu: (sum(nu),) + nu)


def slice_triangle(e, f):
    """The triangle order and its deciding slice as the library once
    computed them: compare the slice sequences (j = 0, 1, ... up to the
    largest last coordinate) lexicographically, recursing in one dimension
    less; in dimension 1 the smaller generator (the bigger set) comes
    first and the zero ideal last.  Returns (sign, j), j None in
    dimension 1 or when the ideals are equal."""
    if e.dim == 1:
        a = e.gens[0][0] if e.gens else float("inf")
        b = f.gens[0][0] if f.gens else float("inf")
        return (a > b) - (a < b), None
    bound = max((g[-1] for g in e.gens + f.gens), default=0)
    for j in range(bound + 1):
        c, _ = slice_triangle(slice_last(e, j), slice_last(f, j))
        if c != 0:
            return c, j
    return 0, None


def full_scan_triangle(e, f):
    """The triangle order and its deciding slice as the library computed
    them before its merged walk: one list of both ideals' generators,
    sorted by their reversed points, and the first generator that no
    generator of the other ideal divides decides, shared ones included.
    Returns (sign, j) as slice_triangle does."""
    gens = sorted([(g, -1, f.gens) for g in e.gens] +
                  [(g, 1, e.gens) for g in f.gens], key=lambda t: t[0][::-1])
    for g, side, other in gens:
        if not any(all(map(le, h, g)) for h in other):
            return side, (g[-1] if len(g) > 1 else None)
    return 0, None


def brute_comm_leq(u, v):
    """Injective domination by trying all position assignments."""
    u, v = list(u), list(v)
    if len(u) > len(v):
        return False
    for perm in itertools.permutations(range(len(v)), len(u)):
        if all(divides(u[i], v[j]) for i, j in enumerate(perm)):
            return True
    return False


def bfs_comm_leq(u, v):
    """comm_leq as the library computed it before cancelling common
    letters: bipartite matching, one letter of u at a time, along an
    augmenting path that a breadth-first search over all of v finds."""
    u, v = _words(u, v)
    if len(u) > len(v):
        return False
    match, place = [-1] * len(v), [-1] * len(u)  # the matching, both ways

    def augment(i):
        parent = {}  # j: the letter of u whose search reached v[j] first
        queue = [i]
        for k in queue:
            for j, y in enumerate(v):
                if j not in parent and divides(u[k], y):
                    parent[j] = k
                    if match[j] < 0:
                        while j >= 0:  # back along the path, unplaced
                            k = parent[j]
                            match[j], place[k], j = k, j, place[k]
                        return True
                    queue.append(match[j])
        return False

    return all(augment(i) for i in range(len(u)))


def random_point(rng, m, max_deg):
    d = rng.randint(0, max_deg)
    cuts = sorted(rng.randint(0, d) for _ in range(m - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(d - prev)
    return tuple(parts)


def random_ideal(rng, m, max_gens, max_deg, allow_zero=False, allow_unit=False):
    while True:
        r = rng.randint(0, max_gens)
        pts = [random_point(rng, m, max_deg) for _ in range(r)]
        e = normalize(m, pts)
        if e.is_zero() and not allow_zero:
            continue
        if e.is_unit() and not allow_unit:
            continue
        return e


def random_wide_ideal(rng, m, k):
    """An ideal of N^m with k generators: k distinct points of the lowest
    degree d >= 1 with room for them, so no two divide each other."""
    d = 1
    while comb(d + m - 1, m - 1) < k:
        d += 1
    return normalize(m, rng.sample(points_of_degree(m, d), k))


def random_sparse_ideal(rng, m, k):
    """The ideal of k points of N^m, each set to a value in 1..4 at one to
    three coordinates drawn with repetition, the later value kept."""
    gens = []
    for _ in range(k):
        g = [0] * m
        for _ in range(rng.randint(1, 3)):
            g[rng.randrange(m)] = rng.randint(1, 4)
        gens.append(g)
    return normalize(m, gens)


def random_artinian_staircase(rng, colength):
    """A random Artinian ideal in N^2 whose complement has exactly
    ``colength`` cells: a Young-diagram staircase."""
    heights = []
    left = colength
    while left > 0:
        cap = min(left, heights[-1] if heights else left)
        h = rng.randint(1, cap)
        heights.append(h)
        left -= h
    heights.sort(reverse=True)
    gens = [(len(heights), 0)]
    for i, h in enumerate(heights):
        gens.append((i, h))
    return normalize(2, gens)


def downsets(points):
    """All downward-closed subsets of a finite set of points of N^m."""
    points = list(points)
    out = []
    for bits in itertools.product((0, 1), repeat=len(points)):
        chosen = [p for p, b in zip(points, bits) if b]
        cset = set(chosen)
        if all(q in cset or not divides(q, p)
               for p in chosen for q in points):
            out.append(frozenset(cset))
    return out


def longest_downset_chain(cells):
    """Length (number of strict steps) of the longest chain of down-sets
    from the empty set to the full complement, by DP over the lattice."""
    sets = downsets(cells)
    sets.sort(key=len)
    best = {frozenset(): 0}
    for s in sets:
        if not s:
            continue
        best[s] = 1 + max(best[t] for t in sets
                          if t < s and t in best)
    return best[frozenset(cells)]


def antichains(points):
    """All divisibility antichains within a point list."""
    out = [()]
    for p in points:
        out.extend(c + (p,) for c in list(out)
                   if not any(divides(q, p) or divides(p, q) for q in c))
    return out


def max_decreasing_sequence(m, f_values, stable_at):
    """Exhaustive longest f-bounded lex-decreasing sequence in N^m.

    ``f_values(i)`` gives the degree bound at step i; bounds must be
    constant from index ``stable_at`` on so the memo key can collapse.
    """
    universe = points_up_to(m, max(f_values(i) for i in range(stable_at + 1)))
    universe.sort(reverse=True)

    @lru_cache(maxsize=None)
    def longest(last, key):
        i = key
        best = 0
        for v in universe:
            if (last is None or v < last) and sum(v) <= f_values(i):
                best = max(best, 1 + longest(v, min(i + 1, stable_at)))
        return best

    return longest(None, 0)


def reference_bad_search(m, f, cap):
    """The plain DFS that ``max_bad_degree_growth`` must reproduce: each
    candidate is admitted after testing containment against every earlier
    member.  Returns (sequence, exhaustive, nodes)."""
    f = as_bound_fn(f)

    candidates = {}

    def candidates_for(i):
        d = f(i)
        if d not in candidates:
            candidates[d] = [normalize(m, chain)
                             for chain in antichains(points_up_to(m, d))]
        return candidates[d]

    best = []
    nodes = 0
    exhausted = True

    def dfs(seq):
        nonlocal best, nodes, exhausted
        if nodes >= cap:
            exhausted = False
            return
        nodes += 1
        if len(seq) > len(best):
            best = list(seq)
        for e in candidates_for(len(seq)):
            if all(not (prev >= e) for prev in seq):
                seq.append(e)
                dfs(seq)
                seq.pop()
                if not exhausted:
                    return

    dfs([])
    return best, exhausted, nodes


def recursive_antichains(inc, allowed, outs):
    """The antichains within the point mask ``allowed`` that meet every
    mask in ``outs``, as point masks in increasing order.  inc[k] masks
    the earlier points incomparable to point k."""
    if not outs:
        yield 0
    left = allowed
    while left:
        bit = left & -left
        left ^= bit
        below = allowed & inc[bit.bit_length() - 1]
        # the masks this point leaves unmet, cut to the points still allowed
        unmet = [o & below for o in outs if not o & bit]
        if all(unmet):
            for c in recursive_antichains(inc, below, unmet):
                yield c | bit


def recursive_bad_search(m, f, cap):
    """The bad-sequence search that ``max_bad_degree_growth`` replaced, one
    frame per node and per antichain point: each degree bound rebuilds its
    box's points, incomparability masks and outside masks, comparing
    points as tuples.  Same candidate rule, so the same
    (sequence, exhaustive, nodes)."""
    f = as_bound_fn(f)
    boxes = {}

    def box(d):
        if d not in boxes:
            pts = [v for n in range(d + 1)
                   for v in monom.points_of_degree(m, n)]
            inc = [sum(1 << j for j in range(k) if not divides(pts[j], p))
                   for k, p in enumerate(pts)]
            boxes[d] = pts, inc, {}
        return boxes[d]

    def outside(d, c):
        pts, _, outs = box(d)
        if c not in outs:
            gens = [g for j, g in enumerate(pts[:c.bit_length()])
                    if c >> j & 1]
            outs[c] = sum(1 << j for j, p in enumerate(pts)
                          if not any(divides(g, p) for g in gens))
        return outs[c]

    best = []
    nodes = 0
    exhausted = True

    def dfs(seq, parent_d, cands):
        nonlocal best, nodes, exhausted
        if nodes >= cap:
            exhausted = False
            return
        nodes += 1
        if len(seq) > len(best):
            best = list(seq)
        d = f._at(len(seq))
        pts, inc, _ = box(d)
        if d == parent_d:
            out = outside(d, seq[-1])
            cands = [c for c in cands if c & out]
        else:
            cands = list(recursive_antichains(inc, (1 << len(pts)) - 1,
                                              [outside(d, c) for c in seq]))
        for c in cands:
            seq.append(c)
            dfs(seq, d, cands)
            seq.pop()
            if not exhausted:
                return

    dfs([], None, None)
    pts = box(f._at(len(best) - 1))[0] if best else ()
    return SearchResult([MonomialIdeal._of(m, tuple(
        p for j, p in enumerate(pts) if c >> j & 1)) for c in best],
        exhausted, nodes)


def stepwise_macaulay_tops(a, d):
    """Tops (a_d, ..., a_1) of the greedy d-th Macaulay representation of a.

    Each top is found by stepping c up from i - 1 while C(c + 1, i) still
    fits in what is left of a and stays below the previous top: O(a) steps
    for d = 1, but obviously greedy.
    """
    tops = []
    rem = a
    prev = None
    for i in range(d, 0, -1):
        c = i - 1 if prev is None else max(min(prev - 1, i - 1), 0)
        while (prev is None or c + 1 < prev) and comb(c + 1, i) <= rem:
            c += 1
        tops.append(c)
        rem -= comb(c, i)
        prev = c
    assert rem == 0
    return tuple(tops)


def macaulay_value(rep):
    """The number a whose Macaulay representation is rep:
    C(a_d, d) + ... + C(a_1, 1)."""
    return sum(binomial(a, i) for a, i in zip(rep.tops, range(rep.d, 0, -1)))


def stepwise_macaulay_next(a, d):
    """a^<d> from the stepwise tops: raise every top and index by one."""
    if a == 0:
        return 0
    tops = stepwise_macaulay_tops(a, d)
    return sum(comb(t + 1, i + 1) for t, i in zip(tops, range(d, 0, -1)))


def peel_realize_poly(p, m):
    """realize_poly as it was before it read the minimizing coefficients:
    peel the leading coefficient b_d of p off as a slab of b_d layers in
    the last variable and realize the remainder q one variable down,
    validating p again at every level."""
    _realizable(p, m)
    d = p.degree
    if d <= 0:
        k = p.coeffs[0]
        gens = [unit_vec(m, m - 1, k)] + [unit_vec(m, i) for i in range(m - 1)]
        return normalize(m, gens)
    if d + 1 < m:
        inner = peel_realize_poly(p, d + 1)
        gens = [g + (0,) * (m - d - 1) for g in inner.gens]
        gens += [unit_vec(m, i) for i in range(d + 1, m)]
        return normalize(m, gens)
    bd = p.coeffs[d]
    q = (shift(p, bd) - sampled_binom_poly(-bd, d + 1)
         + sampled_binom_poly(0, d + 1))
    gens = [unit_vec(m, m - 1, bd + 1)]
    if q.is_zero():
        inner_gens = [(0,) * (m - 1)]
    else:
        inner_gens = peel_realize_poly(q, m - 1).gens
    gens.extend(g + (bd,) for g in inner_gens)
    return normalize(m, gens)


# -- the chain-bound engine the library used before closed-form bounds ----

class TrieBound:
    """i -> max(f(0), ..., f(i)) for a callable f, tabulated on demand."""

    def __init__(self, fn):
        self.fn = fn
        self.vals = []

    def __call__(self, i):
        while len(self.vals) <= i:
            v = self.fn(len(self.vals))
            assert isinstance(v, int) and v >= 0
            self.vals.append(max(v, self.vals[-1]) if self.vals else v)
        return self.vals[i]


def _trie_lookup(trie, f):
    """Walk a value trie along f(0), f(1), ...; a stored result means some
    earlier bound agreed with f on its whole relevant prefix."""
    k = 0
    while trie is not None:
        if "result" in trie:
            return trie["result"]
        trie = trie.get("kids", {}).get(f(k))
        k += 1
    return None


def _trie_store(trie, f, result):
    for v in f.vals:
        trie = trie.setdefault("kids", {}).setdefault(v, {})
    trie["result"] = result


def trie_ell(m, f):
    """ell(m, f) for a callable f by the shifted-bound recursion, memoized
    on value prefixes.  Every shift tabulates f up to its offset, which is
    itself an ell value, so keep to small cases."""

    def rec(m, f, memo):
        trie = memo.setdefault(m, {})
        cached = _trie_lookup(trie, f)
        if cached is not None:
            return cached
        if m == 1:
            out = f(0) + 1
        else:
            out = 1
            for i in range(1, f(0) + 1):
                fi = TrieBound(lambda j, off=out, i=i: f(j + off) - f(0) + i)
                out += rec(m - 1, fi, memo)
        _trie_store(trie, f, out)
        return out

    return rec(m, TrieBound(f), {})


def trie_extremal(m, f, cap):
    """A longest f-bounded lex-decreasing sequence truncated to ``cap``, by
    the same recursion as trie_ell."""

    def rec(m, f, cap):
        if cap == 0:
            return []
        if m == 1:
            return [(f(0) - i,) for i in range(min(f(0) + 1, cap))]
        seq = [(f(0),) + (0,) * (m - 1)]
        for i in range(1, f(0) + 1):
            if len(seq) >= cap:
                break
            fi = TrieBound(lambda j, off=len(seq), i=i: f(j + off) - f(0) + i)
            seq.extend((f(0) - i,) + t for t in rec(m - 1, fi, cap - len(seq)))
        return seq[:cap]

    return rec(m, TrieBound(f), cap)


def affine_ell(m, p, q):
    """ell(m, i -> p + i q) by the recurrence for affine bounds: shifting
    one by the length so far, total, gives the affine bound
    j -> (q * total + i) + j q, so at m = 2 each step is
    total <- (q + 1) total + i + 1."""
    if m == 1:
        return p + 1
    total = 1
    for i in range(1, p + 1):
        total += affine_ell(m - 1, q * total + i, q)
    return total


def recurrence_ell(m, f):
    """ell(m, f) for a nondecreasing callable f straight from the recurrence
    ell(m, f) = 1 + sum of ell(m - 1, j -> f(j + off) - f(0) + i), with
    no table and no memo: only for bounds with small f(0) at every level."""
    if m == 1:
        return f(0) + 1
    total = 1
    for i in range(1, f(0) + 1):
        total += recurrence_ell(
            m - 1, lambda j, off=total, i=i: f(j + off) - f(0) + i)
    return total


class TailBound:
    """The chain bound's normal form before BoundFn had two forms, the
    reference for its table form: a table of values, then
    f(i) = tail(i - len(table)) for an IVPoly tail, and the index from which
    f is constant, found by a scan when the tail is."""

    def __init__(self, table, tail):
        self.table, self.tail, self.flat = list(table), tail, inf
        if tail.degree <= 0:
            c, self.flat = tail(0), len(self.table)
            while self.flat and self.table[self.flat - 1] == c:
                self.flat -= 1

    def __call__(self, i):
        if i < len(self.table):
            return self.table[i]
        return self.tail(i - len(self.table))

    @classmethod
    def affine(cls, p, q):
        return cls((), IVPoly((p - q, q)))

    @classmethod
    def from_table(cls, values):
        values = list(itertools.accumulate(values, max))
        return cls(values, IVPoly((values[-1],)))


def recursive_ell(m, f, budget, off=0, k=0):
    """ell(m, j -> f(j + off) + k) for a BoundFn f by the recursion the
    library's walk replaced, one frame per block below a first point: each
    child's bound is f at a larger offset plus an addend.  It charges
    ``budget`` exactly as the walk does, a step before each child, so the
    two agree on ``BudgetExceeded.spent`` too."""
    f0 = f._at(off, budget) + k
    if m == 1 or off >= f._flat:
        if m > 1 and f0 >> 64:
            budget.charge(m * ((f0.bit_length() + 7) // 8))
        return comb(f0 + m, m)
    out = 1
    for i in range(1, f0 + 1):
        _step(budget, out)
        out += recursive_ell(m - 1, f, budget, off + out, k - f0 + i)
    return out


def cnf_cmp(a, b):
    """Three-way comparison of two Ords, term by term on their Ord
    exponents and coefficients: the differential reference for the
    library's tuple order on forms."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cnf_cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


# -- the recursive ordinal printer and parser the library used before its
# loops ---------------------------------------------------------------------

def recursive_format_ordinal(a):
    """format_ordinal by recursion on the exponents."""
    return _format(_coerce(a).form)


def _format(form):
    parts = []
    for g, c in form:
        if not g:
            parts.append(str(c))
            continue
        if g == ONE.form:
            s = "w"
        else:
            es = _format(g)
            if not (es.isdigit() or es == "w"):
                es = "(" + es + ")"
            s = "w^" + es
        if c > 1:
            s += "*" + str(c)
        parts.append(s)
    return " + ".join(parts) or "0"


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, line=1, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self):
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        tok = self.text[start:self.pos]
        if len(tok) > 1 and tok[0] == "0":
            self.error("no leading zeros")
        try:
            return int(tok)
        except ValueError:  # past Python's int-string digit limit
            self.error("too many digits")


def recursive_parse_ordinal(text):
    """parse_ordinal by two mutually recursive functions over a scanner."""
    sc = _Scanner(text)
    sc.skip_ws()
    form = _parse_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input")
    return Ord._of(form)


def _parse_sum(sc):
    """The form of a sum of terms, checked to be in Cantor normal form."""
    terms = [_parse_term(sc)]
    while True:
        save = sc.pos
        sc.skip_ws()
        if sc.peek() != "+":
            sc.pos = save
            break
        sc.take("+")
        sc.skip_ws()
        terms.append(_parse_term(sc))
    if terms == [((), 0)]:
        return ()
    if any(c == 0 for _, c in terms):
        sc.error("'0' is only valid on its own")
    for i in range(1, len(terms)):
        if terms[i - 1][0] <= terms[i][0]:
            sc.error("exponents must strictly decrease")
    return tuple(terms)


def _parse_term(sc):
    if sc.peek().isdecimal():
        # a bare zero is only valid as the whole ordinal, checked by caller
        return ((), sc.nat())
    if sc.peek() != "w":
        sc.error("expected 'w' or a number")
    sc.take("w")
    exp = ONE.form
    if sc.peek() == "^":
        sc.take("^")
        if sc.peek() == "(":
            sc.take("(")
            sc.depth += 1
            if sc.depth > MAX_NESTING:
                sc.error(f"exponents nest deeper than {MAX_NESTING}")
            sc.skip_ws()
            exp = _parse_sum(sc)
            sc.skip_ws()
            sc.take(")")
            sc.depth -= 1
        elif sc.peek() == "w":
            sc.take("w")
            exp = OMEGA.form
        else:
            exp = Ord.from_int(sc.nat()).form
    coeff = 1
    if sc.peek() == "*":
        sc.take("*")
        coeff = sc.nat()
        if coeff == 0:
            sc.error("coefficient must be positive")
    if not exp:
        sc.error("write finite terms as plain numbers")
    return (exp, coeff)
