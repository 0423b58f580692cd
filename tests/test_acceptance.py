"""End-to-end acceptance checks: exact closed forms, oracle comparisons,
and order axioms at scale.  Each test prints one pass/fail line."""

import json
import random
import time
from functools import cmp_to_key
from math import comb

import numpy as np

from monord import (DEGLEX, BoundFn, BudgetExceeded, IVPoly, OMEGA, Ord,
                    binomial,
                    bounds_report, cmp, cone, direct_sum, dominance_cmp, ell,
                    extremal_sequence, format_ordinal, h_bound, height,
                    hilbert_fn,
                    hilbert_profile, hilbert_samuel_fn, hilbert_samuel_poly,
                    ideal_intersect, ideal_sum,
                    irreducible_decomposition, is_bad_sequence, is_osequence,
                    kb_cmp, lex_segment_ideal, max_bad_degree_growth,
                    comm_leq, components_by_support, min_type_cmp,
                    minimizing_coefficients, nat_pow, nat_prod, nat_sum,
                    normalize, omega_pow, phi_poly, poly_from_a_sequence,
                    psi_ideal, psi_poly, stability_index, t_bound, threshold,
                    triangle_cmp)
from monord.cli import format_ideal, main, parse_ideal_text
from monord.hilbert import N0Result, _numerator, _pivot_numerator
from monord.orderings import _triangle
from oracles import (affine_ell, antichains, every_degree_lex_segment,
                     irreducible_component_ideal,
                     irr_contains, listing_hilbert_output,
                     longest_downset_chain, max_decreasing_sequence,
                     naive_hilbert,
                     points_of_degree, points_up_to,
                     random_artinian_staircase, random_ideal,
                     random_sparse_ideal, random_wide_ideal, recurrence_ell,
                     slice_counter,
                     stepwise_macaulay_next)

HILBERT_VALUES = []  # (m, H values) collected by criterion 3 for criterion 4


def report(capsys, num, label, body, limit=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {num:2d} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {num:2d} ({label}): PASS ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_01_psi_closed_form(capsys):
    def body():
        rng = random.Random(201)
        done = 0
        while done < 200:
            a = rng.randint(1, 15)
            b = rng.randint(-30, 30)
            if b + binomial(a, 2) < 0:
                continue
            mc = minimizing_coefficients(IVPoly([b, a]), 2)
            assert mc.valid
            assert mc.c == (a, b + binomial(a, 2))
            want = nat_sum(nat_prod(OMEGA, Ord.from_int(a)),
                           Ord.from_int(b + binomial(a, 2)))
            assert psi_poly(IVPoly([b, a]), 2) == want
            done += 1

    report(capsys, 1, "psi closed form", body, limit=1.0)


def test_criterion_02_psi_isomorphism(capsys):
    def body():
        rng = random.Random(202)
        pool = []
        for _ in range(120):
            m = rng.randint(1, 3)
            e = random_ideal(rng, m, 5, 5)
            p, _ = hilbert_samuel_poly(e)
            pool.append((m, p, psi_poly(p, m)))
        checked = 0
        while checked < 500:
            (ma, p, a), (mb, q, b) = rng.sample(pool, 2)
            if ma != mb:
                continue
            assert dominance_cmp(p, q) == cmp(a, b)
            checked += 1

    report(capsys, 2, "psi isomorphism", body, limit=5.0)


def test_criterion_03_hilbert_samuel_exactness(capsys):
    def body():
        rng = random.Random(203)
        samples = []
        for _ in range(300):
            m = rng.randint(1, 4)
            samples.append(random_ideal(rng, m, 6, 8, allow_zero=True))
        grids = {}
        for m in range(1, 5):
            bound = max((hilbert_samuel_poly(e)[1] + 2 * m
                         for e in samples if e.dim == m), default=0)
            pts = np.array(points_up_to(m, bound), dtype=np.int64)
            grids[m] = (pts, pts.sum(axis=1), bound)
        for e in samples:
            m = e.dim
            pts, deg, _ = grids[m]
            p, t = hilbert_samuel_poly(e)
            inside = np.zeros(len(pts), dtype=bool)
            for g in e.gens:
                inside |= (pts >= np.array(g)).all(axis=1)
            counts = np.bincount(deg[~inside], minlength=t + 2 * m + 1)
            h = np.cumsum(counts)
            for s in range(t + 2 * m + 1):
                assert hilbert_samuel_fn(e, s) == int(h[s])
                if s >= t:
                    assert p(s) == int(h[s])
            HILBERT_VALUES.append(
                (m, [hilbert_fn(e, n) for n in range(t + 2 * m + 1)]))

    report(capsys, 3, "Hilbert-Samuel exactness", body, limit=60.0)


def test_criterion_04_macaulay_bound(capsys):
    def body():
        assert len(HILBERT_VALUES) == 300
        for m, values in HILBERT_VALUES:
            assert is_osequence(values, m).ok

    report(capsys, 4, "Macaulay growth bound", body)


def test_criterion_05_height_oracle(capsys):
    def body():
        rng = random.Random(205)
        for i in range(50):
            colength = rng.randint(1, 8)
            if i % 2:
                e = normalize(1, [(colength,)])
                cells = [(j,) for j in range(colength)]
            else:
                e = random_artinian_staircase(rng, colength)
                cells = [v for v in points_up_to(2, colength)
                         if not e.contains(v)]
            assert len(cells) == colength
            chain = longest_downset_chain(cells)
            assert chain == colength
            assert height(e).to_int() == chain

    report(capsys, 5, "height = longest chain", body, limit=30.0)


def test_criterion_06_ell_vs_dfs(capsys):
    def body():
        for m in (1, 2, 3):
            for c in range(4):
                for p in range(4):
                    f = lambda i, c=c, p=p: min(c, p + i)
                    stable = max(c - p, 0)
                    got = ell(m, f)
                    assert got == max_decreasing_sequence(m, f, stable)
                    if m == 1:
                        assert got == f(0) + 1
        assert ell(2, 1) == 3

    report(capsys, 6, "ell recursion vs DFS", body)


def test_criterion_07_order_axioms(capsys):
    def body():
        universe = []
        seen = set()
        for chain in antichains(points_up_to(2, 3)):
            e = normalize(2, chain)
            if e not in seen:
                seen.add(e)
                universe.append(e)
        for cmp_fn in (lambda a, b: kb_cmp(a, b), triangle_cmp, min_type_cmp):
            ordered = sorted(universe, key=cmp_to_key(cmp_fn))
            for i, a in enumerate(ordered):
                assert cmp_fn(a, a) == 0
                for b in ordered[i + 1:]:
                    assert cmp_fn(a, b) == -1
                    assert cmp_fn(b, a) == 1
            for a in universe:
                for b in universe:
                    if a >= b and a != b:
                        assert cmp_fn(a, b) == -1

    report(capsys, 7, "total orders refine superset", body, limit=30.0)


def test_criterion_08_cone_and_additivity(capsys):
    def body():
        rng = random.Random(208)
        for _ in range(40):
            m = rng.randint(1, 3)
            e = random_ideal(rng, m, 4, 4, allow_zero=True, allow_unit=True)
            for s in range(8):
                assert hilbert_fn(cone(e), s) == hilbert_samuel_fn(e, s)
        for _ in range(40):
            e = random_ideal(rng, 2, 4, 4)
            f = random_ideal(rng, rng.randint(1, 2), 4, 4)
            g = direct_sum(e, f)
            for s in range(1, 8):
                assert hilbert_fn(g, s) == hilbert_fn(e, s) + hilbert_fn(f, s)

    report(capsys, 8, "cone and direct-sum identities", body)


def test_criterion_09_decomposition(capsys):
    def body():
        rng = random.Random(209)
        for _ in range(200):
            m = rng.randint(1, 4)
            e = random_ideal(rng, m, 5, 5)
            comps = irreducible_decomposition(e)
            # the groups keep the decomposition's deglex order
            assert all(vs == sorted(vs, key=DEGLEX.key)
                       for vs in components_by_support(e).values())
            parts = [irreducible_component_ideal(m, nu) for nu in comps]
            rebuilt = parts[0]
            for part in parts[1:]:
                rebuilt = ideal_intersect(rebuilt, part)
            assert rebuilt == e
            for nu, part in zip(comps, parts):
                assert all(sum(1 for x in g if x) == 1 for g in part.gens)
            for k in range(len(parts)):
                rest = None
                for i, part in enumerate(parts):
                    if i == k:
                        continue
                    rest = part if rest is None else ideal_intersect(rest, part)
                assert rest is None or rest != e
            gens = list(e.gens)
            rng.shuffle(gens)
            assert irreducible_decomposition(normalize(m, gens)) == comps
        fired = 0
        for _ in range(500):
            e = random_ideal(rng, 2, 4, 4)
            if rng.random() < 0.5:
                f, e = e, ideal_sum(e, random_ideal(rng, 2, 2, 4))
            else:
                f = random_ideal(rng, 2, 4, 4)
            we, wf = components_by_support(e), components_by_support(f)
            if all(comm_leq(we.get(s, []), wf.get(s, []))
                   for s in set(we) | set(wf)):
                fired += 1
                assert e >= f
        assert fired > 30

    report(capsys, 9, "decomposition soundness", body)


def test_criterion_09_wide_decomposition(capsys):
    # splitting on mixed generators took about 30 s on this ideal
    e = random_wide_ideal(random.Random(209), 6, 200)
    holder = []

    def body():
        holder.append(irreducible_decomposition(e))

    report(capsys, 9, "decomposition, m=6, 200 gens", body, limit=1.0)
    comps = holder[0]
    for nu in comps:
        part = irreducible_component_ideal(6, nu)
        assert all(part.contains(g) for g in e.gens)
    assert not any(mu != nu and irr_contains(nu, mu)
                   for nu in comps for mu in comps)


def _random_ordinal(rng, depth=2):
    terms = rng.randint(0, 3)
    out = Ord.from_int(0)
    for _ in range(terms):
        if depth > 0 and rng.random() < 0.4:
            exp = _random_ordinal(rng, depth - 1)
        else:
            exp = Ord.from_int(rng.randint(0, 3))
        out = nat_sum(out, nat_prod(omega_pow(exp),
                                    Ord.from_int(rng.randint(1, 9))))
    return out


def test_criterion_10_ordinal_laws(capsys):
    def body():
        rng = random.Random(210)
        for _ in range(1000):
            a, b, c = (_random_ordinal(rng) for _ in range(3))
            assert nat_sum(a, b) == nat_sum(b, a)
            assert nat_prod(a, b) == nat_prod(b, a)
            assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))
            assert nat_prod(nat_prod(a, b), c) == nat_prod(a, nat_prod(b, c))
            assert nat_prod(a, nat_sum(b, c)) == \
                nat_sum(nat_prod(a, b), nat_prod(a, c))
            if cmp(a, b) == -1:
                assert cmp(nat_sum(a, c), nat_sum(b, c)) == -1
                if not c.is_zero():
                    assert cmp(nat_prod(a, c), nat_prod(b, c)) == -1
            assert (nat_sum(a, c) == nat_sum(b, c)) == (a == b)
        for a in range(51):
            for b in range(51):
                assert nat_sum(Ord.from_int(a), Ord.from_int(b)).to_int() \
                    == a + b
                assert nat_prod(Ord.from_int(a), Ord.from_int(b)).to_int() \
                    == a * b
        one = Ord.from_int(1)
        for m in (1, 2, 3):
            rep = bounds_report(m)
            assert rep["height"] == nat_sum(omega_pow(m), one)
            assert rep["kb_order_type"] == \
                nat_sum(omega_pow(omega_pow(m - 1)), one)
            assert rep["type_upper"] == \
                omega_pow(nat_pow(nat_sum(OMEGA, one), m))

    report(capsys, 10, "ordinal arithmetic laws", body)


def test_criterion_11_wide_profile(capsys):
    # the ROADMAP baseline case that took 18.8 s by inclusion-exclusion
    rng = random.Random(211)
    e = normalize(3, rng.sample(points_of_degree(3, 6), 16))
    holder = []

    def body():
        holder.append(hilbert_profile(e))

    report(capsys, 11, "hilbert_profile, m=3, 16 gens", body, limit=2.0)
    prof = holder[0]
    h = slice_counter(e)
    t = prof.threshold
    for s in range(t, t + 4):
        assert prof.p(s) == h(s)
    hv = [h(n) - h(n - 1) for n in range(t + 8)]
    for n in range(1, t + 6):
        grows = hv[n + 1] == stepwise_macaulay_next(hv[n], n)
        assert grows or n < prof.n0
        assert not (grows and n == prof.n0 - 1)


def test_criterion_12_heavy_stability_index(capsys):
    # phi(p_E) = 10,984: the scan up to phi took about 40 s on this ideal
    e = normalize(6, [(0, 0, 2, 0, 0, 0), (1, 0, 1, 0, 0, 0),
                      (0, 0, 1, 1, 0, 1), (0, 1, 0, 2, 0, 0),
                      (0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1),
                      (1, 0, 0, 1, 0, 1), (0, 1, 1, 1, 1, 0)])
    holder = []

    def body():
        holder.append(stability_index(e))

    report(capsys, 12, "stability_index, m=6, phi = 10984", body, limit=2.0)
    res = holder[0]
    assert phi_poly(hilbert_samuel_poly(e)[0], 6) == 10984
    assert res.n0 == 156
    assert res.window >= threshold(e) + 1
    hv = [hilbert_fn(e, n) for n in range(res.n0 + 12)]
    for n in range(res.n0 - 1, res.n0 + 10):
        grows = hv[n + 1] == stepwise_macaulay_next(hv[n], n)
        assert grows == (n >= res.n0)


def test_criterion_13_bad_sequence_search(capsys):
    # the DFS re-tested containment against every member per candidate:
    # about 1.5-2 s for these 2000 nodes
    holder = []

    def body():
        holder.append(max_bad_degree_growth(2, 3, cap=2000))

    report(capsys, 13, "bad-sequence search, m=2, f=3, 2000 nodes", body,
           limit=0.25)
    res = holder[0]
    assert res.nodes == 2000 and not res.exhaustive
    assert is_bad_sequence(res.sequence).bad
    assert all(sum(g) <= 3 for e in res.sequence for g in e.gens)


def test_criterion_14_gotzmann_stability_index(capsys):
    # H fails maximal growth at every n the old scan reached; the scan was
    # quadratic and still running after 30 s
    e = normalize(6, [(0, 0, 2, 2, 1, 0), (0, 4, 0, 0, 2, 0)])
    holder = []

    def body():
        holder.append(stability_index(e))

    report(capsys, 14, "stability_index past the threshold, m=6", body,
           limit=1.0)
    assert threshold(e) == 10
    assert holder[0].n0 == 37_050_681


def test_criterion_15_chain_rows(capsys):
    # the old engine ran out of memory on the ell rows and took about 10 s
    # on the t_bound row
    def body():
        for p, q in [(20, 2), (50, 3)]:
            assert ell(2, BoundFn.affine(p, q)) == affine_ell(2, p, q)
        assert t_bound(2, BoundFn.affine(2, 1)) == recurrence_ell(
            2, lambda i: h_bound(2 + i, 2))
        try:
            ell(3, BoundFn.affine(3, 1), budget=200_000)
        except BudgetExceeded as exc:
            assert exc.spent <= 200_000
        else:
            raise AssertionError("ell(3, 3 + i) fit a budget of 200000")

    report(capsys, 15, "chain rows: ell and t_bound exact, budget holds",
           body, limit=1.0)


def test_criterion_16_chain_frames_read_one_bound(capsys):
    # each frame rebuilt its shifted bound as a polynomial: the constant
    # grid took 7.3 s and the growing callable filled memory
    def body():
        for m in range(1, 13):
            for c in range(41):
                assert ell(m, c) == comb(c + m, m)

    report(capsys, 16, "ell(m, c) for m <= 12, c <= 40", body, limit=0.1)

    def body():
        try:
            ell(3, lambda i: 3 + i)
        except BudgetExceeded:
            pass
        else:
            raise AssertionError("ell(3, 3 + i) fit the default budget")

    report(capsys, 16, "callable table charged to the budget", body,
           limit=2.0)
    # budget verdicts on growing bounds are those of the per-frame engine
    for m, p, budget, spent in [(3, 3, 200_000, 199_844),
                                (4, 2, 50_000, 49_924)]:
        try:
            ell(m, BoundFn.affine(p, 1), budget=budget)
        except BudgetExceeded as exc:
            assert exc.spent == spent, (m, p, exc.spent)
        else:
            raise AssertionError(f"ell({m}, {p} + i) fit {budget}")


def test_criterion_17_derived_data_once_per_ideal(capsys, memo_log):
    # min_type_cmp recomputed both numerators in every comparison, and
    # triangle_cmp rebuilt every slice at every level of its recursion;
    # it now reads the generators and builds no slice at all
    def body():
        rng = random.Random(1717)
        pool = []
        while len(pool) < 40:
            e = random_ideal(rng, 4, 8, 5)
            if e not in pool:
                pool.append(e)
        got = [sorted(pool, key=cmp_to_key(cmp_fn))
               for cmp_fn in (min_type_cmp, triangle_cmp)]
        keys = [key for _, key in memo_log]
        assert keys.count("numerator") == 40
        # mintype keeps each numerator and polynomial; triangle keeps nothing
        assert set(keys) == {"numerator", "poly"}
        # the reference computes everything afresh in every comparison
        for order, cmp_fn in zip(got, (min_type_cmp, triangle_cmp)):
            assert order == sorted(pool, key=cmp_to_key(
                lambda a, b: cmp_fn(normalize(4, a.gens),
                                    normalize(4, b.gens))))

    report(capsys, 17, "sorts compute each ideal's data once", body)


def test_criterion_18_stability_index_reads_down_from_the_threshold(capsys):
    # H grows maximally only from 10^6 on, two below the threshold; the scan
    # up from n = 1 took about 5.7 s to find that
    e = normalize(3, [(10 ** 6, 0, 0), (0, 1, 0), (0, 0, 1)])
    holder = []

    def body():
        holder.append(stability_index(e))

    report(capsys, 18, "stability_index, threshold 10^6 + 2", body,
           limit=0.5)
    assert holder[0] == N0Result(1_000_000, 1_000_003, True)


def test_criterion_19_bad_search_with_a_growing_bound(capsys):
    # the search listed all Catalan(f(i) + 2) antichains of each new degree
    # box and tested them against every member: 30 nodes took about 10 s
    holder = []

    def body():
        holder.append(max_bad_degree_growth(2, BoundFn.affine(1, 1), 2000))

    report(capsys, 19, "bad-sequence search, m=2, f=1+i, 2000 nodes", body,
           limit=5.0)
    res = holder[0]
    assert res.nodes == 2000 and not res.exhaustive
    assert len(res.sequence) >= 16
    assert is_bad_sequence(res.sequence).bad
    assert all(sum(g) <= 1 + i
               for i, e in enumerate(res.sequence) for g in e.gens)


def test_criterion_20_high_dimension_polynomials(capsys, tmp_path):
    # p_E was fitted from m + 1 samples and psi recursed through sampled
    # shifts, about m^3 work a level: psi of (x1) at dim 600 took about
    # 11 s; and lexify listed points recursively, one frame per dimension
    path = tmp_path / "x1_500.ideal"
    path.write_text("dim 500\nx1\n")
    holder = []

    def body():
        e = normalize(600, [(1,) + (0,) * 599])
        holder.append(hilbert_samuel_poly(e)[0])
        holder.append(psi_ideal(e))
        holder.append(psi_poly(poly_from_a_sequence(range(299, -1, -1)), 300))
        holder.append(main(["lexify", "--degree", "1", str(path)]))

    report(capsys, 20, "p_E and psi at dim 600, psi at m=300, lexify at 500",
           body, limit=1.0)
    p, psi, psi_ones, code = holder
    assert p == IVPoly((0,) * 599 + (1,))
    assert psi == omega_pow(599)
    ones = Ord.from_int(0)
    for i in range(300):
        ones = nat_sum(ones, omega_pow(i))
    assert psi_ones == ones
    assert code == 0
    assert capsys.readouterr().out == "dim 500\n1" + " 0" * 499 + "\n"


def test_criterion_21_lex_ranks_and_lex_successors(capsys, tmp_path,
                                                   cli_child):
    # lex_segment_ideal listed every point of each degree: 5.3 s and 374 MB
    # at dim 60, about 4 GB at dim 990; extremal_sequence recursed once per
    # dimension; t_bound refitted h_m before any budget was charged
    e = normalize(60, [(2,) + (0,) * 59, (0, 1) + (0,) * 58])
    path = tmp_path / "x1sq_x2_990.ideal"
    path.write_text("dim 990\nx1^2\nx2\n")
    holder = []

    def body():
        holder.append(lex_segment_ideal(e, 4))

    report(capsys, 21, "lex segment of (x1^2, x2), dim 60, degree 4", body,
           limit=1.0)
    assert holder[0].gens == ((1,) + (0,) * 59, (0, 2) + (0,) * 58)

    def body():
        holder.append(cli_child(["lexify", "--degree", "2", path], 256))

    report(capsys, 21, "lexify at dim 990 in a 256 MB child", body,
           limit=2.0)
    res = holder[-1]
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == ("dim 990\n1" + " 0" * 989 + "\n0 2" + " 0" * 988
                          + "\n")

    def body():
        holder.append(extremal_sequence(1000, BoundFn.affine(1, 1), 5000))

    report(capsys, 21, "extremal_sequence at dim 1000, cap 5000", body)
    seq = holder[-1]
    assert len(seq) == 5000 and seq[0] == (1,) + (0,) * 999
    assert all(sum(v) <= 1 + i and v < u
               for i, (u, v) in enumerate(zip(seq, seq[1:]), start=1))

    def body():
        try:
            t_bound(400, BoundFn.affine(1, 1), budget=10)
        except BudgetExceeded as exc:
            assert exc.spent <= 10
        else:
            raise AssertionError("t_bound(400, 1 + i) fit a budget of 10")

    report(capsys, 21, "t_bound at m=400 charges its samples", body,
           limit=0.05)


def test_criterion_22_hilbert_streams_its_window(capsys, tmp_path,
                                                 cli_child):
    # monord hilbert built H and h as lists: in a 64 MB child
    # (x1^10^6, x2, x3) ran out of memory after 2.3 s and
    # (x1^10^8, x2, x3) after 10.6 s
    big = tmp_path / "big.ideal"
    big.write_text("dim 3\nx1^1000000\nx2\nx3\n")
    huge = tmp_path / "huge.ideal"
    huge.write_text("dim 3\nx1^100000000\nx2\nx3\n")
    holder = []

    def body():
        holder.append(cli_child(["hilbert", "--json", big], 64))

    report(capsys, 22, "hilbert (x1^10^6, x2, x3) in a 64 MB child", body,
           limit=2.0)
    res = holder[-1]
    assert (res.returncode, res.stderr) == (0, "")
    data = json.loads(res.stdout)
    e = normalize(3, [(10 ** 6, 0, 0), (0, 1, 0), (0, 0, 1)])
    p, t = hilbert_samuel_poly(e)
    assert (data["p"], data["threshold"], data["psi"]) == (
        list(p.coeffs), t, format_ordinal(psi_ideal(e)))
    # x1^n is the one point of degree n outside, for n < 10^6
    assert data["H"] == [1] * 10 ** 6 + [0] * 9
    assert data["h"] == list(range(1, 10 ** 6)) + [10 ** 6] * 10
    assert len(data["H"]) == len(data["h"]) == 1_000_009
    del data

    def body():
        holder.append(cli_child(["hilbert", "--json", huge], 64))

    report(capsys, 22, "hilbert (x1^10^8, x2, x3) refused by the budget",
           body, limit=1.0)
    res = holder[-1]
    assert (res.returncode, res.stdout) == (69, "")
    assert "budget of 134217728 units" in res.stderr
    assert "--budget" in res.stderr

    # the charge is 2 * (t + 2m + 1) * (digits of h(t + 2m) + 6) bytes
    mid = tmp_path / "mid.ideal"
    mid.write_text("dim 3\nx1^1000\nx2\nx3\n")
    e = normalize(3, [(1000, 0, 0), (0, 1, 0), (0, 0, 1)])
    size = threshold(e) + 2 * e.dim + 1
    charge = 2 * size * (len(str(hilbert_samuel_fn(e, size - 1))) + 6)
    for as_json in (True, False):
        flag = ["--json"] * as_json
        res = cli_child(["hilbert", *flag, "--budget", charge, mid], 64)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == listing_hilbert_output(e, as_json)
        res = cli_child(["hilbert", *flag, "--budget", charge - 1, mid], 64)
        assert (res.returncode, res.stdout) == (69, "")
        assert f"{charge} more asked" in res.stderr


# N(t) of the sparse ideal below, coefficients of t^0 .. t^96
SPARSE_N50_NUMERATOR = (
    1, -1, -5, 1, 15, 6, -31, -14, 42, 31, -67, -66, 80, 110, -7, -150, -37,
    114, 106, -134, -315, 100, 435, 249, -419, -301, 365, 229, -414, -660,
    214, 702, 366, -194, -465, 231, 502, -338, -1341, -241, 1730, 775, -1534,
    -910, 1927, 1253, -1969, -2117, 1678, 2334, -1048, -2575, 296, 2940, -98,
    -2428, -739, 2909, 1279, -2691, -1781, 1509, 2094, -1545, -1306, 1104,
    1555, -451, -1512, -36, 402, 682, -191, -743, 100, 1058, 343, -1563, -578,
    1383, 693, -965, -639, 722, 420, -528, -223, 306, 135, -151, -79, 74, 23,
    -25, -2, 5, -1)


def test_criterion_23_sparse_numerator_in_fifty_variables(capsys):
    # 27 generators in N^50: run down to generators with pairwise disjoint
    # supports, the pivot tree had 340,775 nodes; with the pure powers in
    # one vector and the closed-form leaf it has 1,919
    e = random_sparse_ideal(random.Random(3), 50, 30)
    holder = []

    def body():
        holder.append(hilbert_fn(e, 0))

    report(capsys, 23, "numerator, 27 gens in N^50", body, limit=0.5)
    assert len(e.gens) == 27
    assert _numerator(e) == tuple(enumerate(SPARSE_N50_NUMERATOR))
    for n in range(4):
        assert hilbert_fn(e, n) == naive_hilbert(e, n)


def test_criterion_24_lexify_stops_where_growth_persists(capsys, tmp_path,
                                                          cli_child):
    # lex_segment_ideal walked every degree up to the bound: 2.5 to 7.4 s
    # each at bound 10^6 for these ideals in N^3 (single runs), though their
    # lex generators all have degree <= n0 <= 5; lexify --degree 10^8 ran
    # past 20 s. The walk now stops at the first degree past the top
    # generator degree where growth is maximal
    ideals = [normalize(3, [(2, 0, 0), (0, 2, 0)]),
              normalize(3, [(2, 1, 0), (0, 3, 0)]),
              normalize(3, [(1, 1, 0), (0, 0, 2)])]
    holder = []

    def body():
        holder.extend(lex_segment_ideal(e, 10 ** 6) for e in ideals)

    report(capsys, 24, "three lex segments at bound 10^6", body, limit=0.1)
    # each has a lex generator of degree n0 and none past it
    assert [stability_index(e).n0 for e in ideals] == [4, 5, 4]
    for e, seg in zip(ideals, holder):
        assert seg == every_degree_lex_segment(e, 8)
        assert max(map(sum, seg.gens)) == stability_index(e).n0
    path = tmp_path / "squares.ideal"
    path.write_text("dim 3\nx1^2\nx2^2\n")

    def body():
        holder.append(cli_child(["lexify", "--degree", "100000000", path],
                                256))

    report(capsys, 24, "lexify --degree 10^8 as a child process", body,
           limit=2.0)
    res = holder[-1]
    assert (res.returncode, res.stderr) == (0, "")
    assert parse_ideal_text(res.stdout) == holder[0]


# N(t) of the squarefree ideal below, coefficients of t^0 .. t^30
SQUAREFREE_N30_NUMERATOR = (
    1, 0, 0, -148, 207, 2179, -2152, -35468, 92740, 175681, -1194499,
    1674934, 2529320, -13396891, 21531734, -8435560, -32010735, 76620998,
    -89842202, 60467752, -12728881, -20738599, 28165216, -19564668, 9014810,
    -2849263, 586677, -63066, -1206, 1191, -102)


def test_criterion_25_squarefree_numerator_in_thirty_variables(capsys):
    # 150 squarefree points of degree 3 in N^30: the pivot leaf summed a
    # dict of terms, about 0.8 s best of 3; as one int at t = 2^148, about
    # 0.3 s (the numerator alone, best of 3, on a 2-core VM)
    rng = random.Random(1)
    gens = []
    for _ in range(150):
        g = [0] * 30
        for i in rng.sample(range(30), 3):
            g[i] = 1
        gens.append(g)
    e = normalize(30, gens)
    holder = []

    def body():
        for _ in range(3):
            start = time.perf_counter()
            holder.append((_pivot_numerator(e, None),
                           time.perf_counter() - start))

    report(capsys, 25, "numerator, 148 squarefree gens in N^30, 3 runs",
           body)
    assert len(e.gens) == 148
    num, best = min(holder, key=lambda r: r[1])
    assert num == tuple((k, c) for k, c in
                        enumerate(SQUAREFREE_N30_NUMERATOR) if c)
    assert best < 0.75, f"criterion 25 took {best:.2f}s, best of 3"
    for n in range(4):
        assert hilbert_fn(e, n) == naive_hilbert(e, n)


def test_criterion_26_triangle_order_at_dimension_1000(capsys, tmp_path):
    # 300 squarefree points of degree 3 in N^1000, and the same less the
    # last: the triangle order tested every generator against every one of
    # the other ideal, shared ones included, 355 ms for (a, b) and 820 ms
    # for (a, a) (best of 3, on a 2-core VM); the walk tests none
    rng = random.Random(3)
    gens = []
    for _ in range(300):
        g = [0] * 1000
        for i in rng.sample(range(1000), 3):
            g[i] = 1
        gens.append(g)
    a, b = normalize(1000, gens), normalize(1000, gens[:-1])
    holder = []

    def body():
        for x, y in ((a, b), (b, a), (a, a)):
            best = None
            for _ in range(3):
                start = time.perf_counter()
                got = _triangle(x, y)
                took = time.perf_counter() - start
                best = took if best is None else min(best, took)
            holder.append((got, best))

    report(capsys, 26, "triangle order, 300 squarefree gens in N^1000, "
           "3 pairs", body)
    assert (len(a.gens), len(b.gens)) == (300, 299)
    # the one generator that only a holds, x647*x662*x748, decides at slice 0
    assert [got for got, _ in holder] == [(-1, 0), (1, 0), (0, None)]
    assert triangle_cmp(a, a) == 0
    for _, best in holder:
        assert best < 0.05, f"criterion 26 took {best * 1e3:.1f} ms"
    paths = []
    for name, e in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.ideal")
        paths[-1].write_text(format_ideal(e))
    capsys.readouterr()
    assert main(["compare", "--order", "triangle", *map(str, paths)]) == 10
    assert json.loads(capsys.readouterr().out) == {
        "deciding_slice": 0, "order": "triangle", "result": "less"}
