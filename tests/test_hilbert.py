"""Hilbert functions, Hilbert-Samuel polynomials, psi, n0, lex segments."""

import copy
import pickle
import random
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from monord import (ZERO, DataError, IVPoly, Ord,
                    canonical_decomposition, cmp, cone, direct_sum,
                    dominance_cmp, from_samples, height, hilbert_fn,
                    hilbert_profile, hilbert_samuel_fn, hilbert_samuel_poly,
                    is_osequence, lex_segment_ideal, macaulay_next,
                    macaulay_rep,
                    min_type_cmp, minimizing_coefficients, nat_prod, nat_sum,
                    normalize, omega_pow, parse_ordinal, phi_poly,
                    poly_from_a_sequence, psi_ideal, psi_poly, realize_poly,
                    stability_index, threshold, unit_ideal, zero_ideal)
from monord import hilbert
from monord.hilbert import _numerator, _psi_of, a_sequence
from monord.ivpoly import binom_poly
from monord.monom import points_of_degree, unit_vec
from oracles import (certified_stability_index, column_sum_poly,
                     every_degree_lex_segment, ie_hilbert_samuel_poly,
                     ie_numerator, ivpoly_peel, ivpoly_sum,
                     listing_lex_segment, naive_hilbert,
                     naive_hilbert_samuel, peel_realize_poly,
                     persistence_stability_index, points_up_to,
                     random_artinian_staircase, random_ideal,
                     random_sparse_ideal, random_wide_ideal, shift,
                     shift_coeff_recursion,
                     slice_count, slice_counter, stepwise_macaulay_next,
                     stepwise_stability_index, tuple_pivot_numerator)


def o(text):
    return parse_ordinal(text)


def reference_numerator(e):
    """N(t) by inclusion-exclusion, or by the tuple engine past 10
    generators, where the 2^n subsets cost too much."""
    if len(e.gens) <= 10:
        return ie_numerator(e)
    return tuple_pivot_numerator(e)


class TestHilbertFn:
    def test_zero_ideal(self):
        assert hilbert_fn(zero_ideal(2), 3) == 4

    def test_unit_ideal(self):
        for n in range(5):
            assert hilbert_fn(unit_ideal(3), n) == 0

    def test_principal(self):
        assert hilbert_fn(normalize(2, [(1, 0)]), 3) == 1

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            hilbert_fn(zero_ideal(2), -1)

    def test_no_generator_cap(self):
        # 20 generators, past the 16 where inclusion-exclusion used to refuse
        e = random_wide_ideal(random.Random(37), 3, 20)
        assert len(e.gens) == 20
        p, t = hilbert_samuel_poly(e)
        for n in range(t + 3):
            assert hilbert_fn(e, n) == naive_hilbert(e, n)
            assert hilbert_samuel_fn(e, n) == slice_count(e, n)
        for s in range(t, t + 4):
            assert p(s) == slice_count(e, s)
        res = stability_index(e)
        top = max(t + e.dim + 4, res.n0)
        hv = [naive_hilbert(e, n) for n in range(top + 1)]
        for n in range(res.n0, top):
            assert hv[n + 1] == macaulay_next(hv[n], n)
        n = res.n0 - 1
        assert n == 0 or hv[n + 1] != macaulay_next(hv[n], n)

    def test_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(30):
            e = random_ideal(rng, 3, 5, 4, allow_zero=True, allow_unit=True)
            for n in range(8):
                assert hilbert_fn(e, n) == naive_hilbert(e, n)


class TestHilbertSamuelFn:
    def test_zero_ideal_line(self):
        assert hilbert_samuel_fn(zero_ideal(1), 4) == 5

    def test_unit_ideal(self):
        assert hilbert_samuel_fn(unit_ideal(2), 7) == 0

    def test_example(self):
        assert hilbert_samuel_fn(normalize(2, [(2, 1)]), 2) == 6

    def test_matches_enumeration(self):
        rng = random.Random(43)
        for _ in range(30):
            e = random_ideal(rng, 3, 5, 4, allow_zero=True, allow_unit=True)
            for s in range(7):
                assert hilbert_samuel_fn(e, s) == naive_hilbert_samuel(e, s)

    def test_slice_counting_agrees(self):
        rng = random.Random(47)
        for _ in range(20):
            e = random_ideal(rng, 3, 6, 4, allow_zero=True, allow_unit=True)
            for s in range(7):
                got = hilbert_samuel_fn(e, s)
                assert got == slice_count(e, s)
                assert got == naive_hilbert_samuel(e, s)


class TestHilbertSamuelPoly:
    def test_zero_ideal(self):
        p, t = hilbert_samuel_poly(zero_ideal(2))
        assert p == binom_poly(0, 2)
        assert t == 0

    def test_principal_dim_one(self):
        for k in (1, 4):
            p, t = hilbert_samuel_poly(normalize(1, [(k,)]))
            assert p == IVPoly([k])
            assert t == k

    def test_agreement_window(self):
        rng = random.Random(53)
        for _ in range(25):
            e = random_ideal(rng, 3, 5, 4, allow_zero=True, allow_unit=True)
            p, t = hilbert_samuel_poly(e)
            assert p.degree <= e.dim
            for s in range(t, t + 2 * e.dim + 1):
                assert p(s) == hilbert_samuel_fn(e, s)

    def test_matches_sampled_slice_counts(self):
        rng = random.Random(59)
        for _ in range(15):
            e = random_ideal(rng, 3, 6, 4)
            if len(e.gens) < 2:
                continue
            p, t = hilbert_samuel_poly(e)
            samples = [slice_count(e, t + i) for i in range(e.dim + 1)]
            assert p == shift(from_samples(samples), -t)
            assert p == ie_hilbert_samuel_poly(e)


class TestNumerator:
    def test_matches_inclusion_exclusion(self):
        rng = random.Random(113)
        pool = [f(m) for m in range(1, 7) for f in (zero_ideal, unit_ideal)]
        pool += [random_ideal(rng, rng.randint(1, 6), 10, rng.randint(1, 7),
                              allow_zero=True, allow_unit=True)
                 for _ in range(300)]
        for e in pool:
            assert _numerator(e) == ie_numerator(e) == tuple_pivot_numerator(e)
            assert hilbert_samuel_poly(e)[0] == ie_hilbert_samuel_poly(e)

    def test_trivial_ideals_at_every_width(self):
        for m in (*range(1, 7), 1000):
            for e, num in ((zero_ideal(m), ((0, 1),)), (unit_ideal(m), ())):
                assert _numerator(e) == ie_numerator(e) == num
                assert tuple_pivot_numerator(e) == num

    def test_exponents_past_two_to_the_twenty(self):
        big = 10 ** 6
        for m in (3, 1000):
            e = normalize(m, [unit_vec(m, 0, big), unit_vec(m, 1),
                              unit_vec(m, 2)])
            # (1 - t^big)(1 - t)^2
            assert _numerator(e) == ie_numerator(e) == (
                (0, 1), (1, -2), (2, 1), (big, -1), (big + 1, 2),
                (big + 2, -1))
        rng = random.Random(137)
        for _ in range(30):
            m = rng.randint(2, 5)
            e = normalize(m, [
                tuple(rng.choice((0, 0, rng.randint(1, 9),
                                  rng.randint(2 ** 20, 2 ** 22)))
                      for _ in range(m))
                for _ in range(rng.randint(1, 8))])
            assert _numerator(e) == ie_numerator(e) == tuple_pivot_numerator(e)

    def test_sparse_ideals_at_dim_1000(self):
        rng = random.Random(139)
        for _ in range(12):
            axes = rng.sample(range(1000), 5)  # so that supports meet
            gens = []
            for _ in range(rng.randint(1, 9)):
                g = [0] * 1000
                for i in rng.sample(axes, rng.randint(1, 3)):
                    g[i] = rng.randint(1, 4)
                gens.append(g)
            e = normalize(1000, gens)
            assert _numerator(e) == ie_numerator(e) == tuple_pivot_numerator(e)
            # and under a pure power on every axis
            e = normalize(1000, gens + [unit_vec(1000, i, 5) for i in axes])
            assert _numerator(e) == ie_numerator(e)

    def test_generator_count_sets_the_field_width(self):
        # squarefree generators: exponents need 1 bit a field, but the
        # count of mixed generators at a variable needs more
        rng = random.Random(149)
        squarefree = [p for d in (2, 3, 4) for p in points_of_degree(6, d)
                      if max(p) == 1]  # 50 points, antichains of 10 to 20
        pool = [normalize(6, [p for p in squarefree if sum(p) == 3])]
        pool += [normalize(6, rng.sample(squarefree, 40)) for _ in range(20)]
        for e in pool:
            assert len(e.gens).bit_length() > 1
            assert _numerator(e) == tuple_pivot_numerator(e)
            if len(e.gens) <= 12:
                assert _numerator(e) == ie_numerator(e)

    def test_sparse_pools_in_twelve_and_fifty_variables(self):
        rng = random.Random(151)
        for m in (12, 50):
            for _ in range(30):
                e = random_sparse_ideal(rng, m, rng.randint(4, 16))
                assert _numerator(e) == reference_numerator(e)

    def test_one_mixed_generator_under_pure_powers(self):
        # pure powers on none, some and all of its support, and off it
        rng = random.Random(157)
        for _ in range(60):
            m = rng.randint(2, 6)
            support = rng.sample(range(m), rng.randint(2, m))
            g = [rng.randint(1, 5) if j in support else 0 for j in range(m)]
            off = [unit_vec(m, j, rng.randint(1, 4)) for j in range(m)
                   if j not in support and rng.random() < 0.5]
            for k in (0, rng.randint(1, len(support) - 1), len(support)):
                on = [unit_vec(m, j, g[j] + rng.randint(1, 3))
                      for j in support[:k]]
                e = normalize(m, [g] + on + off)
                assert len(e.gens) == 1 + len(on) + len(off)
                assert _numerator(e) == ie_numerator(e)

    def test_disjoint_mixed_generators_under_pure_powers(self):
        rng = random.Random(163)
        for _ in range(60):
            m = rng.randint(4, 9)
            order, gens = rng.sample(range(m), m), []
            while len(order) >= 2 and rng.random() < 0.8:
                size = rng.randint(2, min(3, len(order)))
                support, order = order[:size], order[size:]
                g = [rng.randint(1, 4) if j in support else 0
                     for j in range(m)]
                gens.append(g)
                gens += [unit_vec(m, j, g[j] + rng.randint(1, 3))
                         for j in support if rng.random() < 0.6]
            gens += [unit_vec(m, j, rng.randint(1, 4)) for j in order
                     if rng.random() < 0.6]
            e = normalize(m, gens)
            assert len(e.gens) == len(gens)
            assert _numerator(e) == ie_numerator(e)

    def test_exponents_around_the_field_width(self):
        # inf, one past the top exponent, and the generator count both
        # sit at 2^k - 1 or 2^k, on either side of a field width
        rng = random.Random(167)
        for k in range(1, 6):
            for top in (2 ** k - 1, 2 ** k):
                e = normalize(1, [(top,)])
                assert _numerator(e) == ((0, 1), (top, -1))
                for _ in range(6):
                    exps = (0, 0, 1, top - 1, top)
                    gens = [[rng.choice(exps) for _ in range(3)]
                            for _ in range(rng.randint(3, 10))]
                    gens += [unit_vec(3, j, top) for j in range(3)
                             if rng.random() < 0.7]
                    e = normalize(3, gens)
                    assert _numerator(e) == reference_numerator(e)
            for count in (2 ** k - 1, 2 ** k):
                e = random_wide_ideal(rng, 4, count)
                assert len(e.gens) == count
                assert _numerator(e) == reference_numerator(e)

    def test_colon_classes(self):
        # the colon by x_i^a sorts each mixed p by c = p_i: c > a keeps
        # p - a e_i untested, 0 < c <= a cuts x_i off p (a cut left with
        # one variable folds into A), c = 0 keeps p whole.  Each case says
        # what its first colon does, in x, y, z, w.  No two results ever
        # coincide: they would come from generators that differ in x_i only
        cases = [
            (1, [(3,)]),  # no mixed generator: no colon at all
            # x^1: p_x = a in both, and both cuts fold into A
            (3, [(1, 0, 1), (1, 1, 0)]),
            # w^1: p_w = a in xzw, whose cut xz stays mixed
            (4, [(0, 1, 0, 1), (1, 0, 1, 1)]),
            # z^1: the cuts of yz and zw fold y and w into A, which divide
            # the whole yw, and y^2 w^2 with room to spare
            (4, [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)]),
            (4, [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 0, 2)]),
            # z^1: yz folds y, and the cut xw of xzw divides the whole xw^2
            (4, [(0, 1, 1, 0), (1, 0, 0, 2), (1, 0, 1, 1)]),
            # z^1: the cuts xw and yw of xzw and yzw stay mixed and meet
            # in w alone, as z has left their supports
            (4, [(0, 1, 1, 1), (1, 0, 1, 1)]),
            # x^2: the cut yz divides the cut yz^2
            (4, [(1, 1, 2, 0), (2, 1, 1, 0)]),
            # x^2: xz^2 and x^2 z fold z^2 and z into A by a min, and x^3 y
            # keeps xy
            (3, [(1, 0, 2), (2, 0, 1), (3, 1, 0)]),
        ]
        for m, gens in cases:
            assert len(normalize(m, gens).gens) == len(gens)
            top = max(map(max, gens)) + 1
            spots = (0, 333, 666, 999)[-m:]  # the same variables in N^1000
            wide = [[0] * 1000 for _ in gens]
            for w, g in zip(wide, gens):
                for s, x in zip(spots, g):
                    w[s] = x
            for e in (normalize(m, gens),
                      normalize(m, gens + [unit_vec(m, j, top)
                                           for j in range(m)]),
                      normalize(1000, wide),
                      normalize(1000, wide + [unit_vec(1000, s, top)
                                              for s in spots])):
                assert _numerator(e) == ie_numerator(e)

    def test_wide_ideals_match_enumeration(self):
        rng = random.Random(127)
        for m, k in ((3, 17), (3, 29), (3, 40), (4, 17), (4, 26), (4, 40)):
            e = random_wide_ideal(rng, m, k)
            assert len(e.gens) == k
            p, t = hilbert_samuel_poly(e)
            for n in range(t + 2):
                assert hilbert_fn(e, n) == naive_hilbert(e, n)
            assert hilbert_samuel_fn(e, t + 1) == naive_hilbert_samuel(e, t + 1)
            for s in range(t + m + 1):
                assert hilbert_samuel_fn(e, s) == slice_count(e, s)
            for s in range(t, t + m + 1):
                assert p(s) == slice_count(e, s)

    def test_profile_reads_the_numerator(self):
        rng = random.Random(131)
        for _ in range(20):
            e = random_ideal(rng, 3, 6, 4, allow_zero=True, allow_unit=True)
            prof = hilbert_profile(e)
            assert prof.numerator == ie_numerator(e)
            for n in range(6):
                assert hilbert_fn(e, n) == naive_hilbert(e, n)
                assert hilbert_samuel_fn(e, n) == slice_count(e, n)


class TestMinimizingCoefficients:
    def test_linear_family(self):
        for a in range(1, 5):
            for b in range(0, 4):
                p = IVPoly([b, a])
                mc = minimizing_coefficients(p, 2)
                assert mc.c == (a, b + a * (a - 1) // 2)
                assert mc.valid

    def test_constant_dim_one(self):
        mc = minimizing_coefficients(IVPoly([3]), 1)
        assert mc.c == (3,) and mc.valid

    def test_invalid_detected(self):
        mc = minimizing_coefficients(IVPoly([-1, 1]), 2)
        assert mc.c == (1, -1)
        assert not mc.valid
        assert mc.first_negative == 0

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            minimizing_coefficients(IVPoly(), 2)
        with pytest.raises(DataError):
            minimizing_coefficients(binom_poly(0, 2), 2)

    def test_matches_shift_recursion(self):
        # the peeling loop against the recursion through p(T + b_d) and the
        # IVPoly peel, on random coordinates (about half of them
        # unrealizable) and on the polynomials of seeded a-sequences, which
        # are checked against the IVPoly sum
        rng = random.Random(1409)
        cases = []
        while len(cases) < 20000:
            m = rng.randint(1, 6)
            p = IVPoly(rng.randint(-9, 9) for _ in range(rng.randint(1, m)))
            if not p.is_zero():
                cases.append((p, m))
        seqs = 0
        while seqs < 3000:
            m = rng.randint(1, 6)
            c = tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 9)))
                      for _ in range(m))
            if any(c):
                seq = a_sequence(c)
                cases.append((poly_from_a_sequence(seq), m))
                assert cases[-1][0] == ivpoly_sum(seq), seq
                seqs += 1
        valid = 0
        for p, m in cases:
            c = shift_coeff_recursion(p)
            c = (0,) * (m - len(c)) + tuple(c)
            negative = [i for i in range(m) if c[m - 1 - i] < 0]
            mc = minimizing_coefficients(p, m)
            assert mc.c == c == ivpoly_peel(p, m), (p, m)
            assert mc.valid == (not negative)
            assert mc.first_negative == (negative[0] if negative else None)
            valid += mc.valid
        assert 3000 + 5000 < valid < len(cases) - 5000


class TestPsi:
    def test_zero_ideal_polynomial(self):
        assert psi_poly(binom_poly(0, 3), 3) == o("w^3")

    def test_linear(self):
        assert psi_poly(IVPoly([0, 2]), 2) == o("w*2 + 1")

    def test_constant(self):
        assert psi_poly(IVPoly([5]), 2) == o("5")

    def test_rejects_unrealizable(self):
        with pytest.raises(DataError):
            psi_poly(IVPoly([-1, 1]), 2)

    def test_unchecked_form_matches_the_checked_constructor(self):
        # _psi_of wraps its form unchecked; Ord(...) checks every term
        rng = random.Random(67)
        for _ in range(2000):
            m = rng.randint(1, 9)
            c = tuple(rng.choice((0, 0, 1, rng.randint(2, 9), 10 ** 40))
                      for _ in range(m))
            want = Ord(tuple((Ord.from_int(m - 1 - i), ci)
                             for i, ci in enumerate(c) if ci))
            assert _psi_of(c).form == want.form, c

    def test_order_isomorphism(self):
        rng = random.Random(61)
        pool = [random_ideal(rng, 2, 4, 4) for _ in range(15)]
        data = [(hilbert_samuel_poly(e)[0], psi_ideal(e)) for e in pool]
        for p, a in data:
            for q, b in data:
                assert dominance_cmp(p, q) == cmp(a, b)


class TestCanonicalDecomposition:
    def test_linear(self):
        assert canonical_decomposition(IVPoly([0, 2]), 2) == (1, 1, 0)

    def test_constant_one(self):
        assert canonical_decomposition(IVPoly([1]), 1) == (0,)

    def test_pure_linear(self):
        assert canonical_decomposition(IVPoly([0, 1]), 2) == (1,)

    def test_phi_examples(self):
        assert phi_poly(IVPoly([4]), 1) == 4
        assert phi_poly(IVPoly([0, 2]), 2) == 3

    def test_phi_rejects_zero_ideal_poly(self):
        with pytest.raises(DataError):
            phi_poly(binom_poly(0, 2), 2)

    def test_inverse_matches_the_ivpoly_sum(self):
        # the run-by-run inverse on lists no peel gives: empty, not
        # monotone, and long, phi >= 10^4 with one run or many
        rng = random.Random(1433)
        seqs = [[], [0], [3, 3, 0, 0, 5, 1, 1, 2],
                a_sequence((3, 40, 10 ** 4)),
                [rng.randint(0, 4) for _ in range(10 ** 4)]]
        for _ in range(500):
            seqs.append([rng.randint(0, 6) for _ in range(rng.randint(1, 30))])
        for seq in seqs:
            assert poly_from_a_sequence(seq) == ivpoly_sum(seq), seq
        assert poly_from_a_sequence(iter([2, 2, 1])) == ivpoly_sum([2, 2, 1])

    def test_peel_and_inverse_build_no_ivpoly_but_the_result(self,
                                                             monkeypatch):
        # the IVPoly arithmetic they replaced built five IVPolys a peel
        # step and one sum per exponent
        built, init = [], IVPoly.__init__
        p = poly_from_a_sequence(a_sequence((2, 0, 3, 40)))

        def counting(self, coeffs=()):
            built.append(coeffs)
            init(self, coeffs)

        monkeypatch.setattr(IVPoly, "__init__", counting)
        for call in (minimizing_coefficients, psi_poly, phi_poly,
                     canonical_decomposition, realize_poly):
            call(p, 4)
            assert not built, call
        poly_from_a_sequence(a_sequence((2, 0, 3, 10 ** 4)))
        assert len(built) == 1

    def test_reconstruction(self):
        rng = random.Random(67)
        for _ in range(25):
            e = random_ideal(rng, 3, 5, 4)
            p, _ = hilbert_samuel_poly(e)
            seq = canonical_decomposition(p, 3)
            assert all(x >= y for x, y in zip(seq, seq[1:]))
            assert poly_from_a_sequence(seq) == p


class TestRealize:
    def test_round_trip_from_ideals(self):
        rng = random.Random(71)
        for _ in range(25):
            e = random_ideal(rng, 3, 5, 4)
            p, _ = hilbert_samuel_poly(e)
            f = realize_poly(p, 3)
            assert hilbert_samuel_poly(f)[0] == p

    def test_constant(self):
        f = realize_poly(IVPoly([3]), 2)
        assert hilbert_samuel_poly(f)[0] == IVPoly([3])

    def test_rejects_unrealizable(self):
        with pytest.raises(DataError):
            realize_poly(IVPoly([-1, 1]), 2)

    def test_psi_phi_decomposition_and_realization_match_oracles(self):
        # p_E by inclusion-exclusion and its coefficients by the shift
        # recursion, neither of which reads binom_poly's coordinates
        rng = random.Random(1423)
        listed = 0
        for _ in range(300):
            m = rng.randint(2, 6)
            e = random_ideal(rng, m, 7, 4)
            p = ie_hilbert_samuel_poly(e)
            c = shift_coeff_recursion(p)
            c = (0,) * (m - len(c)) + tuple(c)
            assert min(c) >= 0
            psi = ZERO
            for i, ci in enumerate(c):
                psi = nat_sum(psi, nat_prod(omega_pow(m - 1 - i), ci))
            assert psi_poly(p, m) == psi
            assert phi_poly(p, m) == sum(c)
            if sum(c) <= 10 ** 4:  # the list has phi entries
                seq = canonical_decomposition(p, m)
                assert seq == tuple(m - 1 - i for i, ci in enumerate(c)
                                    for _ in range(ci))
                listed += 1
            f = realize_poly(p, m)
            assert f.gens == peel_realize_poly(p, m).gens
            assert ie_hilbert_samuel_poly(f) == p
        assert listed >= 290

    def test_matches_peeling(self):
        # the generators are the ones the level-by-level peel built, on
        # polynomials from seeded coefficient tuples and random ideals
        rng = random.Random(607)
        cases = []
        while len(cases) < 300:
            m = rng.randint(1, 5)
            c = tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 9)))
                      for _ in range(m))
            if any(c):
                cases.append((poly_from_a_sequence(a_sequence(c)), m))
        for _ in range(100):
            m = rng.randint(1, 4)
            e = random_ideal(rng, m, 5, 4)
            cases.append((hilbert_samuel_poly(e)[0], m))
        # c_0 = 0: the constant is the unit ideal, under one slab or more
        for c in ((2, 0, 0, 0), (2, 0, 3, 0, 0), (1, 0, 0), (0, 1, 0), (4, 0)):
            cases.append((poly_from_a_sequence(a_sequence(c)), len(c)))
        for p, m in cases:
            assert realize_poly(p, m).gens == peel_realize_poly(p, m).gens


class TestStabilityIndex:
    def test_rejects_trivial(self):
        with pytest.raises(DataError):
            stability_index(zero_ideal(2))
        with pytest.raises(DataError):
            stability_index(unit_ideal(2))

    def test_lex_segment_rule(self):
        rng = random.Random(73)
        for _ in range(15):
            e = random_artinian_staircase(rng, rng.randint(2, 12))
            seg = lex_segment_ideal(e, max(sum(g) for g in e.gens))
            expect = max(sum(g) for g in seg.gens)
            assert stability_index(seg).n0 == expect

    def test_scan_oracle(self):
        rng = random.Random(79)
        pool = [normalize(2, [(2, 1)])]
        pool += [random_ideal(rng, 2, 4, 4) for _ in range(15)]
        for e in pool:
            res = stability_index(e)
            top = max(threshold(e) + e.dim + 4, res.n0)
            hv = [naive_hilbert(e, n) for n in range(top + 1)]
            for n in range(res.n0, top):
                assert hv[n + 1] == macaulay_next(hv[n], n)
            if res.n0 > 1:
                n = res.n0 - 1
                assert hv[n + 1] != macaulay_next(hv[n], n)

    @given(st.integers(3, 5), st.integers(1, 40), st.randoms())
    def test_wide_ideals_follow_macaulay_growth(self, m, k, rng):
        # k runs past 16, where inclusion-exclusion used to refuse
        e = random_wide_ideal(rng, m, k)
        res = stability_index(e)
        h = slice_counter(e)
        top = threshold(e) + m + 4
        hv = [h(n) - h(n - 1) for n in range(top + 2)]
        for n in range(1, top):
            grows = hv[n + 1] == stepwise_macaulay_next(hv[n], n)
            assert grows or n < res.n0
            assert not (grows and n == res.n0 - 1)

    def test_matches_certified_scan(self):
        # the phi-certified scan the persistence scan replaced
        rng = random.Random(83)
        checked = 0
        while checked < 300:
            m = rng.randint(2, 6)
            e = random_ideal(rng, m, 12, 5)
            if phi_poly(hilbert_samuel_poly(e)[0], m) > 400:
                continue
            res = stability_index(e)
            assert res.n0 == certified_stability_index(e)
            assert res.window >= threshold(e) + 1
            checked += 1

    def test_matches_persistence_scan(self):
        # the scan past the threshold that the Gotzmann number replaced;
        # ideals whose phi(p_E) is large are skipped, as the scan is slow
        rng = random.Random(89)
        checked = past_threshold = 0
        while checked < 300:
            m = rng.randint(2, 6)
            e = random_ideal(rng, m, 8, 7)
            if phi_poly(ie_hilbert_samuel_poly(e), m) > 3000:
                continue
            res = stability_index(e)
            assert res.n0 == persistence_stability_index(e), e
            assert res.window == threshold(e) + 1
            past_threshold += res.n0 > threshold(e)
            checked += 1
        assert past_threshold >= 30


    def test_walk_matches_the_stepwise_scan(self):
        # the walk down one Macaulay representation against the scan that
        # built a fresh one per degree: seeded pools, the Gotzmann branch,
        # Artinian ideals whose H is 0 at the threshold, and the inputs of
        # acceptance criteria 12, 14 and 18
        rng = random.Random(97)
        pool = [random_ideal(rng, m, 9, 6)
                for m in range(2, 7) for _ in range(120)]
        gotzmann = []
        while len(gotzmann) < 60:
            e = random_ideal(rng, rng.randint(2, 6), 8, 7)
            if stepwise_stability_index(e) > threshold(e):
                gotzmann.append(e)
        artinian = [random_artinian_staircase(rng, rng.randint(1, 30))
                    for _ in range(40)]
        for _ in range(60):
            m = rng.randint(2, 4)
            gens = random_ideal(rng, m, 6, 5).gens
            artinian.append(normalize(m, gens + tuple(
                unit_vec(m, j, rng.randint(1, 6)) for j in range(m))))
        assert all(hilbert_fn(e, threshold(e)) == 0 for e in artinian)
        criteria = [
            normalize(6, [(0, 0, 2, 0, 0, 0), (1, 0, 1, 0, 0, 0),
                          (0, 0, 1, 1, 0, 1), (0, 1, 0, 2, 0, 0),
                          (0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1),
                          (1, 0, 0, 1, 0, 1), (0, 1, 1, 1, 1, 0)]),
            normalize(6, [(0, 0, 2, 2, 1, 0), (0, 4, 0, 0, 2, 0)]),
            normalize(3, [(10 ** 6, 0, 0), (0, 1, 0), (0, 0, 1)])]
        for e in pool + gotzmann + artinian + criteria:
            # cold: a fresh ideal; warm: p_E kept and peeled first
            cold, warm = normalize(e.dim, e.gens), normalize(e.dim, e.gens)
            psi_poly(hilbert_samuel_poly(warm)[0], e.dim)
            assert (stability_index(cold).n0 == stability_index(warm).n0
                    == stepwise_stability_index(e)), e

    def test_h_polynomial_is_p_e_without_b0(self):
        # Delta p_E is H's polynomial, as C(T + i, i) - C(T - 1 + i, i) =
        # C(T + i - 1, i - 1): the numerator summed one dimension down is
        # p_E's coordinates shifted down, b_0 dropped; 0 for Artinian ideals
        rng = random.Random(101)
        pool = [random_ideal(rng, m, 8, 5)
                for m in range(2, 8) for _ in range(80)]
        artinian = [random_artinian_staircase(rng, rng.randint(1, 30))
                    for _ in range(20)]
        for _ in range(40):
            m = rng.randint(2, 7)
            gens = random_ideal(rng, m, 5, 4).gens
            artinian.append(normalize(m, gens + tuple(
                unit_vec(m, j, rng.randint(1, 5)) for j in range(m))))
        for e in pool + artinian:
            p, _ = hilbert_samuel_poly(e)
            shifted = IVPoly(p.coeffs[1:])
            assert shifted == column_sum_poly(_numerator(e), e.dim - 1), e
            assert shifted.is_zero() == (hilbert_fn(e, threshold(e) + 1)
                                         == 0), e

    @pytest.mark.parametrize("first, second", [
        (stability_index, hilbert_profile), (hilbert_profile, stability_index)])
    def test_gotzmann_branch_reads_the_kept_poly(self, memo_log, monkeypatch,
                                                 first, second):
        # n0 = 20 past the threshold 6: the branch reads H's polynomial off
        # the kept p_E and sums no polynomial of its own, so the numerator
        # is summed once, in m variables
        samuel, sums = hilbert._samuel_poly, []

        def counted(*args):
            sums.append(args)
            return samuel(*args)

        monkeypatch.setattr(hilbert, "_samuel_poly", counted)
        e = normalize(4, [(3, 0, 0, 1), (0, 2, 0, 0)])
        a, b = first(e), second(e)
        assert a.n0 == b.n0 == stepwise_stability_index(e) == 20
        assert threshold(e) == 6
        assert [key for _, key in memo_log] == ["numerator", "poly"]
        assert len(sums) == 1

    def test_an_index_one_term_fails_growth(self):
        # H(2) = 2 = C(2, 2) + C(1, 1) for (x1^2) in N^2: lowered, its terms
        # add up to H(1) = 2, but H(1)^<1> = C(3, 2) = 3 != H(2)
        e = normalize(2, [(2, 0)])
        assert [hilbert_fn(e, n) for n in (1, 2, 3)] == [2, 2, 2]
        assert macaulay_rep(2, 2).tops == (2, 1)
        assert macaulay_next(2, 1) == 3
        assert stability_index(e).n0 == stepwise_stability_index(e) == 2

    def test_one_greedy_representation_per_scan(self, monkeypatch):
        greedy, calls = hilbert._greedy_tops, []

        def counted(a, d):
            calls.append(d)
            return greedy(a, d)

        def refused(a, d):
            raise AssertionError("the walk calls no macaulay_next")

        monkeypatch.setattr(hilbert, "_greedy_tops", counted)
        monkeypatch.setattr(hilbert, "macaulay_next", refused)
        e = normalize(2, [(1, 2), (0, 6), (5, 1)])  # five steps down
        assert stability_index(e).n0 == 6 and calls == [threshold(e)] == [11]


class TestPeelMemo:
    """minimizing_coefficients peels p once per m and keeps the result on
    p, out of sight of ==, hash, repr, pickles and copies."""

    @staticmethod
    def count_rows(monkeypatch):
        row, rows = hilbert._binom_row, []

        def counted(c, k):
            rows.append((c, k))
            return row(c, k)

        monkeypatch.setattr(hilbert, "_binom_row", counted)
        return rows

    def test_consumers_share_one_peel(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        e = normalize(3, [(2, 1, 0), (0, 1, 3), (1, 0, 1)])
        assert stability_index(e).n0 <= threshold(e)  # no second polynomial
        p, _ = hilbert_samuel_poly(e)
        psi = psi_poly(p, 3)
        once = len(rows)
        assert once > 0
        assert phi_poly(p, 3) == len(canonical_decomposition(p, 3))
        realize_poly(p, 3)
        assert hilbert_profile(e).psi == psi_ideal(e) == height(e) == psi
        assert len(rows) == once
        assert minimizing_coefficients(p, 3) is minimizing_coefficients(p, 3)

    def test_each_m_peels_once(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        p = IVPoly([0, 2])
        assert minimizing_coefficients(p, 2).c == (2, 1)
        first = len(rows)
        assert minimizing_coefficients(p, 2).c == (2, 1)
        assert len(rows) == first
        assert minimizing_coefficients(p, 3).c == (0, 2, 1)
        assert len(rows) > first and sorted(p._kept) == [2, 3]

    def test_equality_hash_repr_pickles_and_copies_ignore_the_peels(self):
        p, fresh = IVPoly([3, 2, 1]), IVPoly([3, 2, 1])
        before = repr(p), hash(p), pickle.dumps(p)
        minimizing_coefficients(p, 3)
        minimizing_coefficients(p, 5)
        assert p == fresh and (repr(p), hash(p), pickle.dumps(p)) == before
        assert hash(p) == hash(fresh) and p._kept
        for f in (fresh, pickle.loads(pickle.dumps(p)), copy.copy(p),
                  copy.deepcopy(p)):
            assert f == p and f is not p and "_kept" not in vars(f)

    def test_errors_are_raised_on_every_call(self):
        bad = IVPoly([-1, 1])
        for _ in range(2):
            assert not minimizing_coefficients(bad, 2).valid
            for call in (psi_poly, phi_poly, canonical_decomposition,
                         realize_poly):
                with pytest.raises(DataError, match="no ideal realizes"):
                    call(bad, 2)
        high, zero = IVPoly([0, 0, 1]), IVPoly()
        for _ in range(2):
            with pytest.raises(DataError, match="too big"):
                minimizing_coefficients(high, 2)
            with pytest.raises(DataError, match="nonzero"):
                minimizing_coefficients(zero, 2)
        assert "_kept" not in vars(high) and "_kept" not in vars(zero)


class TestLexSegment:
    def test_fixed_point(self):
        e = normalize(2, [(1, 0)])
        assert lex_segment_ideal(e, 4) == e

    def test_example(self):
        assert lex_segment_ideal(normalize(2, [(0, 2)]), 3).gens == ((2, 0),)

    def test_zero_ideal(self):
        assert lex_segment_ideal(zero_ideal(2), 3).is_zero()

    def test_bound_below_generators(self):
        with pytest.raises(DataError):
            lex_segment_ideal(normalize(2, [(0, 3)]), 2)

    def test_rejects_non_natural_bounds(self):
        # a negative bound returned the zero ideal
        for bound in (-1, True, 2.0):
            with pytest.raises(DataError, match="natural"):
                lex_segment_ideal(zero_ideal(2), bound)

    def test_matches_listing(self):
        # the listing engine the Macaulay ranks replaced; it also checks
        # that every kept layer extends upward, which must never fail
        rng = random.Random(97)
        pairs = 0
        for _ in range(120):
            for m in range(1, 7):
                e = random_ideal(rng, m, 5, 4, allow_zero=True,
                                 allow_unit=True)
                top = max((sum(g) for g in e.gens), default=0)
                for bound in (top, top + 1, top + 3):
                    assert lex_segment_ideal(e, bound).gens == \
                        listing_lex_segment(e, bound).gens, (e, bound)
                    pairs += 1
        assert pairs >= 1000
        for m in (1, 3, 6):
            for e in (zero_ideal(m), unit_ideal(m)):
                for bound in (0, 1, 3):
                    assert lex_segment_ideal(e, bound) == \
                        listing_lex_segment(e, bound)

    def test_high_dimension_costs_what_it_builds(self):
        # each degree walked past its first H(n) combinations: 1.2 s for
        # two generators at dim 300 and degree 3
        e = normalize(300, [(2,) + (0,) * 299, (0, 1) + (0,) * 298])
        start = time.perf_counter()
        seg = lex_segment_ideal(e, 3)
        assert time.perf_counter() - start < 0.1
        assert seg.gens == ((1,) + (0,) * 299, (0, 2) + (0,) * 298)

    def test_stops_where_growth_persists(self):
        # no lex generator lies at or past the first n past e's top degree
        # with H(n) = H(n - 1)^<n - 1>, as growth stays maximal from there
        # (Gotzmann); that n is max(top, n0) + 1.  The loop that walked every
        # degree up to the bound is the reference; its cost grows with n0
        # at each bound, so ideals with n0 > 60 are skipped
        rng = random.Random(3)
        pairs = 0
        while pairs < 5000:
            m = rng.randint(1, 5)
            e = random_ideal(rng, m, 6, 4, allow_zero=True, allow_unit=True)
            top = max((sum(g) for g in e.gens), default=0)
            n0 = (0 if e.is_zero() or e.is_unit()
                  else stability_index(e).n0)
            if n0 > 60:
                continue
            for bound in range(top, max(top, n0) + 11):
                assert lex_segment_ideal(e, bound) == \
                    every_degree_lex_segment(e, bound), (e, bound)
                pairs += 1

    def test_cost_does_not_grow_with_the_bound(self):
        # the loop walked every degree: 4.4 to 6.9 s at bound 10^6 for this
        # ideal (single runs), whose lex generators all have degree <= n0 = 4
        e = normalize(3, [(1, 1, 0), (0, 0, 2)])
        start = time.perf_counter()
        seg = lex_segment_ideal(e, 10 ** 6)
        assert time.perf_counter() - start < 0.1
        assert seg == every_degree_lex_segment(e, 6)
        assert max(sum(g) for g in seg.gens) <= stability_index(e).n0 == 4

    def test_computes_no_gotzmann_number(self, monkeypatch):
        # stopping at min(bound, n0) would peel H's polynomial first: 1.3 s
        # at bound 4 on (x1^3 x24, x2^2), whose n0 has millions of bits,
        # against 0.3 ms for the walk, and 8 times more per two dimensions
        def refused(p, m):
            raise AssertionError("lex_segment_ideal needs no phi")

        monkeypatch.setattr(hilbert, "phi_poly", refused)
        for d in (4, 24, 40):
            e = normalize(d, [(3,) + (0,) * (d - 2) + (1,),
                              (0, 2) + (0,) * (d - 2)])
            start = time.perf_counter()
            seg = lex_segment_ideal(e, 6)
            assert time.perf_counter() - start < 0.05
            assert seg == every_degree_lex_segment(e, 6)

    def test_preserves_hilbert_function(self):
        rng = random.Random(83)
        for _ in range(15):
            e = random_artinian_staircase(rng, rng.randint(2, 10))
            bound = max(sum(g) for g in e.gens)
            seg = lex_segment_ideal(e, bound)
            # agreement is promised only up to the supplied bound
            for n in range(bound + 1):
                assert hilbert_fn(seg, n) == hilbert_fn(e, n)


class TestHeight:
    def test_unit(self):
        assert height(unit_ideal(2)).is_zero()

    def test_zero(self):
        assert height(zero_ideal(3)) == o("w^3")

    def test_artinian_colength(self):
        rng = random.Random(89)
        for _ in range(15):
            c = rng.randint(1, 12)
            e = random_artinian_staircase(rng, c)
            assert height(e).to_int() == c
            outside = [v for v in points_up_to(2, c + 1)
                       if not e.contains(v)]
            assert len(outside) == c


class TestInvariants:
    def test_hilbert_values_are_osequence(self):
        rng = random.Random(97)
        for _ in range(20):
            e = random_ideal(rng, 3, 5, 4, allow_zero=True)
            values = [hilbert_fn(e, n) for n in range(10)]
            if values[0] == 0:
                continue
            assert is_osequence(values, e.dim).ok

    def test_strict_superset_drops_dominance(self):
        rng = random.Random(101)
        for _ in range(30):
            e = random_ideal(rng, 2, 4, 4)
            f = random_ideal(rng, 2, 4, 4)
            if e >= f and e != f:
                pe, _ = hilbert_samuel_poly(e)
                pf, _ = hilbert_samuel_poly(f)
                assert dominance_cmp(pe, pf) == -1

    def test_cone_identity(self):
        rng = random.Random(103)
        for _ in range(15):
            e = random_ideal(rng, 2, 4, 4, allow_zero=True, allow_unit=True)
            for s in range(7):
                assert hilbert_fn(cone(e), s) == hilbert_samuel_fn(e, s)

    def test_direct_sum_additivity(self):
        rng = random.Random(107)
        for _ in range(15):
            e = random_ideal(rng, 2, 3, 3)
            f = random_ideal(rng, 2, 3, 3)
            g = direct_sum(e, f)
            for s in range(1, 7):
                assert hilbert_fn(g, s) == hilbert_fn(e, s) + hilbert_fn(f, s)

    def test_profile_is_consistent(self):
        e = normalize(2, [(2, 0), (1, 1), (0, 2)])
        prof = hilbert_profile(e)
        assert prof.dim == 2
        assert sum(prof.c) == prof.phi == len(
            canonical_decomposition(prof.p, prof.dim))
        assert prof.psi == psi_ideal(e)
        assert prof.n0 == stability_index(e).n0
        assert prof.p(prof.threshold) == hilbert_samuel_fn(e, prof.threshold)


class TestMemo:
    """Each ideal computes its numerator and p_E at most once."""

    def test_repeats_and_fresh_copies_agree(self):
        rng = random.Random(137)
        for case in range(300):
            m = case % 6 + 1
            e = random_ideal(rng, m, 9, 6, allow_zero=True, allow_unit=True)
            num, p = ie_numerator(e), ie_hilbert_samuel_poly(e)
            for f in (e, e, normalize(m, e.gens)):
                assert _numerator(f) == num
                assert hilbert_samuel_poly(f) == (p, threshold(e))

    def test_min_type_sort_computes_each_ideal_once(self, memo_log):
        rng = random.Random(139)
        pool = []
        while len(pool) < 30:
            e = random_ideal(rng, 3, 5, 4)
            if e not in pool:
                pool.append(e)
        comparisons = []

        def counted(a, b):
            comparisons.append((a, b))
            return min_type_cmp(a, b)

        sorted(pool, key=cmp_to_key(counted))
        assert len(comparisons) > 60
        roots = [e for e, key in memo_log if key == "numerator"]
        assert len(roots) == len(set(map(id, roots))) == len(pool)
        polys = [e for e, key in memo_log if key == "poly"]
        assert len(polys) == len(set(map(id, polys))) == len(pool)

    def test_rebinding_the_kept_poly_is_refused(self):
        # p_E is kept on the ideal and handed out by reference: rebinding its
        # coeffs made psi_ideal, height and the profile's psi read 7
        e = normalize(2, [(1, 1)])
        p, _ = hilbert_samuel_poly(e)
        for write in (lambda: setattr(p, "coeffs", (7,)),
                      lambda: delattr(p, "coeffs")):
            with pytest.raises(AttributeError, match="^IVPoly is immutable$"):
                write()
        assert hilbert_samuel_poly(e)[0] is p
        assert (psi_ideal(e) == height(e) == hilbert_profile(e).psi
                == parse_ordinal("w*2"))

    def test_consumers_share_one_numerator(self, memo_log):
        e = normalize(3, [(2, 1, 0), (0, 1, 3), (1, 0, 1)])
        hilbert_fn(e, 4)
        hilbert_samuel_fn(e, 4)
        psi_ideal(e)
        height(e)
        stability_index(e)
        hilbert_profile(e)
        assert [key for _, key in memo_log] == ["numerator", "poly"]
