"""Integer-valued polynomials and Macaulay's numerical functions."""

import math

import pytest
from hypothesis import given, strategies as st

from monord import (DataError, IVPoly, binomial, dominance_cmp, from_samples,
                    is_osequence, macaulay_next, macaulay_rep)
from monord.ivpoly import binom_poly
from oracles import (binomial_from_samples, macaulay_value,
                     sampled_binom_poly, shift, stepwise_macaulay_next,
                     stepwise_macaulay_tops)

coeff_lists = st.lists(st.integers(-9, 9), max_size=5)


class TestFromSamples:
    def test_constant(self):
        assert from_samples([1, 1, 1]) == IVPoly([1])

    def test_linear(self):
        assert from_samples([1, 2, 3]) == IVPoly([0, 1])

    def test_quadratic(self):
        assert from_samples([1, 3, 6]) == IVPoly([0, 0, 1])

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12))
    def test_matches_binomial_sum(self, values):
        # the C(k + j, j) double sum over forward differences it replaced
        assert from_samples(values) == binomial_from_samples(values)

    @given(coeff_lists, st.integers(0, 5))
    def test_round_trip(self, coeffs, start):
        p = IVPoly(coeffs)
        samples = [p(start + t) for t in range(len(coeffs) + 1)]
        assert shift(from_samples(samples), -start) == p


class TestEvaluate:
    def test_binomial_value(self):
        assert binom_poly(0, 2)(3) == 10

    def test_zero(self):
        assert IVPoly()(17) == 0

    def test_negative_argument(self):
        assert binom_poly(0, 1)(-1) == 0

    @pytest.mark.parametrize("coeffs, t, value", [
        ((), -7, 0), ((), 0, 0), ((5,), -3, 5), ((0, 1), -1, 0),
        ((0, 0, 1), -2, 0), ((0, 0, 1), -4, 3), ((4, -2, 1), -7, 31),
        ((0, 0, 0, 1), -1, 0), ((0, 0, 0, 1), -5, -4)])
    def test_values(self, coeffs, t, value):
        # C(-2, 2) = 3, C(-6, 1) = -6, C(-5, 2) = 15, C(-2, 3) = -4
        assert IVPoly(coeffs)(t) == value

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
           st.integers(-40, 40) | st.integers(-10 ** 30, 10 ** 30))
    def test_matches_the_binomial_sum(self, coeffs, t):
        # evaluation reads C(t+i, i) off _binom_row, not binomial
        assert IVPoly(coeffs)(t) == sum(b * binomial(t + i, i)
                                        for i, b in enumerate(coeffs))

    def test_negative_upper_binomial(self):
        # falling-factorial convention: C(-2, 2) = (-2)(-3)/2 = 3
        assert binomial(-2, 2) == 3

    def test_binomial_matches_product_formula(self):
        for k in range(41):
            for x in range(-30, 81):
                prod = 1
                for j in range(k):
                    prod *= x - j
                assert binomial(x, k) == prod // math.factorial(k), (x, k)

    def test_binom_poly_matches_its_values(self):
        # the closed-form coordinates against a fit of C(T - c + k, k)
        for c in range(-30, 31):
            for k in range(13):
                assert binom_poly(c, k) == sampled_binom_poly(c, k), (c, k)


class TestArithmetic:
    def test_add_zero(self):
        p = IVPoly([2, -1, 3])
        assert p + IVPoly() == p

    def test_sub_self(self):
        p = IVPoly([2, -1, 3])
        assert (p - p).is_zero()

    def test_add_coeffwise(self):
        assert IVPoly([0, 1]) + IVPoly([1]) == IVPoly([1, 1])

    def test_degree_convention(self):
        assert IVPoly().degree == -1
        assert IVPoly([0, 0, 0]).degree == -1
        assert IVPoly([5]).degree == 0

    def test_printing(self):
        assert str(IVPoly([-2, 3, 1])) == "C(T+2,2) + 3*C(T+1,1) - 2"

    def test_fields_are_read_only(self):
        p = IVPoly([2, -1, 3])
        for write in (lambda: setattr(p, "coeffs", (7,)),
                      lambda: setattr(p, "other", 1),
                      lambda: delattr(p, "coeffs")):
            with pytest.raises(AttributeError, match="^IVPoly is immutable$"):
                write()
        assert p == IVPoly([2, -1, 3]) and p.coeffs == (2, -1, 3)


class TestDominance:
    def test_reflexive(self):
        p = IVPoly([3, 1])
        assert dominance_cmp(p, p) == 0

    def test_constant_below_linear(self):
        assert dominance_cmp(IVPoly([5]), IVPoly([0, 1])) == -1

    def test_tiebreak_on_constant(self):
        assert dominance_cmp(IVPoly([3, 1]), IVPoly([4, 1])) == -1

    @given(coeff_lists, coeff_lists)
    def test_matches_eventual_pointwise(self, a, b):
        p, q = IVPoly(a), IVPoly(b)
        c = dominance_cmp(p, q)
        if c == 0:
            assert p == q
            return
        lo, hi = (p, q) if c == -1 else (q, p)
        # beyond every root, the comparison is settled; this bound is far
        # past any integer crossover for coefficients this small
        big = 100 * (sum(map(abs, a + b)) + 1)
        crossover = max((s + 1 for s in range(big) if lo(s) >= hi(s)),
                        default=0)
        for s in range(crossover, crossover + 50):
            assert lo(s) < hi(s)
        assert lo(big + 50) < hi(big + 50)


class TestMacaulayRep:
    def test_one(self):
        assert macaulay_rep(1, 2).tops == (2, 0)

    def test_five(self):
        assert macaulay_rep(5, 2).tops == (3, 2)

    def test_d_one(self):
        assert macaulay_rep(7, 1).tops == (7,)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            macaulay_rep(0, 2)

    def test_matches_stepwise_oracle(self):
        for d in range(1, 9):
            for a in range(2000):
                if a:
                    assert macaulay_rep(a, d).tops == stepwise_macaulay_tops(a, d)
                assert macaulay_next(a, d) == stepwise_macaulay_next(a, d)

    def test_large_a(self):
        # the stepwise greedy takes O(a) binomials for d = 1
        assert macaulay_rep(10 ** 12, 1).tops == (10 ** 12,)
        rep = macaulay_rep(10 ** 100, 50)
        assert macaulay_value(rep) == 10 ** 100
        assert all(x > y for x, y in zip(rep.tops, rep.tops[1:]))

    @given(st.integers(1, 10 ** 6), st.integers(1, 8))
    def test_reconstructs(self, a, d):
        rep = macaulay_rep(a, d)
        assert macaulay_value(rep) == a
        assert all(x > y for x, y in zip(rep.tops, rep.tops[1:]))
        assert rep.tops[-1] >= 0

    @given(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 6))
    def test_lex_matches_integer_order(self, a, b, d):
        ra, rb = macaulay_rep(a, d).tops, macaulay_rep(b, d).tops
        assert (a <= b) == (ra <= rb)


class TestMacaulayNext:
    def test_zero(self):
        for d in range(1, 6):
            assert macaulay_next(0, d) == 0

    def test_five(self):
        # rep (3,2): C(3+1, 3) + C(2+1, 2) = 4 + 3
        assert macaulay_next(5, 2) == 7

    def test_linear(self):
        assert macaulay_next(3, 1) == 6


def test_macaulay_inputs_must_be_ints():
    # a float passed through the greedy representation unnoticed, and a
    # bool was taken for 0 or 1
    for fn, args in [(macaulay_rep, (2.5, 2)), (macaulay_rep, (True, 1)),
                     (macaulay_rep, (3, 2.0)), (macaulay_next, (2.5, 2)),
                     (macaulay_next, (3, True)),
                     (is_osequence, ([1, 2, 2.5], 2)),
                     (is_osequence, ([1, 2, 3], 2.0)),
                     (is_osequence, ([True], 1))]:
        with pytest.raises(DataError, match="not an integer"):
            fn(*args)


class TestIsOSequence:
    def test_binomial_growth(self):
        m = 3
        values = [binomial(n + m - 1, m - 1) for n in range(8)]
        assert is_osequence(values, m).ok

    def test_growth_violation(self):
        res = is_osequence([1, 2, 5], 2)
        assert not res.ok
        assert res.violation == 1

    def test_flat(self):
        res = is_osequence([1, 1, 1, 1], 1)
        assert res.ok
        assert res.f1_exact

    def test_f1_inexact_flag(self):
        res = is_osequence([1, 1, 1], 2)
        assert res.ok
        assert not res.f1_exact

    def test_anchor_violations(self):
        assert is_osequence([2, 1], 2).violation == 0
        assert is_osequence([1, 4], 3).violation == 1
