"""The three total orderings on ideals and the ordinal bound report."""

import importlib
import random
import sys
from functools import cmp_to_key

import pytest

from monord import (DEGLEX, LEX, DataError, TermOrder, bounds_report, colon,
                    dominance_cmp, hilbert_samuel_poly, ideal_intersect,
                    ideal_sum, kb_cmp,
                    lex_segment_ideal, min_type_cmp, normalize, parse_ordinal,
                    term_cmp, triangle_cmp, unit_ideal, zero_ideal)
from monord.orderings import _kb, _triangle
from oracles import (antichains, arithmetic_bounds_report, full_scan_triangle,
                     points_of_degree, points_up_to, random_ideal,
                     random_point, slice_triangle)


def o(text):
    return parse_ordinal(text)


def small_universe():
    """Every ideal whose generators fit in the degree-2 box of N^2."""
    seen = set()
    out = []
    for chain in antichains(points_up_to(2, 2)):
        e = normalize(2, chain)
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


UNIVERSE = small_universe()
COMPARATORS = [
    lambda a, b: kb_cmp(a, b),
    triangle_cmp,
    min_type_cmp,
]


class TestKb:
    def test_equal(self):
        e = normalize(2, [(1, 1)])
        assert kb_cmp(e, e) == 0

    def test_dim_one(self):
        assert kb_cmp(normalize(1, [(1,)]), normalize(1, [(2,)])) == -1

    def test_first_generator_decides(self):
        assert kb_cmp(normalize(2, [(1, 0)]), normalize(2, [(0, 1)])) == 1

    def test_extension_precedes_truncation(self):
        e = normalize(2, [(2, 0), (0, 2)])
        f = normalize(2, [(0, 2)])
        assert kb_cmp(e, f) == -1

    def test_zero_is_maximum_unit_is_minimum(self):
        for e in UNIVERSE:
            if not e.is_zero():
                assert kb_cmp(zero_ideal(2), e) == 1
            if not e.is_unit():
                assert kb_cmp(unit_ideal(2), e) == -1

    def test_rejects_non_omega_orders(self):
        e = normalize(2, [(1, 0)])
        with pytest.raises(DataError):
            kb_cmp(e, e, order=LEX)
        with pytest.raises(DataError):
            kb_cmp(e, e, order=TermOrder("matrix", ((1, 0), (0, 1))))

    def test_accepts_degree_compatible_matrix(self):
        e = normalize(2, [(1, 0)])
        order = TermOrder("matrix", ((1, 1), (1, 0)))
        assert kb_cmp(e, e, order=order) == 0

    def test_matches_comparator_sorted_words(self, monkeypatch):
        # the words sorted by comparing points pairwise, as KB is defined
        def reference(e, f, order):
            key = cmp_to_key(lambda x, y: term_cmp(order, x, y))
            u, v = sorted(e.gens, key=key), sorted(f.gens, key=key)
            for i, (x, y) in enumerate(zip(u, v)):
                if term_cmp(order, x, y):
                    return term_cmp(order, x, y), i
            if len(u) != len(v):
                return (-1 if len(u) > len(v) else 1), None
            return 0, None

        rng = random.Random(61)
        # the last matrix is deglex itself, which the matrix path still sorts
        orders = [DEGLEX, TermOrder("matrix", ((1, 1, 1), (1, 0, 0),
                                               (0, 1, 0))),
                  TermOrder("matrix", ((1, 1, 1), (1, 0, 0), (0, 1, 0),
                                       (0, 0, 1)))]
        pairs = [[random_ideal(rng, 3, 6, 4, allow_zero=True, allow_unit=True)
                  for _ in range(2)] for _ in range(300)]
        for e, f in pairs:
            for order in orders:
                assert _kb(e, f, order) == reference(e, f, order)
        # ideals and DEGLEX of another copy of monord, imported afresh as a
        # benchmark that drops monord.* from sys.modules does
        for name in [n for n in sys.modules
                     if n == "monord" or n.startswith("monord.")]:
            monkeypatch.delitem(sys.modules, name)
        other = importlib.import_module("monord")
        assert other.TermOrder is not TermOrder  # binds the copy's names
        for e, f in pairs:
            a, b = (other.normalize(3, x.gens) for x in (e, f))
            assert _kb(a, b, other.DEGLEX) == reference(e, f, DEGLEX)

    def test_deglex_sort_keys_only_deciding_generators(self, monkeypatch):
        # every comparison keyed and sorted both ideals' generators; the
        # deglex words are the stored generators, so at most the deciding
        # pair is keyed
        rng = random.Random(73)
        groups = [[random_ideal(rng, m, 12, 6, allow_zero=True,
                                allow_unit=True) for _ in range(12)]
                  for m in (2, 3, 4, 5, 6)]
        calls, comparisons, key = [0], [0], TermOrder.key

        def counted_key(self, v):
            calls[0] += 1
            return key(self, v)

        def counted_cmp(a, b):
            comparisons[0] += 1
            return kb_cmp(a, b)

        monkeypatch.setattr(TermOrder, "key", counted_key)
        for group in groups:
            sorted(group, key=cmp_to_key(counted_cmp))
        assert 0 < calls[0] <= 2 * comparisons[0]


class TestTriangle:
    def test_dim_one_containment(self):
        assert triangle_cmp(normalize(1, [(2,)]), normalize(1, [(5,)])) == -1
        assert triangle_cmp(zero_ideal(1), normalize(1, [(3,)])) == 1

    def test_equal(self):
        e = normalize(2, [(2, 0), (0, 2)])
        assert triangle_cmp(e, e) == 0

    def test_first_slice_decides(self):
        # slice at j=0: zero ideal vs {(2)}, and zero is the base-case max
        assert triangle_cmp(normalize(2, [(1, 1)]),
                            normalize(2, [(2, 0)])) == 1

    def test_matches_the_slice_recursion(self):
        # sign and deciding slice, against the slice sequences compared
        # recursively and against a scan of every generator of the other
        # ideal; f is e itself, a random ideal, an ideal nested in or around
        # e, or one that shares most of e's generators: e with one
        # generator more or one fewer, and e's sum, intersection and colon
        rng = random.Random(67)
        for case in range(3000):
            m = case % 6 + 1
            e = random_ideal(rng, m, 7, 5, allow_zero=True, allow_unit=True)
            g = random_ideal(rng, m, 7, 5, allow_zero=True, allow_unit=True)
            fewer = list(e.gens)
            if fewer:
                del fewer[rng.randrange(len(fewer))]
            for f in (g, e, normalize(m, e.gens + g.gens[:2]),
                      normalize(m, e.gens + (random_point(rng, m, 7),)),
                      normalize(m, fewer), ideal_sum(e, g),
                      ideal_intersect(e, g),
                      colon(e, random_point(rng, m, 2)),
                      zero_ideal(m), unit_ideal(m)):
                for a, b in ((e, f), (f, e)):
                    got = _triangle(a, b)
                    assert got == slice_triangle(a, b)
                    assert got == full_scan_triangle(a, b)

    def test_shared_generator_before_the_decider(self):
        # walked by reversed points, e's generators are x1^3, x1^2*x2,
        # x1*x2^2 and x3; f drops one of them, past one, two or three that
        # both hold
        e = normalize(3, [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1)])
        for drop, j in (((2, 1, 0), 0), ((1, 2, 0), 0), ((0, 0, 1), 1)):
            f = normalize(3, [g for g in e.gens if g != drop])
            assert _triangle(e, f) == (-1, j) == slice_triangle(e, f)
            assert _triangle(f, e) == (1, j) == slice_triangle(f, e)
        # past x1^3, e's x1^2*x2 meets f's x1^2*x2^2, which lies in e: e's
        # generator is the one the other ideal misses, so e comes first
        f = normalize(3, [(3, 0, 0), (2, 2, 0), (0, 0, 1)])
        assert _triangle(e, f) == (-1, 0) == full_scan_triangle(e, f)
        assert _triangle(f, e) == (1, 0) == full_scan_triangle(f, e)

    def test_dimension_1000(self):
        # the slice recursion ran out of frames from about dimension 992
        m = 1000
        a = normalize(m, [(1,) + (0,) * (m - 1)])
        b = normalize(m, [(0,) * (m - 1) + (1,)])
        # slice 0 of (x1) is (x1), of (x1000) the zero ideal
        assert _triangle(a, b) == (-1, 0)
        assert triangle_cmp(b, a) == 1 and triangle_cmp(a, a) == 0
        # equal Hilbert-Samuel polynomials, so the triangle order decides
        assert min_type_cmp(a, b) == -1 and min_type_cmp(b, a) == 1


class TestMinType:
    def test_equal_colength_tiebreak(self):
        e = normalize(2, [(1, 0), (0, 2)])
        f = normalize(2, [(2, 0), (0, 1)])
        assert hilbert_samuel_poly(e)[0] == hilbert_samuel_poly(f)[0]
        got = min_type_cmp(e, f)
        assert got == triangle_cmp(e, f)
        assert got != 0

    def test_first_key_is_dominance(self):
        rng = random.Random(109)
        for _ in range(30):
            e = random_ideal(rng, 2, 4, 4)
            f = random_ideal(rng, 2, 4, 4)
            c = dominance_cmp(hilbert_samuel_poly(e)[0],
                              hilbert_samuel_poly(f)[0])
            if c != 0:
                assert min_type_cmp(e, f) == c


class TestTotalOrderLaws:
    @pytest.mark.parametrize("cmp_fn", COMPARATORS)
    def test_total_order_on_universe(self, cmp_fn):
        ordered = sorted(UNIVERSE, key=cmp_to_key(cmp_fn))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                assert cmp_fn(a, b) == -1
                assert cmp_fn(b, a) == 1
            assert cmp_fn(a, a) == 0

    @pytest.mark.parametrize("cmp_fn", COMPARATORS)
    def test_extends_reverse_inclusion(self, cmp_fn):
        for a in UNIVERSE:
            for b in UNIVERSE:
                if a >= b and a != b:
                    assert cmp_fn(a, b) == -1

    @pytest.mark.parametrize("cmp_fn", COMPARATORS)
    def test_dimension_mismatch(self, cmp_fn):
        with pytest.raises(DataError):
            cmp_fn(zero_ideal(2), zero_ideal(3))


class TestKbLexSegments:
    def test_less_means_bigger_first_layer(self):
        # when a lex segment comes KB-first, its first differing degree
        # layer strictly contains the other ideal's layer
        def layer(e, n):
            return {v for v in points_of_degree(2, n) if e.contains(v)}

        segments = []
        for e in UNIVERSE:
            bound = max((sum(g) for g in e.gens), default=0)
            try:
                if lex_segment_ideal(e, bound + 2) == e:
                    segments.append(e)
            except DataError:
                continue
        assert len(segments) > 3
        hits = 0
        for e in segments:
            for f in UNIVERSE:
                if e == f or kb_cmp(e, f) != -1:
                    continue
                for n in range(6):
                    le, lf = layer(e, n), layer(f, n)
                    if le != lf:
                        hits += 1
                        assert le > lf
                        break
        assert hits > 10


class TestBoundsReport:
    def test_m1(self):
        rep = bounds_report(1)
        assert rep["height"] == o("w + 1")
        assert rep["kb_order_type"] == o("w + 1")
        assert rep["type_lower"] == rep["kb_order_type"]
        assert rep["type_upper"] == o("w^(w + 1)")
        assert "triangle_order_type_m2" not in rep

    def test_m2(self):
        rep = bounds_report(2)
        assert rep["height"] == o("w^2 + 1")
        assert rep["kb_order_type"] == o("w^w + 1")
        assert rep["type_upper"] == o("w^(w^2 + w*2 + 1)")
        assert rep["triangle_order_type_m2"] == o("w^(w + 1) + 1")

    def test_m3(self):
        rep = bounds_report(3)
        assert rep["height"] == o("w^3 + 1")
        assert rep["kb_order_type"] == o("w^(w^2) + 1")
        assert "triangle_order_type_m2" not in rep

    def test_rejects_zero(self):
        with pytest.raises(DataError):
            bounds_report(0)


def test_bounds_report_matches_the_arithmetic_oracle():
    # the closed forms against the constants built by ordinal arithmetic:
    # equal values under the same keys, in the same order
    for m in [*range(1, 65), 1000]:
        got, want = bounds_report(m), arithmetic_bounds_report(m)
        assert list(got.items()) == list(want.items()), m
        assert ("triangle_order_type_m2" in got) == (m == 2)
