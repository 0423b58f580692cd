"""Exponent vectors, term orders, and the three word quasi-orders."""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
import time
from operator import le

import pytest
from hypothesis import given, strategies as st

from monord import (DEGLEX, LEX, DataError, DimensionMismatch, TermOrder,
                    comm_leq, degree, divides, higman_leq, multiset_leq,
                    support, term_cmp)
from monord.monom import Packing, points_of_degree
from oracles import bfs_comm_leq, brute_comm_leq, points_up_to
from oracles import points_of_degree as recursive_points_of_degree

vecs2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
words2 = st.lists(vecs2, max_size=4)


class TestDivides:
    def test_reflexive(self):
        assert divides((1, 2, 3), (1, 2, 3))

    def test_examples(self):
        assert divides((1, 0), (2, 3))
        assert not divides((2, 0), (1, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            divides((1, 0), (1, 0, 0))

    def test_degree_support(self):
        assert degree((2, 0, 3)) == 5
        assert support((2, 0, 3)) == (0, 2)


class TestPacking:
    """monom.Packing: m fields of b bits, x_1 in the top one, b one more
    than the bit length of the largest value a field holds."""

    @staticmethod
    def pools(seed):
        """(m, top, points) triples: points of N^m with every coordinate at
        most top, many of them at 0, at top or at the field's largest value
        2^(b - 1) - 1, which fills the field up to its guard bit."""
        rng = random.Random(seed)
        for _ in range(300):
            m, top = rng.randint(1, 7), rng.choice(
                (0, 1, 2, 3, 7, 8, 2 ** 31, 2 ** 64 - 1, 2 ** 70))
            full = (1 << top.bit_length()) - 1
            yield m, top, [tuple(rng.choice((0, top, full, rng.randint(
                0, full))) for _ in range(m)) for _ in range(12)]

    def test_fields_and_guards(self):
        pk = Packing(3, 5)  # 5 has 3 bits: fields of 4, guard bit on top
        assert (pk.width, pk.value, list(pk.shifts)) == (4, 7, [8, 4, 0])
        assert pk.guards == 0x888
        assert pk.pack((1, 2, 7)) == 0x127
        assert Packing(1, 0).width == 1

    def test_round_trip(self):
        for m, top, points in self.pools(73):
            pk = Packing(m, top)
            for v in points:
                p = pk.pack(v)
                assert pk.unpack(p) == v
                assert p & pk.guards == 0  # no value reaches a guard bit

    def test_guard_test_is_divisibility(self):
        for m, top, points in self.pools(79):
            pk = Packing(m, top)
            g = pk.guards
            for u, v in itertools.product(points, repeat=2):
                p, q = pk.pack(v), pk.pack(u)
                assert ((p | g) - q & g == g) == divides(u, v)
                assert bool((p | g) - q & g) == any(map(le, u, v))

    def test_support_mask(self):
        for m, top, points in self.pools(83):
            pk = Packing(m, top)
            g = pk.guards
            fill = g - (g >> pk.width - 1)
            for v in points:
                mask = (pk.pack(v) + fill & g) >> pk.width - 1
                assert pk.unpack(mask) == tuple(int(x > 0) for x in v)

    def test_one_degree_compares_as_lex(self):
        rng = random.Random(89)
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(0, 12)
            points = points_of_degree(m, n)
            pk = Packing(m, n)
            for u, v in zip(rng.choices(points, k=20), rng.choices(points, k=20)):
                assert (pk.pack(u) < pk.pack(v)) == (u < v)
            # points_of_degree lists them in increasing lex order
            assert [pk.pack(v) for v in points] == sorted(map(pk.pack, points))


class TestPointsOfDegree:
    def test_matches_recursive_listing(self):
        for m in range(1, 7):
            for n in range(9):
                assert points_of_degree(m, n) == recursive_points_of_degree(
                    m, n), (m, n)

    def test_rank_windows_match_the_listing(self):
        # the points of lex rank in [start, stop) were reached with islice
        # over every combination before start; they are unranked now
        rng = random.Random(59)
        cases = 0
        for m in range(1, 7):
            for n in range(8):
                listing = recursive_points_of_degree(m, n)
                for _ in range(40):
                    start = rng.randint(0, len(listing) + 2)
                    stop = rng.randint(0, len(listing) + 3)
                    assert points_of_degree(m, n, start, stop) == \
                        listing[start:stop], (m, n, start, stop)
                    assert points_of_degree(m, n, start) == listing[start:]
                    cases += 1
        assert cases >= 1900

    def test_high_dimension(self):
        # the recursive listing ran out of frames near dim 1000
        pts = points_of_degree(1000, 1)
        assert pts[0] == (0,) * 999 + (1,)
        assert pts[-1] == (1,) + (0,) * 999
        assert pts == sorted(pts) and len(pts) == 1000


class TestTermCmp:
    def test_deglex_degree_first(self):
        assert term_cmp(DEGLEX, (0, 2), (1, 0)) == 1

    def test_lex_first_coordinate(self):
        assert term_cmp(LEX, (1, 0), (0, 5)) == 1

    def test_matrix_identity_is_lex(self):
        rng = random.Random(7)
        ident = TermOrder("matrix", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        for _ in range(100):
            u = tuple(rng.randint(0, 6) for _ in range(3))
            v = tuple(rng.randint(0, 6) for _ in range(3))
            assert term_cmp(ident, u, v) == term_cmp(LEX, u, v)

    def test_matrix_validation(self):
        with pytest.raises(DataError):
            TermOrder("matrix", ((1, 0), (0, -1)))
        with pytest.raises(DataError):
            TermOrder("matrix", ((1,), (1, 1)))

    def test_value_semantics_match_the_dataclass(self):
        frozen = dataclasses.make_dataclass(
            "TermOrder", [("kind", str),
                          ("matrix", tuple, dataclasses.field(default=()))],
            frozen=True)
        rng = random.Random(85)
        specs = [("lex", ()), ("deglex", ())]
        for _ in range(60):
            width = rng.randint(1, 3)
            rows = [tuple(rng.randint(1, 2) for _ in range(width))]
            rows += [tuple(rng.randint(-2, 2) for _ in range(width))
                     for _ in range(rng.randint(0, 2))]
            specs.append(("matrix", tuple(rows)))
        specs += specs[::7]
        orders = [TermOrder(*spec) for spec in specs]
        frozens = [frozen(*spec) for spec in specs]
        assert orders[:2] == [LEX, DEGLEX]
        for t, d in zip(orders, frozens):
            assert repr(t) == repr(d)
            assert hash(t) == hash(d)
            for u, c in zip(orders, frozens):
                assert (t == u, t != u) == (d == c, d != c)
            for back in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                         copy.deepcopy(t)):
                assert back == t and repr(back) == repr(t)
        assert repr(LEX) == "TermOrder(kind='lex', matrix=())"
        # a value of another class is unequal, as for the dataclass
        assert DEGLEX != "deglex" and frozen("deglex", ()) != "deglex"

    def test_fields_are_read_only(self):
        for write in (lambda: setattr(DEGLEX, "kind", "lex"),
                      lambda: setattr(DEGLEX, "matrix", ((1,),)),
                      lambda: setattr(DEGLEX, "other", 1),
                      lambda: delattr(DEGLEX, "kind"),
                      lambda: delattr(DEGLEX, "matrix")):
            with pytest.raises(AttributeError,
                               match="^TermOrder is immutable$"):
                write()
        assert DEGLEX == TermOrder("deglex")

    def test_loading_checks_the_fields(self):
        # a pickle edited to an unknown kind loaded, and term_cmp on it then
        # raised a bare IndexError
        for t, field, bogus in ((DEGLEX, b"deglex", b"bogus!"),
                                (TermOrder("matrix", ((1, 1), (0, 1))),
                                 b"matrix", b"lexlex")):
            for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(t, proto)
                assert data.count(field) == 1
                with pytest.raises(DataError, match="unknown term order"):
                    pickle.loads(data.replace(field, bogus))

    def test_type_omega(self):
        assert DEGLEX.is_type_omega()
        assert not LEX.is_type_omega()
        assert TermOrder("matrix", ((1, 1), (1, 0))).is_type_omega()
        assert not TermOrder("matrix", ((1, 0), (0, 1))).is_type_omega()

    @given(vecs2, vecs2, vecs2)
    def test_semigroup_law(self, u, v, lam):
        for order in (LEX, DEGLEX):
            uu = tuple(a + b for a, b in zip(u, lam))
            vv = tuple(a + b for a, b in zip(v, lam))
            assert term_cmp(order, u, v) == term_cmp(order, uu, vv)

    @given(vecs2, vecs2, vecs2)
    def test_totality_transitivity(self, u, v, w):
        for order in (LEX, DEGLEX):
            assert term_cmp(order, u, v) == -term_cmp(order, v, u)
            assert (term_cmp(order, u, v) == 0) == (u == v)
            if term_cmp(order, u, v) <= 0 and term_cmp(order, v, w) <= 0:
                assert term_cmp(order, u, w) <= 0

    @given(vecs2, vecs2)
    def test_extends_divisibility(self, u, v):
        if divides(u, v) and u != v:
            for order in (LEX, DEGLEX):
                assert term_cmp(order, u, v) == -1

    def test_deglex_finite_predecessors(self):
        # order type omega at desk scale: everything below mu has degree
        # at most |mu|, so the predecessor set is finite and enumerable
        for mu in [(2, 1), (0, 3), (4, 0)]:
            below = [v for v in points_up_to(2, degree(mu))
                     if term_cmp(DEGLEX, v, mu) == -1]
            assert len(below) < len(points_up_to(2, degree(mu)))
            for v in points_up_to(2, degree(mu) + 3):
                if term_cmp(DEGLEX, v, mu) == -1:
                    assert degree(v) <= degree(mu)

    def test_permutation_matrices_are_permuted_lex(self):
        rng = random.Random(11)
        for perm in itertools.permutations(range(3)):
            rows = tuple(tuple(1 if j == perm[i] else 0 for j in range(3))
                         for i in range(3))
            order = TermOrder("matrix", rows)
            for _ in range(40):
                u = tuple(rng.randint(0, 4) for _ in range(3))
                v = tuple(rng.randint(0, 4) for _ in range(3))
                pu = tuple(u[perm[i]] for i in range(3))
                pv = tuple(v[perm[i]] for i in range(3))
                assert term_cmp(order, u, v) == term_cmp(LEX, pu, pv)


class TestHigman:
    def test_empty_embeds(self):
        assert higman_leq([], [(0, 1), (2, 0)])

    def test_positional_match(self):
        assert higman_leq([(1, 0)], [(0, 1), (2, 0)])

    def test_length_excess(self):
        assert not higman_leq([(1, 0), (1, 0)], [(1, 0)])

    def test_order_matters(self):
        assert not higman_leq([(0, 1), (1, 0)], [(1, 0), (0, 1)])
        assert higman_leq([(0, 1), (1, 0)], [(0, 1), (1, 0)])

    @given(words2, words2)
    def test_implies_comm(self, u, v):
        if higman_leq(u, v):
            assert comm_leq(u, v)


class TestCommLeq:
    def test_empty(self):
        assert comm_leq([], [(5, 5)])

    def test_matching(self):
        assert comm_leq([(1, 0), (0, 1)], [(0, 2), (2, 0)])

    def test_no_dominator(self):
        assert not comm_leq([(1, 1)], [(2, 0), (0, 2)])

    @given(words2, words2)
    def test_matches_brute_force(self, u, v):
        assert comm_leq(u, v) == brute_comm_leq(u, v)

    def test_long_augmenting_path(self):
        # u_k fits v_k and v_(k+1) alone and takes v_(k+1) first, and the
        # last letter fits v_n alone, so the last augmenting path moves all
        # 1,200 letters of u; a search that recursed along it ran out of
        # frames under the default limit.  In the second pair the common
        # letters (1, 0) cancel first
        n = 1199
        u = [(k, n - 1 - k, 0) for k in range(n)] + [(0, 0, 1)]
        v = [(j, n - j, 0) for j in range(n)] + [(n, 0, 1)]
        v.reverse()
        u2 = [(0, 1)] + [(1, 0)] * 1199
        v2 = [(1, 0)] * 1199 + [(1, 1)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            assert comm_leq(u, v)
            assert not comm_leq(u, v[:-1])
            assert comm_leq(u2, v2)
            assert not comm_leq(v2, u2)
            assert not comm_leq(u2[1:] + [(0, 1)] * 2, v2)
        finally:
            sys.setrecursionlimit(limit)

    def test_matches_breadth_first_search(self):
        # the matching before common letters cancelled, and brute force
        rng = random.Random(17)
        for _ in range(3000):
            m = rng.randint(1, 3)
            u, v = ([tuple(rng.randint(0, 2) for _ in range(m))
                     for _ in range(rng.randint(0, 6))] for _ in "uv")
            assert comm_leq(u, v) == bfs_comm_leq(u, v) == brute_comm_leq(
                u, v), (u, v)

    def test_many_common_letters(self):
        # each augmenting search rescanned all of v, about n^3 letter
        # tests: 9 s for these two calls
        rng = random.Random(5)
        u, v = ([tuple(rng.randint(0, 3) for _ in range(3))
                 for _ in range(2000)] for _ in "uv")
        start = time.perf_counter()
        assert not comm_leq(u, v)
        assert comm_leq(u, u)
        assert time.perf_counter() - start < 0.5

    @given(words2, words2)
    def test_implies_multiset(self, u, v):
        if comm_leq(u, v):
            assert multiset_leq(u, v)


class TestMultisetLeq:
    def test_reflexive(self):
        u = [(1, 0), (1, 0), (0, 2)]
        assert multiset_leq(u, u)

    def test_single_dominated(self):
        assert multiset_leq([(1, 0)], [(2, 0)])

    def test_residual_failure(self):
        assert not multiset_leq([(2, 0), (2, 0)], [(2, 0), (0, 1)])

    def test_cancellation_of_repeats(self):
        # one copy cancels, the leftover must still be dominated
        assert multiset_leq([(2, 0), (2, 0)], [(2, 0), (3, 0)])
