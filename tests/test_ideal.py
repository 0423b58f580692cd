"""Monomial ideal values: normalization, lattice operations, slices,
decomposition, and the derived data each ideal keeps."""

import copy
import dataclasses
import pickle
import random
import time
from functools import cmp_to_key

import pytest

from monord import ideal
from monord import (DEGLEX, DataError, DimensionMismatch, MonomialIdeal,
                    TermOrder, colon, comm_leq, components_by_support, cone,
                    direct_sum, divides, generator_word, hilbert_samuel_poly,
                    ideal_intersect, ideal_sum, irreducible_decomposition,
                    is_bad_sequence, kb_cmp, normalize, slice_last, term_cmp,
                    unit_ideal, zero_ideal)
from monord.ideal import minimal_points
from monord.monom import unit_vec
from oracles import (in_ideal, irreducible_component_ideal, points_up_to,
                     random_ideal, random_wide_ideal, split_decomposition,
                     tuple_decompose)


class TestNormalize:
    def test_divisibility_prune(self):
        assert normalize(2, [(1, 0), (2, 0)]).gens == ((1, 0),)

    def test_empty_is_zero(self):
        assert normalize(2, []).is_zero()

    def test_origin_dominates(self):
        e = normalize(2, [(0, 0), (5, 5)])
        assert e.is_unit()
        assert e.gens == ((0, 0),)

    def test_idempotent_and_canonical(self):
        rng = random.Random(3)
        for _ in range(50):
            e = random_ideal(rng, 3, 6, 5, allow_zero=True, allow_unit=True)
            shuffled = list(e.gens)
            rng.shuffle(shuffled)
            extra = shuffled + [tuple(a + b for a, b in zip(g, (1, 0, 1)))
                                for g in shuffled]
            assert normalize(3, extra) == e
            # antichain invariant
            for g in e.gens:
                for h in e.gens:
                    assert g == h or not divides(g, h)


    def test_constructor_canonicalizes(self):
        # the checked constructor reduces its generators as normalize does
        e = MonomialIdeal(2, ((1, 1), (0, 0)))
        assert e.is_unit() and e == unit_ideal(2)
        assert MonomialIdeal(2, ((1, 0), (2, 0))) == normalize(2, [(1, 0)])
        f = MonomialIdeal(2, [(0, 1)])
        assert f.gens == ((0, 1),) and hash(f) == hash(normalize(2, [(0, 1)]))

    def test_rejects_bool_exponents(self):
        with pytest.raises(DataError):
            normalize(2, [(True, False)])
        with pytest.raises(DataError):
            MonomialIdeal(2, ((1, True),))

    @pytest.mark.parametrize("dim", ["2", 2.0, True, None])
    def test_rejects_non_int_dim(self, dim):
        for make in (lambda: normalize(dim, [(1, 0)]),
                     lambda: MonomialIdeal(dim, ((1, 0),))):
            with pytest.raises(DataError, match="dimension"):
                make()


class TestMembershipAndContainment:
    def test_zero_contains_nothing(self):
        assert not zero_ideal(2).contains((0, 0))
        assert not zero_ideal(2).contains((4, 4))

    def test_unit_contains_everything(self):
        assert unit_ideal(2).contains((0, 0))

    def test_example(self):
        assert normalize(2, [(2, 0)]).contains((3, 1))

    def test_superset(self):
        e = normalize(2, [(1, 0)])
        f = normalize(2, [(0, 1)])
        assert e >= e
        assert unit_ideal(2) >= zero_ideal(2)
        assert not e >= f and not f >= e

    def test_superset_partial_order(self):
        rng = random.Random(5)
        pool = [random_ideal(rng, 2, 4, 4, allow_zero=True, allow_unit=True)
                for _ in range(12)]
        for a in pool:
            for b in pool:
                if a >= b and b >= a:
                    assert a == b
                for c in pool:
                    if a >= b and b >= c:
                        assert a >= c


class TestLattice:
    def test_sum_with_zero(self):
        e = normalize(2, [(2, 1)])
        assert ideal_sum(e, zero_ideal(2)) == e

    def test_intersect_lcm(self):
        assert ideal_intersect(normalize(2, [(2, 0)]),
                               normalize(2, [(0, 3)])).gens == ((2, 3),)

    def test_intersect_idempotent(self):
        e = normalize(2, [(2, 0), (1, 1)])
        assert ideal_intersect(e, e) == e

    def test_zero_unit_conventions(self):
        e = normalize(2, [(1, 1)])
        assert ideal_intersect(e, zero_ideal(2)).is_zero()
        assert ideal_sum(e, unit_ideal(2)).is_unit()

    def test_membership_semantics(self):
        rng = random.Random(9)
        for _ in range(30):
            e = random_ideal(rng, 2, 4, 4, allow_zero=True)
            f = random_ideal(rng, 2, 4, 4, allow_zero=True)
            s, i = ideal_sum(e, f), ideal_intersect(e, f)
            for v in points_up_to(2, 9):
                assert s.contains(v) == (e.contains(v) or f.contains(v))
                assert i.contains(v) == (e.contains(v) and f.contains(v))

    @pytest.mark.parametrize("op", [
        ideal_sum, kb_cmp, lambda e, f: e <= f,
        lambda e, f: is_bad_sequence([e, f])],
        ids=["ideal_sum", "kb_cmp", "le", "is_bad_sequence"])
    def test_different_dimensions(self, op):
        e, f = normalize(2, [(1, 0)]), normalize(3, [(1, 0, 0)])
        with pytest.raises(DimensionMismatch, match="2 and 3"):
            op(e, f)


class TestColon:
    def test_by_origin(self):
        e = normalize(2, [(2, 1), (0, 3)])
        assert colon(e, (0, 0)) == e

    def test_subtraction(self):
        assert colon(normalize(2, [(2, 1)]), (1, 0)).gens == ((1, 1),)

    def test_to_unit(self):
        assert colon(normalize(2, [(2, 0), (0, 2)]), (2, 0)).is_unit()

    def test_membership_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            e = random_ideal(rng, 2, 4, 4, allow_zero=True)
            v = (rng.randint(0, 3), rng.randint(0, 3))
            q = colon(e, v)
            for u in points_up_to(2, 6):
                assert q.contains(u) == e.contains(
                    tuple(a + b for a, b in zip(u, v)))


class TestSlice:
    def test_zero(self):
        assert slice_last(zero_ideal(3), 5).is_zero()

    def test_threshold(self):
        e = normalize(2, [(1, 2)])
        assert slice_last(e, 1).is_zero()
        assert slice_last(e, 2).gens == ((1,),)

    def test_layer_zero(self):
        assert slice_last(normalize(2, [(0, 3), (2, 0)]), 0).gens == ((2,),)

    def test_rejects_dim_one(self):
        with pytest.raises(DataError):
            slice_last(normalize(1, [(2,)]), 0)

    def test_monotone_and_stabilizes(self):
        rng = random.Random(17)
        for _ in range(20):
            e = random_ideal(rng, 3, 5, 5, allow_zero=True)
            top = max((g[-1] for g in e.gens), default=0)
            prev = None
            for j in range(top + 3):
                cur = slice_last(e, j)
                if prev is not None:
                    assert cur >= prev
                if j >= top:
                    assert cur == slice_last(e, top)
                prev = cur

    def test_membership_semantics(self):
        rng = random.Random(19)
        for _ in range(20):
            e = random_ideal(rng, 3, 5, 4, allow_zero=True)
            for j in range(5):
                s = slice_last(e, j)
                for u in points_up_to(2, 5):
                    assert s.contains(u) == e.contains(u + (j,))


class TestConeAndDirectSum:
    def test_cone_cases(self):
        assert cone(zero_ideal(2)) == zero_ideal(3)
        assert cone(unit_ideal(2)) == unit_ideal(3)
        assert cone(normalize(1, [(2,)])).gens == ((2, 0),)

    def test_direct_sum_prunes_cross_term(self):
        out = direct_sum(normalize(1, [(1,)]), normalize(1, [(1,)]))
        assert out.gens == ((0, 1), (1, 0))

    def test_direct_sum_keeps_cross_term(self):
        out = direct_sum(normalize(1, [(2,)]), normalize(1, [(3,)]))
        assert set(out.gens) == {(2, 0), (0, 3), (1, 1)}

    def test_rejects_trivial_operands(self):
        e = normalize(1, [(2,)])
        for bad in (zero_ideal(1), unit_ideal(1)):
            with pytest.raises(DataError):
                direct_sum(e, bad)
            with pytest.raises(DataError):
                direct_sum(bad, e)

    def test_direct_sum_checks_its_dimension(self):
        # N^999 + N^2 was built, as an ideal no other call accepts
        m = ideal.MAX_DIM - 1
        big = normalize(m, [(1,) * m])
        with pytest.raises(DataError, match="above the cap"):
            direct_sum(big, normalize(2, [(1, 1)]))
        # minimal_points on the 1,001 points of N^1000 took about 10 s
        start = time.perf_counter()
        out = direct_sum(big, normalize(1, [(2,)]))
        assert time.perf_counter() - start < 0.5
        assert out.dim == ideal.MAX_DIM
        assert out.gens == ((0,) * m + (2,),) + tuple(
            unit_vec(m, i) + (1,) for i in reversed(range(m))) + (
            (1,) * m + (0,),)

    def test_direct_sum_matches_the_minimal_points(self):
        rng = random.Random(29)
        for _ in range(300):
            e, f = (random_ideal(rng, rng.randint(1, 4), 5, rng.randint(1, 4))
                    for _ in range(2))
            m, n = e.dim, f.dim
            gens = [g + (0,) * n for g in e.gens]
            gens += [(0,) * m + h for h in f.gens]
            gens += [unit_vec(m, i) + unit_vec(n, j)
                     for i in range(m) for j in range(n)]
            assert direct_sum(e, f).gens == minimal_points(gens)


class TestDecomposition:
    def test_pure_power_fixed_point(self):
        e = normalize(3, [(2, 0, 0), (0, 0, 3)])
        assert irreducible_decomposition(e) == [(2, 0, 3)]

    def test_single_mixed_generator(self):
        assert irreducible_decomposition(normalize(2, [(2, 1)])) == \
            [(0, 1), (2, 0)]

    def test_staircase(self):
        e = normalize(2, [(2, 0), (1, 1), (0, 2)])
        assert irreducible_decomposition(e) == [(1, 2), (2, 1)]

    def test_rejects_zero_and_unit(self):
        with pytest.raises(DataError):
            irreducible_decomposition(zero_ideal(2))
        with pytest.raises(DataError):
            irreducible_decomposition(unit_ideal(2))

    def test_soundness_random(self):
        rng = random.Random(23)
        for _ in range(40):
            e = random_ideal(rng, 3, 5, 5)
            comps = irreducible_decomposition(e)
            rebuilt = None
            for nu in comps:
                part = irreducible_component_ideal(3, nu)
                rebuilt = part if rebuilt is None else \
                    ideal_intersect(rebuilt, part)
            assert rebuilt == e
            # irredundant: dropping any component changes the intersection
            for k in range(len(comps)):
                rest = None
                for i, nu in enumerate(comps):
                    if i == k:
                        continue
                    part = irreducible_component_ideal(3, nu)
                    rest = part if rest is None else ideal_intersect(rest, part)
                assert rest is None or rest != e

    def test_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(20):
            e = random_ideal(rng, 3, 5, 4)
            gens = list(e.gens)
            rng.shuffle(gens)
            assert irreducible_decomposition(normalize(3, gens)) == \
                irreducible_decomposition(e)

    def test_matches_split_oracle(self):
        rng = random.Random(37)
        for _ in range(1200):
            e = random_ideal(rng, rng.randint(1, 6), 9, 6)
            assert irreducible_decomposition(e) == split_decomposition(e)

    def test_wide_ideals_match_split_oracle(self):
        # k stays where the oracle takes at most about 0.2 s
        rng = random.Random(41)
        for m, k in ((3, 10), (3, 30), (3, 60), (4, 10), (4, 30), (4, 50)):
            e = random_wide_ideal(rng, m, k)
            assert irreducible_decomposition(e) == split_decomposition(e)

    # the engine writes a component's zeros as one past the largest
    # exponent; these are the inputs where that coding could slip
    def test_dimension_one(self):
        for x in (1, 2, 7):
            assert irreducible_decomposition(normalize(1, [(x,)])) == [(x,)]

    def test_squarefree_ideals(self):
        # every exponent is 1, so zeros are written as 2
        assert irreducible_decomposition(
            normalize(3, [(1, 1, 0), (0, 1, 1)])) == [(0, 1, 0), (1, 0, 1)]
        rng = random.Random(53)
        for _ in range(300):
            m = rng.randint(1, 6)
            e = normalize(m, [tuple(rng.randint(0, 1) for _ in range(m))
                              for _ in range(rng.randint(1, 8))])
            if not e.is_unit():
                assert irreducible_decomposition(e) == split_decomposition(e)

    def test_component_at_the_largest_exponent(self):
        # (x1^3, x1 x2^3) = (x1) meet (x1^3, x2^3): both exponents of the
        # second component are the largest exponent of a generator
        e = normalize(2, [(3, 0), (1, 3)])
        assert irreducible_decomposition(e) == [(1, 0), (3, 3)]
        rng = random.Random(59)
        for _ in range(300):
            m, top = rng.randint(1, 5), rng.randint(1, 4)
            e = random_ideal(rng, m, 6, top)
            g = tuple(top if rng.random() < 0.5 else rng.randint(0, top)
                      for _ in range(m))
            e = normalize(m, e.gens + (g,))
            if not e.is_unit():
                assert irreducible_decomposition(e) == split_decomposition(e)


class TestPackedDecomposition:
    """The engine on packed points against the tuple engine it replaced,
    oracles.tuple_decompose, and against split_decomposition."""

    @staticmethod
    def check(e):
        comps = irreducible_decomposition(e)
        assert comps == tuple_decompose(e) == split_decomposition(e), e

    def test_dimensions_one_to_eight(self):
        rng = random.Random(61)
        for m in range(1, 9):
            for _ in range(80):
                self.check(random_ideal(rng, m, 10, 6))

    def test_exponents_where_the_field_width_changes(self):
        # zeros are written as inf = the largest exponent + 1, so a field
        # widens by a bit as the largest exponent goes from 2^k - 2 to
        # 2^k - 1, and holds 2^k + 1 at the next step
        rng = random.Random(67)
        for k in range(1, 10):
            top = (2 ** k - 2, 2 ** k - 1, 2 ** k)
            for _ in range(30):
                m = rng.randint(1, 5)
                e = normalize(m, [tuple(
                    rng.choice((0, 0, 1, rng.randint(0, 2 ** k), *top))
                    for _ in range(m)) for _ in range(rng.randint(1, 7))])
                if not e.is_unit():
                    self.check(e)

    def test_exponents_past_a_machine_word(self):
        rng = random.Random(71)
        big = 2 ** 70
        for _ in range(60):
            m = rng.randint(1, 5)
            e = normalize(m, [tuple(
                rng.choice((0, 0, 1, big - 1, big, big + 1, rng.randint(0, big)))
                for _ in range(m)) for _ in range(rng.randint(1, 7))])
            if not e.is_unit():
                self.check(e)

    def test_sparse_ideal_in_dimension_1000(self):
        # 8 generators on disjoint supports of sizes 3, 3, 3, 3, 2, 2, 1, 1:
        # 3^4 * 2^2 = 324 components; the tuple engine took 0.83 s
        rng = random.Random(1000)
        coords = rng.sample(range(1000), 18)
        gens = []
        for size in (3, 3, 3, 3, 2, 2, 1, 1):
            g = [0] * 1000
            for _ in range(size):
                g[coords.pop()] = rng.randint(1, 5)
            gens.append(tuple(g))
        e = normalize(1000, gens)
        start = time.perf_counter()
        comps = irreducible_decomposition(e)
        assert time.perf_counter() - start < 0.5
        assert len(comps) == 324
        self.check(e)


class TestComponentsBySupport:
    def test_pure_power(self):
        e = normalize(3, [(2, 0, 0), (0, 0, 3)])
        assert components_by_support(e) == {(0, 2): [(2, 3)]}

    def test_split(self):
        e = normalize(2, [(2, 1)])
        assert components_by_support(e) == {(0,): [(2,)], (1,): [(1,)]}

    def test_quasi_embedding_direction(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(300):
            e = random_ideal(rng, 2, 4, 4)
            if rng.random() < 0.5:
                f = ideal_sum(e, random_ideal(rng, 2, 2, 4))
                e, f = f, e
            else:
                f = random_ideal(rng, 2, 4, 4)
            we, wf = components_by_support(e), components_by_support(f)
            sigmas = set(we) | set(wf)
            if all(comm_leq(we.get(s, []), wf.get(s, [])) for s in sigmas):
                checked += 1
                assert e >= f
        assert checked > 20  # the premise must actually fire


class TestGeneratorWord:
    def test_sorted_increasing(self):
        e = normalize(2, [(0, 2), (3, 0), (1, 1)])
        assert generator_word(e) == [(0, 2), (1, 1), (3, 0)] == list(e.gens)

    def test_matches_comparator_sort(self):
        rng = random.Random(43)
        orders = [DEGLEX, TermOrder("matrix", ((1, 1, 1), (0, 0, 1))),
                  TermOrder("matrix", ((2, 1, 1), (1, 0, 0), (0, 1, 0)))]
        ties = 0
        for _ in range(200):
            e = random_ideal(rng, 3, 8, 6, allow_unit=True)
            for order in orders:
                try:
                    want = sorted(e.gens, key=cmp_to_key(
                        lambda u, v, order=order: term_cmp(order, u, v)))
                except DataError:
                    ties += 1
                    with pytest.raises(DataError, match="totally order"):
                        generator_word(e, order)
                else:
                    assert generator_word(e, order) == want
        assert 5 < ties < 200  # both outcomes are exercised

    def test_matrix_tie_raises(self):
        order = TermOrder("matrix", ((1, 1),))
        assert generator_word(normalize(2, [(2, 0)]), order) == [(2, 0)]
        with pytest.raises(DataError, match="totally order"):
            generator_word(normalize(2, [(2, 0), (1, 1), (0, 3)]), order)


class TestMemo:
    """Each ideal computes its decomposition at most once; slices are
    built afresh and agree."""

    def test_repeats_and_fresh_copies_agree(self):
        rng = random.Random(47)
        for case in range(300):
            m = case % 6 + 1
            e = random_ideal(rng, m, 9, 6)
            fresh = normalize(m, e.gens)
            want = split_decomposition(e)
            assert irreducible_decomposition(e) == want
            assert irreducible_decomposition(e) == want
            assert irreducible_decomposition(fresh) == want
            if m == 1:
                continue
            top = max(g[-1] for g in e.gens)
            for j in (*range(top + 2), top + 7):
                want = normalize(m - 1, [g[:-1] for g in e.gens if g[-1] <= j])
                for _ in range(2):
                    assert slice_last(e, j) == want
                assert slice_last(fresh, j) == want

    def test_mutating_the_result_leaves_the_memo(self):
        e = normalize(2, [(2, 0), (1, 1), (0, 2)])
        comps = irreducible_decomposition(e)
        want = list(comps)
        comps.append((9, 9))
        comps[0] = (7, 7)
        assert irreducible_decomposition(e) == want
        assert irreducible_decomposition(e) is not irreducible_decomposition(e)

    def test_pickles_and_copies_drop_the_memo(self):
        e = normalize(3, [(1, 2, 0), (0, 1, 3), (2, 0, 1)])
        before = repr(e), hash(e)
        irreducible_decomposition(e)
        slice_last(e, 4)
        hilbert_samuel_poly(e)
        assert "_kept" in vars(e)
        assert (repr(e), hash(e)) == before
        assert e == normalize(3, e.gens)
        for f in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e),
                  copy.copy(e)):
            assert vars(f) == {"dim": 3, "gens": e.gens}
            assert f == e and hash(f) == hash(e) and repr(f) == repr(e)
        assert len(pickle.dumps(e)) == len(pickle.dumps(normalize(3, e.gens)))

    def test_unpickling_checks_the_points(self):
        bad = MonomialIdeal._of(2, ((1, 0, 0),))
        with pytest.raises(DataError):
            pickle.loads(pickle.dumps(bad))

    def test_components_by_support_after_decomposition(self, memo_log):
        e = normalize(3, [(2, 1, 0), (0, 1, 3), (1, 0, 1)])
        comps = irreducible_decomposition(e)
        grouped = components_by_support(e)
        assert sum(map(len, grouped.values())) == len(comps)
        assert [key for _, key in memo_log] == ["decomposition"]


class TestValueSemantics:
    """MonomialIdeal keeps the value semantics of the frozen dataclass it
    used to be: repr, == and hash on (dim, gens), and no field writes."""

    Frozen = dataclasses.make_dataclass(
        "MonomialIdeal", [("dim", int), ("gens", tuple)], frozen=True)

    def test_matches_the_dataclass(self):
        rng = random.Random(83)
        ideals = [random_ideal(rng, case % 4 + 1, 5, 3, allow_zero=True,
                               allow_unit=True) for case in range(200)]
        ideals += [normalize(e.dim, e.gens) for e in ideals[:50]]
        frozen = [self.Frozen(e.dim, e.gens) for e in ideals]
        for e, d in zip(ideals, frozen):
            assert repr(e) == repr(d)
            assert hash(e) == hash(d)
            assert e != d and d != e
            for f, c in zip(ideals, frozen):
                assert (e == f, e != f) == (d == c, d != c)
        assert repr(normalize(2, [(1, 0), (2, 0)])) == (
            "MonomialIdeal(dim=2, gens=((1, 0),))")
        assert MonomialIdeal(dim=2, gens=((1, 0),)) == normalize(2, [(1, 0)])
        assert str(normalize(2, [(0, 2), (1, 0)])) == "ideal<(1, 0), (0, 2)>"
        assert str(zero_ideal(3)) == "zero ideal in N^3"

    def test_fields_are_read_only(self):
        e = normalize(2, [(1, 0), (0, 3)])
        for write in (lambda: setattr(e, "dim", 3),
                      lambda: setattr(e, "gens", ()),
                      lambda: setattr(e, "other", 1),
                      lambda: delattr(e, "dim"),
                      lambda: delattr(e, "gens")):
            with pytest.raises(AttributeError,
                               match="^MonomialIdeal is immutable$"):
                write()
        assert vars(e) == {"dim": 2, "gens": ((1, 0), (0, 3))}
