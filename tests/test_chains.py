"""Chain-length bounds, extremal sequences, and bad-sequence checking."""

import inspect
import random
import sys
import time
from math import comb
from operator import le

import pytest

from monord import (DEGLEX, BoundFn, BudgetExceeded, DataError, IVPoly, ell,
                    extremal_sequence, h_bound, is_bad_sequence,
                    max_bad_degree_growth, normalize, t_bound, zero_ideal)
from monord import chains
from monord.chains import DEFAULT_BUDGET, as_bound_fn
from monord.errors import Budget
from oracles import (TailBound, affine_ell, antichains, bad_tree_size,
                     bitset_bad_search, columns, list_bad_search,
                     max_decreasing_sequence, points_up_to, random_ideal,
                     recursive_bad_search, recursive_ell,
                     reference_bad_search, trie_ell, trie_extremal)

# small grid of eventually constant bound functions for oracle comparisons
TABLES = [(0,), (1,), (2,), (3,), (0, 2), (1, 2), (2, 3), (1, 1, 3), (3, 1)]

# the affine points (m, p, q) of the chains-ordinals benchmark, where the
# old engine still fits in memory: m = 2 with (q + 1)^p <= 5000, and the
# fixed m = 3 and m = 4 points
AFFINE_GRID = ([(2, p, q) for p in range(13) for q in range(3)
                if (q + 1) ** p <= 5000]
               + [(3, p, q) for p, q in
                  ((1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (1, 3))]
               + [(4, p, q) for p, q in
                  ((1, 0), (2, 0), (3, 0), (0, 3), (0, 1))])
# the t_bound points (m, p, q) of the same benchmark
TB_GRID = ([(2, p, q) for p, q in
            ((0, 0), (1, 0), (2, 0), (1, 1), (0, 1), (0, 2), (3, 0))]
           + [(3, p, q) for p, q in ((0, 0), (1, 0), (2, 0), (0, 1))])


# callables that are neither constant nor affine, at m = 4 and 5
CALLABLES = [lambda i: min(3, 1 + i), lambda i: (2, 0, 3, 1)[i % 4] + i // 5,
             lambda i: 1 + i * i]


def table_fn(table):
    return lambda i: table[min(i, len(table) - 1)]


def same_searches(m, f, caps, recursive_caps=()):
    """The search and the bitset search at each cap equal the list-filter
    search, which runs once for all of them, and the recursive one at
    ``recursive_caps``."""
    want = list_bad_search(m, f, {*caps, *recursive_caps})
    for cap in caps:
        assert max_bad_degree_growth(m, f, cap) == want[cap], (m, f, cap)
        assert bitset_bad_search(m, f, cap) == want[cap], (m, f, cap)
    for cap in recursive_caps:
        assert recursive_bad_search(m, f, cap) == want[cap], (m, f, cap)


def outcome(run):
    """run(), or the units it spent when it ran out of budget."""
    try:
        return run()
    except BudgetExceeded as exc:
        return "spent", exc.spent


class TestBoundFn:
    def test_monotonized(self):
        f = BoundFn.from_table([3, 1, 5])
        assert [f(i) for i in range(5)] == [3, 3, 5, 5, 5]

    def test_affine(self):
        f = BoundFn.affine(2, 3)
        assert [f(i) for i in range(3)] == [2, 5, 8]

    def test_table_tail(self):
        # the constructor took a table and an IVPoly tail unchecked:
        # table=[10] with tail 3 read 10, 3, 3 where its envelope reads 10
        f = BoundFn.from_table([1, 2, 7])
        assert [f(i) for i in range(5)] == [1, 2, 7, 7, 7]
        assert f._flat == 2
        assert list(inspect.signature(BoundFn).parameters) == ["fn"]

    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            BoundFn(lambda i: -1)(0)
        with pytest.raises(DataError):
            BoundFn(lambda i: 1)(-2)

    def test_polynomial_bounds_are_callables(self):
        # an IVPoly of any degree is read as a callable, into its envelope;
        # one that goes negative is refused where the walk reads it, and
        # the tail 4 - i was read as it was, giving ell(2, .) = 5
        f = BoundFn(IVPoly((0, 0, 1)))
        assert [f(i) for i in range(4)] == [1, 3, 6, 10]
        assert ell(3, f) == ell(3, lambda i: comb(i + 2, 2))
        with pytest.raises(DataError, match="f\\(5\\) = -1"):
            ell(2, BoundFn(IVPoly((5, -1))))

    def test_affine_rejects_negatives_at_construction(self):
        for p, q in [(-1, 0), (0, -1), (3, -2)]:
            with pytest.raises(DataError):
                BoundFn.affine(p, q)


class TestEll:
    def test_dim_one(self):
        for p, q in [(0, 0), (2, 0), (3, 5)]:
            assert ell(1, BoundFn.affine(p, q)) == p + 1

    def test_examples(self):
        assert ell(2, 1) == 3
        assert ell(3, 3) == 20
        for m in range(1, 5):
            assert ell(m, 0) == 1

    def test_rejects_bad_dim(self):
        with pytest.raises(DataError):
            ell(0, 1)

    def test_matches_exhaustive_search(self):
        for m in (1, 2, 3):
            for table in TABLES:
                f = BoundFn.from_table(table)
                got = ell(m, f)
                want = max_decreasing_sequence(m, f, len(table) - 1) + 0
                assert got == want, (m, table)

    def test_monotone_in_f(self):
        for table in TABLES:
            bigger = tuple(v + 1 for v in table)
            for m in (1, 2, 3):
                assert ell(m, BoundFn.from_table(table)) <= \
                    ell(m, BoundFn.from_table(bigger))

    def test_monotone_in_m(self):
        for table in TABLES:
            if table[0] == 0:
                continue
            values = [ell(m, BoundFn.from_table(table)) for m in (1, 2, 3)]
            assert values[0] <= values[1] <= values[2]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc:
            ell(3, BoundFn.affine(3, 2), budget=10)
        assert exc.value.spent <= 10

    def test_closed_block_past_64_bits_is_charged(self):
        # C(10^3000 + 1000, 1000) was built, in 5.1 s, under a budget of 10
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            ell(1000, BoundFn.affine(10 ** 3000, 0), budget=10)
        assert time.perf_counter() - start < 0.1
        assert exc.value.spent == 0
        # (m - j) units per byte of v[j], and nothing up to 64 bits or on
        # the last coordinate, where the block is C(v[j] + 1, 1)
        c = 2 ** 64
        assert ell(2, BoundFn.affine(c - 1, 0), budget=0) == comb(c + 1, 2)
        with pytest.raises(BudgetExceeded):
            ell(2, BoundFn.affine(c, 0), budget=2 * 9 - 1)
        assert ell(2, BoundFn.affine(c, 0), budget=2 * 9) == comb(c + 2, 2)
        assert ell(1, BoundFn.affine(c ** 9, 0), budget=0) == c ** 9 + 1

    def test_callable_table_is_charged(self):
        # every value a callable adds to its table costs a unit, charged
        # before it is read, so a growing callable cannot fill memory
        def grows(i):
            reads.append(i)
            if len(reads) > 1000:
                raise AssertionError("read past a budget of 1000")
            return 3 + i

        for run in (lambda: ell(3, grows, budget=1000),
                    lambda: extremal_sequence(3, grows, 10 ** 9, budget=1000)):
            reads = []
            with pytest.raises(BudgetExceeded):
                run()
        # f(0) and f(1) are two table values, the one step at offset 1 two
        # units; the same constant as a closed form costs nothing
        assert ell(2, lambda i: 1, budget=4) == 3
        with pytest.raises(BudgetExceeded):
            ell(2, lambda i: 1, budget=3)
        assert ell(2, 1, budget=1) == 3

    def test_budget_must_be_natural(self):
        # a negative or float budget was spent at once and a string one
        # raised TypeError
        f = BoundFn.affine(3, 1)
        for budget in (-1, 2.5, "9", True):
            for run in (lambda: ell(2, f, budget=budget),
                        lambda: t_bound(2, f, budget=budget),
                        lambda: extremal_sequence(2, f, 5, budget=budget)):
                with pytest.raises(DataError, match="budget"):
                    run()
        assert ell(2, 1, budget=0) == 3


class TestAgainstTrieEngine:
    """The engine on closed-form bounds against the value-trie engine it
    replaced, and against the recurrence for affine bounds."""

    def test_tables(self):
        for m in (1, 2, 3, 4):
            for table in TABLES:
                assert ell(m, BoundFn.from_table(table)) == \
                    trie_ell(m, table_fn(table)), (m, table)

    def test_affine_grid(self):
        for m, p, q in AFFINE_GRID:
            got = ell(m, BoundFn.affine(p, q))
            assert got == affine_ell(m, p, q), (m, p, q)
            assert got == trie_ell(m, lambda i: p + i * q), (m, p, q)

    def test_callables(self):
        for m in (1, 2, 3):
            for c in range(6):
                for p in range(6):
                    f = lambda i, c=c, p=p: min(c, p + i)
                    assert ell(m, f) == trie_ell(m, f), (m, c, p)

    def test_t_bound(self):
        for m, p, q in TB_GRID:
            want = trie_ell(m, lambda i: h_bound(p + i * q, m))
            assert t_bound(m, BoundFn.affine(p, q)) == want, (m, p, q)

    def test_extremal(self):
        cases = [(m, BoundFn.from_table(t), table_fn(t))
                 for m in (1, 2, 3) for t in TABLES]
        cases += [(m, BoundFn.affine(p, q), lambda i, p=p, q=q: p + i * q)
                  for m, p, q in AFFINE_GRID]
        cases += [(m, fn, fn) for m in (4, 5) for fn in CALLABLES]
        for m, f, fn in cases:
            for cap in (1, 7, 50):
                assert extremal_sequence(m, f, cap) == \
                    trie_extremal(m, fn, cap), (m, cap)

    def test_constant_bounds(self):
        # a callable is never known to be constant, so it runs the whole walk
        for m in range(1, 5):
            for c in range(8):
                assert ell(m, c) == ell(m, lambda i, c=c: c), (m, c)
        for m in range(1, 13):
            for c in range(41):
                assert ell(m, c) == comb(c + m, m), (m, c)


class TestAgainstTailForm:
    """The table form against the table-plus-IVPoly-tail form it replaced,
    oracles.TailBound: the same values, and the same index from which the
    bound is constant, on TABLES, the affine grid and TB_GRID."""

    CASES = ([(BoundFn.from_table(t), TailBound.from_table(t))
              for t in TABLES]
             + [(BoundFn.affine(p, q), TailBound.affine(p, q))
                for _, p, q in AFFINE_GRID + TB_GRID]
             + [(as_bound_fn(c), TailBound.from_table([c])) for c in range(4)])

    def test_values_and_flat_index(self):
        for f, ref in self.CASES:
            assert [f(i) for i in range(12)] == [ref(i) for i in range(12)]
            assert f._flat == ref.flat, ref.table


class TestAgainstRecursion:
    """The walk against the recursion it replaced, oracles.recursive_ell,
    on values and on BudgetExceeded.spent: both read the bound at the same
    offsets and charge a step before each block below a first point.  Each
    run gets a fresh bound, as a callable's table charges only new values."""

    CASES = ([(m, lambda t=t: BoundFn.from_table(t))
              for m in (1, 2, 3, 4) for t in TABLES]
             + [(m, lambda p=p, q=q: BoundFn.affine(p, q))
                for m, p, q in AFFINE_GRID]
             + [(m, lambda c=c, p=p: BoundFn(lambda i: min(c, p + i)))
                for m in (1, 2, 3) for c in range(6) for p in range(6)])
    # bounds that grow, where small budgets run out at every depth
    GROWING = [(2, lambda: BoundFn.affine(3, 1)),
               (3, lambda: BoundFn.affine(3, 2)),
               (4, lambda: BoundFn.affine(2, 1)),
               (3, lambda: BoundFn(lambda i: 3 + i)),
               (4, lambda: BoundFn(CALLABLES[1])),
               (5, lambda: BoundFn(CALLABLES[2])),
               (3, lambda: BoundFn.from_table((1, 1, 3))),
               (4, lambda: BoundFn(lambda i: min(4, 1 + i)))]

    @staticmethod
    def both(m, make, budget):
        return (outcome(lambda: ell(m, make(), budget=budget)),
                outcome(lambda: recursive_ell(
                    m, make(), Budget(budget, DEFAULT_BUDGET))))

    def test_values(self):
        for m, make in self.CASES:
            walk, rec = self.both(m, make, None)
            assert walk == rec and type(walk) is int, (m, make())

    def test_small_budgets(self):
        for m, make in self.CASES[::7] + self.GROWING:
            for budget in list(range(40)) + [100, 1000, 10_000]:
                walk, rec = self.both(m, make, budget)
                assert walk == rec, (m, budget)


class TestAtDimension1000:
    """ell and t_bound walk one list of m coordinates, so dimension 1000
    ends in BudgetExceeded under the default frame limit; the recursion
    ran out of frames there."""

    def test_ell(self):
        with pytest.raises(BudgetExceeded) as exc:
            ell(1000, BoundFn.affine(1, 1))
        assert exc.value.spent <= DEFAULT_BUDGET

    def test_t_bound(self):
        with pytest.raises(BudgetExceeded) as exc:
            t_bound(1000, BoundFn.affine(1, 1))
        assert exc.value.spent <= DEFAULT_BUDGET


class TestExtremal:
    def test_dim_one(self):
        assert extremal_sequence(1, 2, cap=10) == [(2,), (1,), (0,)]

    def test_dim_two(self):
        assert extremal_sequence(2, 1, cap=10) == [(1, 0), (0, 1), (0, 0)]

    def test_cap_zero(self):
        assert extremal_sequence(2, 3, cap=0) == []

    def test_achieves_ell_and_is_valid(self):
        # where ell runs out of the default budget, a prefix of 2,000
        cases = [(m, lambda t=t: BoundFn.from_table(t))
                 for m in (1, 2, 3) for t in TABLES]
        cases += [(m, lambda p=p, q=q: BoundFn.affine(p, q))
                  for m, p, q in AFFINE_GRID]
        cases += [(m, lambda fn=fn: BoundFn(fn))
                  for m in (4, 5) for fn in CALLABLES]
        for m, make in cases:
            f = make()
            length = outcome(lambda: ell(m, make()))
            fits = type(length) is int
            seq = extremal_sequence(m, make(),
                                    cap=length + 5 if fits else 2000)
            assert len(seq) == (length if fits else 2000)
            for i, v in enumerate(seq):
                assert sum(v) <= f(i)
            for u, v in zip(seq, seq[1:]):
                assert v < u  # lex-decreasing


class TestBounds:
    def test_h_examples(self):
        assert h_bound(0, 1) == 0
        assert h_bound(0, 3) == 0
        assert h_bound(1, 2) == 2

    def test_h_rejects(self):
        with pytest.raises(DataError):
            h_bound(-1, 2)
        with pytest.raises(DataError):
            h_bound(1, 0)

    def test_t_dim_one(self):
        assert t_bound(1, 1) == 3

    def test_t_is_ell_of_composition(self):
        f = BoundFn.from_table([1, 2])
        composed = BoundFn(lambda i: h_bound(f(i), 2))
        assert t_bound(2, BoundFn.from_table([1, 2])) == ell(2, composed)


class TestIsBad:
    def test_single(self):
        assert is_bad_sequence([normalize(2, [(1, 1)])]).bad

    def test_repeat(self):
        e = normalize(2, [(1, 1)])
        assert is_bad_sequence([e, e]) == (False, (0, 1))

    def test_witness(self):
        seq = [normalize(2, [(1, 0)]), normalize(2, [(0, 1)]),
               normalize(2, [(1, 1)])]
        assert is_bad_sequence(seq) == (False, (0, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            is_bad_sequence([zero_ideal(2), zero_ideal(3)])


class TestMaxBad:
    def test_degree_zero(self):
        res = max_bad_degree_growth(1, 0, cap=10 ** 4)
        assert len(res.sequence) == 2
        assert res.exhaustive

    def test_linear_growth_dim_one(self):
        res = max_bad_degree_growth(1, lambda i: i, cap=10 ** 4)
        assert len(res.sequence) == 3
        assert res.exhaustive

    def test_cap_zero(self):
        res = max_bad_degree_growth(2, 1, cap=0)
        assert res.sequence == []
        assert not res.exhaustive

    def test_results_are_bad(self):
        for m, f in [(1, 1), (2, 1), (2, lambda i: min(i, 2))]:
            res = max_bad_degree_growth(m, f, cap=5000)
            assert is_bad_sequence(res.sequence).bad

    def test_matches_reference_search(self):
        # caps below the full node count stop the search mid-scan; a node
        # whose bound grows lists a new box's admissible candidates, any
        # other filters its parent's list; the oracle lists every antichain
        # of each box, so bounds of 3 in N^3 and growing ones in N^2 get
        # small caps
        rng = random.Random(131)
        cases = [(1, lambda i: i, 400), (1, lambda i: 2 * i + 1, 400),
                 (1, 2, 400), (2, 2, 400),
                 (2, lambda i: max(0, 3 - i), 50),
                 (2, BoundFn.from_table([0, 3, 1, 2]), 50),
                 (2, lambda i: (0, 2, 1)[i % 3], 100),
                 (3, lambda i: (0, 2, 1)[i % 3], 50),
                 (3, lambda i: max(0, 3 - i), 10),
                 (2, BoundFn.affine(1, 1), 10)]
        for m in (1, 2, 3):
            cases += [(m, 0, 400), (m, 1, 400), (m, lambda i: min(i, 2), 400)]
        for m, f, top in cases:
            full = reference_bad_search(m, f, top)
            for cap in {0, 1, rng.randrange(1, full[2]), full[2], top}:
                want = full if cap == top else reference_bad_search(m, f, cap)
                assert tuple(max_bad_degree_growth(m, f, cap)) == want, (m, cap)
                assert tuple(recursive_bad_search(m, f, cap)) == want, (m, cap)

    def test_matches_recursive_search_at_every_cap(self):
        # the search the loop replaced, at every cap up to exhaustion or
        # 400 nodes, and at exhaustion or 3,000; a search in N^3 with a
        # bound of 2 or more lists thousands of antichains at its root
        # first, so those take every 16th cap
        for m in (1, 2, 3):
            for f in (0, 1, 2, 3, BoundFn.from_table([0, 3, 1, 2])):
                full = recursive_bad_search(m, f, 3000)
                step = 16 if m == 3 and f not in (0, 1) else 1
                for cap in {*range(0, min(full.nodes, 400) + 2, step),
                            full.nodes}:
                    assert (max_bad_degree_growth(m, f, cap)
                            == recursive_bad_search(m, f, cap)), (m, f, cap)

    def test_matches_recursive_search_in_wider_boxes(self):
        # constant bounds 2 and 3 at m = 3..5 where the root's listing of
        # every antichain of the box stays small: bound 3 in N^4 and N^5
        # lists more than 2^20 and 2^35, so only its masks are checked below
        rng = random.Random(137)
        for m, f in ((3, 2), (3, 3), (4, 2), (5, 2)):
            for cap in {0, 1, rng.randrange(2, 3000), 3000}:
                assert (max_bad_degree_growth(m, f, cap)
                        == recursive_bad_search(m, f, cap)), (m, f, cap)

    def test_matches_the_list_search_in_wider_boxes(self):
        # the wide boxes at cap 3,000, where the root lists up to 38,620
        # antichains, at every 50th cap and at 25 seeded ones; the
        # recursive search, at 3,000, on the two boxes not checked above
        rng = random.Random(157)
        for m, f in ((3, 2), (3, 3), (4, 2), (5, 2), (2, 5), (2, 6)):
            every = 50 if m < 5 else 500
            same_searches(m, f, {*range(0, 3001, every),
                                 *rng.sample(range(3001), 25 if m < 5 else 5)},
                          [3000] if m == 2 else [])

    def test_matches_the_list_search_at_every_cap(self):
        # constant bounds, where the table of finished subtrees is on from
        # the root: every cap up to 2,000, past exhaustion where that is
        # smaller; (3, 3) lists thousands of antichains per call, so every
        # 16th; and (2, 2) at its exhaustion, 440,256 nodes
        rng = random.Random(139)
        for m in (1, 2, 3):
            for d in (0, 1, 2, 3):
                step = 16 if (m, d) == (3, 3) else 1
                same_searches(m, d, range(0, 2001, step),
                              {rng.randrange(1, 400), 400})
        same_searches(2, 2, [440_255, 440_256, 440_257])

    def test_matches_the_list_search_past_a_plateau(self):
        # tables whose last value is first reached at index 1, 2 or 3: the
        # boxes before that depth may grow, so the table is read only past
        # it.  Under [1, 0, 0, 2] in N^2 a table keyed by candidates alone
        # at every depth first goes wrong at cap 258
        rng = random.Random(149)
        for table in ([0, 2, 2], [1, 1, 3], [0, 0, 2], [0, 3, 1, 2], [1, 2],
                      [2, 1, 3], [0, 1, 1, 2], [1, 0, 0, 2]):
            f = BoundFn.from_table(table)
            for m in (1, 2, 3):
                step = 16 if m == 3 and max(table) > 2 else 1
                same_searches(m, f, range(0, 1001, step),
                              {rng.randrange(1, 200)})

    def test_matches_the_list_search_on_growing_bounds(self):
        # bounds with no flat index keep the table off; a callable whose
        # boxes stop growing still filters its parent's candidates
        for f in (BoundFn.affine(1, 1), BoundFn.affine(0, 1), lambda i: i,
                  lambda i: (0, 2, 1)[i % 3], lambda i: min(i, 2)):
            for m in (1, 2):
                same_searches(m, f, range(0, 301, m * m), {150, 300})

    def test_matches_the_list_search_on_benchmark_searches(self):
        # chains-ordinals' searches: (2, 1 or 2, cap) twice and (3, 1, cap)
        # a round, each cap in 50..300
        rng = random.Random(151)
        for _ in range(30):
            m, p = rng.choice([(2, 1), (2, 2), (3, 1)])
            cap = rng.randint(50, 300)
            same_searches(m, BoundFn.affine(p, 0), [cap], [cap])

    def test_a_cap_that_cuts_inside_a_recorded_subtree(self):
        # at (2, 2) and cap 1000, after 771 nodes the next child is a state
        # finished before, of 232 nodes, with 229 left: the search descends
        # into it and meets four more such states below; reading it off the
        # table would count 1003 nodes
        same_searches(2, 2, range(760, 1002), [771, 1000])
        res = max_bad_degree_growth(2, 2, 1000)
        assert (len(res.sequence), res.exhaustive, res.nodes) == (11, False,
                                                                  1000)

    def test_exhaustive_counts_match_the_tree_size_oracle(self):
        # the whole tree's nodes and depth by a memoised count over
        # candidate sets, with nothing of the search shared: (2, 3) has
        # about 3.6 * 10^24 nodes and (5, 1) about 6.3 * 10^21
        for m, d in [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
                     (2, 2), (2, 3), (3, 0), (3, 1), (4, 1), (5, 1)]:
            nodes, depth = bad_tree_size(m, d)
            for cap in (nodes - 1, nodes, nodes + 1):
                res = max_bad_degree_growth(m, d, cap)
                assert res.nodes == min(cap, nodes), (m, d, cap)
                assert res.exhaustive == (cap >= nodes), (m, d, cap)
            assert len(res.sequence) == depth, (m, d)
            assert is_bad_sequence(res.sequence).bad

    def test_columns_transpose_the_bit_matrix(self):
        # the bitset search's slices of a universe, read 2^13 antichains
        # at a time
        rng = random.Random(163)
        for k in (0, 1, 7, 8, 9, 8191, 8192, 8193, 20000):
            n = rng.randint(1, 30)
            rows = [rng.getrandbits(n) for _ in range(k)]
            assert columns(rows, n) == [
                sum(1 << i for i, r in enumerate(rows) if r >> p & 1)
                for p in range(n)], (k, n)

    def test_a_spent_cap_builds_no_child_candidates(self, monkeypatch):
        # the bitset search made its first child's keep row at cap 1, and
        # with it the slices of the root's universe.  Each test of a listed
        # antichain against an outside mask is counted: cap 1 visits the
        # root alone and tests none; cap 2 visits its first child too, the
        # zero ideal, whose candidates are the root's, each tested once,
        # under a constant bound, and a listing under a growing one
        listed, tests = [], []

        class Counted(int):
            def __and__(self, other):
                tests.append(self)
                return int(self) & other

        def counted(div, allowed, outs):
            listed.append([Counted(c) for c in real(div, allowed, outs)])
            return listed[-1]

        real = chains._antichains
        monkeypatch.setattr(chains, "_antichains", counted)
        for m, d in ((1, 3), (2, 1), (2, 3), (3, 2)):
            for f, filters in ((d, True), (BoundFn.from_table([d, d + 1]),
                                           False)):
                for cap in (1, 2):
                    listed.clear()
                    tests.clear()
                    res = max_bad_degree_growth(m, f, cap)
                    assert (res.nodes, res.exhaustive) == (cap, False)
                    want = len(listed[0]) if filters and cap == 2 else 0
                    assert len(tests) == want, (m, d, filters, cap)

    def test_box_masks_are_the_divisor_masks(self, monkeypatch):
        # a point's divisor mask is built from those of each p - e_i; the
        # rule it replaced compared p with every earlier point of the box
        seen = []

        def listed_none(div, allowed, outs):
            seen.append(div[:])
            return []

        monkeypatch.setattr(chains, "_antichains", listed_none)
        for m, top in ((1, 6), (2, 5), (3, 4), (4, 3), (5, 3), (30, 2)):
            for d in range(top + 1):
                seen.clear()
                max_bad_degree_growth(m, d, 1)
                pts = sorted(points_up_to(m, d), key=DEGLEX.key)
                assert seen == [[sum(1 << j for j, q in enumerate(pts)
                                     if all(map(le, q, p))) for p in pts]]

    def test_matches_recursive_search_on_a_growing_bound(self):
        f = BoundFn.affine(1, 1)
        assert (max_bad_degree_growth(2, f, 2000)
                == recursive_bad_search(2, f, 2000))

    def test_runs_under_a_low_frame_limit(self):
        # the recursive search took a frame per node on the path and per
        # point of an antichain it listed
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 20)
        try:
            res = max_bad_degree_growth(2, BoundFn.affine(1, 1), 2000)
        finally:
            sys.setrecursionlimit(limit)
        assert len(res.sequence) == 16 and res.nodes == 2000

    def test_rejects_bad_arguments(self):
        # a negative cap returned an empty search, a bool or float cap was
        # taken for a number, and a bool was taken for m
        for cap in (-1, True, 2.5):
            for call in (lambda: max_bad_degree_growth(2, 1, cap),
                         lambda: extremal_sequence(2, 3, cap)):
                with pytest.raises(DataError, match="cap"):
                    call()
        for m in (0, True, 2.0, 1001):
            for call in (lambda: max_bad_degree_growth(m, 1, 5),
                         lambda: ell(m, 1), lambda: t_bound(m, 1),
                         lambda: extremal_sequence(m, 1, 5)):
                with pytest.raises(DataError, match="dimension"):
                    call()

    def test_bad_runs_terminate(self):
        # Dickson at desk scale: a bad sequence over a fixed degree box
        # has distinct members, so its length is capped by the number of
        # antichains in the box
        rng = random.Random(113)
        limit = len({normalize(2, c) for c in antichains(points_up_to(2, 3))})
        for _ in range(10):
            seq = []
            for _ in range(4 * limit):
                e = random_ideal(rng, 2, 4, 3,
                                 allow_zero=True, allow_unit=True)
                if all(not (prev >= e) for prev in seq):
                    seq.append(e)
            assert is_bad_sequence(seq).bad
            assert len(seq) <= limit
