"""chains-ordinals: chain bounds and ordinal arithmetic; no Hilbert work.

Each round draws a grid of affine bounds f(i) = p + i q and runs ``ell``
(m = 2..4), ``t_bound`` (m = 2, 3), capped ``extremal_sequence`` and
three small ``max_bad_degree_growth`` searches, then parses, prints,
adds, multiplies and compares seeded Cantor normal forms nested about
three deep, and asks for ``bounds_report`` for seeded m in 1..8.  All
but the searches run in batches: one op runs ``ell`` on the whole grid
of the round, or parses (prints, adds, multiplies, compares) all of its
ordinals or pairs, or makes all of its reports, so that each op takes
long enough to time steadily.

Of a round's 12 ops, five are short (cmp, t_bound, format, nat_sum and
mostly extremal) and four long (ell, whose grid starts with a large
point, and the searches).  The median therefore falls among
bounds_report, parse and nat_prod, whose times overlap, and not on the
edge between two groups of ops, where it would jump from one to the
other between runs.  All three are ordinal arithmetic.  Each round draws
how many ordinals (ORDINALS) and reports (REPORTS) it has, so that these
three ops take times spread over a range: the machine this was written
on runs the same code at two speeds about 1.7 times apart, and the
median of ops that each take one fixed time jumps between the two.

The ROADMAP defect cases run once per run: ``ell(2, 20 + 2i)`` and
``ell(3, 3 + i)`` fill memory, ``t_bound(2, 2 + i)`` and
``max_bad_degree_growth(2, 1 + i, 2000)`` run past the cap.
"""

from __future__ import annotations

import gen
import oracles as O
from harness import Workload as Base, same

NAME = "chains-ordinals"
# The grid keeps ell below a few thousand: past that the memo and the bound
# tables take tens of MB, as much as the defect cases take before the guard.
ELL2_MAX = 5_000         # (q + 1)^p bound on the m = 2 grid
ELL2_LARGE = 1_000       # and the least for its first point
ELL3 = ((1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (1, 3))
ELL4 = ((1, 0), (2, 0), (3, 0), (0, 3), (0, 1))
TB2 = ((0, 0), (1, 0), (2, 0), (1, 1), (0, 1), (0, 2), (3, 0))
TB3 = ((0, 0), (1, 0), (2, 0), (0, 1))
ORDINALS = (24, 72)      # fewest and most ordinals in a round
REPORTS = (6, 14)        # fewest and most bounds_report calls in a round

ROWS = {
    "ell_m2_20+2i": ("ell(2, 20 + 2i): MemoryError at 3 GB after 52 s", 52.0),
    "ell_m3_3+i": ("ell(3, 3 + i, budget=200000): MemoryError at 4 GB",
                   None),
    "t_bound_m2_2+i": ("t_bound(2, 2 + i)", 9.6),
    "bad_growth_m2_1+i": ("max_bad_degree_growth(2, 1 + i, cap=2000)",
                          10.0),
}


class Workload(Base):
    rounds_per_s = 9
    rows = ROWS

    def make_inputs(self, r):
        rng = gen.rng_for(self.seed, NAME, r)
        ell = []
        while len(ell) < 4:
            p, q = rng.randint(2, 12), rng.randint(0, 2)
            # the first one large, so that the ell op is a long one
            lo = ELL2_LARGE if not ell else 0
            if lo <= (q + 1) ** p <= ELL2_MAX:
                ell.append((2, p, q))
        ell.append((3,) + rng.choice(ELL3))
        ell.append((4,) + rng.choice(ELL4))
        tb = [(2,) + rng.choice(TB2), (2,) + rng.choice(TB2),
              (3,) + rng.choice(TB3)]
        ext = [(m, rng.randint(1, 6 - m), rng.randint(0, 2),
                rng.randint(10, 400)) for m in (2, 3, 4)]
        bad = [(2, rng.randint(1, 2), rng.randint(50, 300)),
               (2, rng.randint(1, 2), rng.randint(50, 300)),
               (3, 1, rng.randint(50, 300))]
        ords = [gen.ordinal(rng, 3) for _ in range(rng.randint(*ORDINALS))]
        ms = [rng.randint(1, 8) for _ in range(rng.randint(*REPORTS))]
        self.fingerprint.add((r, ell, tb, ext, bad, ords, ms))
        return ell, tb, ext, bad, ords, ms

    def round(self, r):
        M = self.M
        ell, tb, ext, bad, ords, ms = self.inputs(r)
        steps = []
        aff = M.BoundFn.affine

        def batch(kind, name, fn, argss, check):
            steps.append((kind, lambda run: run.op(
                kind, _each, run, name, fn, argss, check=check)))
        batch("ell", "ell", M.ell, [(m, aff(p, q)) for m, p, q in ell],
              lambda res: _first(
                  same(got, O.ell_affine(m, p, q), "ell")
                  for got, (m, p, q) in zip(res, ell)))
        batch("t_bound", "t_bound", M.t_bound,
              [(m, aff(p, q)) for m, p, q in tb], lambda res: _first(
                  same(got, O.ell_generic(
                      m, lambda i, m=m, p=p, q=q: O.h_bound(p + i * q, m)),
                      "t_bound")
                  for got, (m, p, q) in zip(res, tb)))
        batch("extremal", "extremal_sequence", M.extremal_sequence,
              [(m, aff(p, q), cap) for m, p, q, cap in ext],
              lambda res: _first(
                  _check_extremal(m, p, q, cap, got)
                  for got, (m, p, q, cap) in zip(res, ext)))
        for m, p, cap in bad:
            steps.append(("bad-growth", lambda run, m=m, p=p, cap=cap: run.op(
                "bad-growth", run.call, "max_bad_degree_growth",
                M.max_bad_degree_growth, m, M.BoundFn.affine(p, 0), cap,
                check=lambda res, p=p: self._check_search(p, res))))
        lib = [_to_lib(M, a) for a in ords]
        texts = [O.ord_text(a) for a in ords]
        ab = list(zip(ords[0::2], ords[1::2]))
        xy = list(zip(lib[0::2], lib[1::2]))
        fmt = M.format_ordinal
        batch("parse", "parse_ordinal", M.parse_ordinal,
              [(t,) for t in texts], lambda res: _first(
                  same(O.from_lib(got), a, "parse")
                  for got, a in zip(res, ords)))
        batch("format", "format_ordinal", fmt, [(x,) for x in lib],
              lambda res: _first(
                  same(got, t, "format")
                  or same(M.parse_ordinal(got), x, "parse(format(a))")
                  for got, t, x in zip(res, texts, lib)))
        batch("nat_sum", "nat_sum", M.nat_sum, xy, lambda res: _first(
            same(O.from_lib(got), O.ord_sum(a, b), "nat_sum")
            or same(M.nat_sum(y, x), got, "nat_sum commutes")
            for got, (a, b), (x, y) in zip(res, ab, xy)))
        batch("nat_prod", "nat_prod", M.nat_prod, xy, lambda res: _first(
            same(O.from_lib(got), O.ord_prod(a, b), "nat_prod")
            or same(M.nat_prod(y, x), got, "nat_prod commutes")
            for got, (a, b), (x, y) in zip(res, ab, xy)))
        batch("cmp", "cmp", M.cmp, xy, lambda res: _first(
            same(got, O.ord_cmp(a, b), "cmp") for got, (a, b) in zip(res, ab)))
        batch("bounds", "bounds_report", M.bounds_report, [(m,) for m in ms],
              lambda res: _first(
                  same({k: fmt(v) for k, v in got.items()},
                       O.bounds_expected(m), "bounds_report")
                  for got, m in zip(res, ms)))
        return steps

    def row_steps(self):
        """The ROADMAP defect cases, once per run."""
        M = self.M
        aff = M.BoundFn.affine
        return [
            ("ell_m2_20+2i", lambda run: run.op(
                "ell", run.call, "ell", M.ell, 2, aff(20, 2),
                row="ell_m2_20+2i", defect=True, expect=(M.BudgetExceeded,),
                check=lambda res: _same_or_budget(
                    res, O.ell_affine(2, 20, 2), "ell"))),
            ("ell_m3_3+i", lambda run: run.op(
                "ell", run.call, "ell", M.ell, 3, aff(3, 1), 200_000,
                row="ell_m3_3+i", defect=True, expect=(M.BudgetExceeded,),
                check=lambda res: _same_or_budget(
                    res, O.ell_affine(3, 3, 1), "ell"))),
            ("t_bound_m2_2+i", lambda run: run.op(
                "t_bound", run.call, "t_bound", M.t_bound, 2, aff(2, 1),
                row="t_bound_m2_2+i", defect=True, expect=(M.BudgetExceeded,),
                check=lambda res: _same_or_budget(res, O.ell_generic(
                    2, lambda i: O.h_bound(2 + i, 2)), "t_bound"))),
            ("bad_growth_m2_1+i", lambda run: run.op(
                "bad-growth", run.call, "max_bad_degree_growth",
                M.max_bad_degree_growth, 2, aff(1, 1), 2000,
                row="bad_growth_m2_1+i", defect=True,
                check=lambda res: self._check_search(None, res))),
        ]

    def warmup(self):
        """One of each cheap op, untimed."""
        M = self.M
        ords = self.inputs(0)[4]
        M.ell(2, M.BoundFn.affine(3, 1))
        M.extremal_sequence(2, M.BoundFn.affine(3, 1), 50)
        M.max_bad_degree_growth(2, M.BoundFn.affine(1, 0), 50)
        x = M.parse_ordinal(O.ord_text(ords[0]))
        M.nat_prod(M.nat_sum(x, x), x)
        M.format_ordinal(x)
        M.bounds_report(3)

    def _check_search(self, p, res):
        seq = res.sequence
        verdict = self.M.is_bad_sequence(seq)
        if not verdict.bad or O.bad_witness([e.gens for e in seq]):
            return "search result is not a bad sequence"
        if p is not None and any(sum(g) > p for e in seq for g in e.gens):
            return "a search result exceeds its degree bound"
        return None


def _each(run, name, fn, argss):
    """One batch op: ``fn`` on every argument tuple, each a public call."""
    return [run.call(name, fn, *args) for args in argss]


def _first(whys):
    """The first complaint of a batch's checks, or None."""
    return next((why for why in whys if why), None)


def _to_lib(M, a):
    return M.Ord(tuple((_to_lib(M, e), c) for e, c in a))


def _same_or_budget(res, want, what):
    if isinstance(res, tuple) and res and res[0] == "BudgetExceeded":
        return None
    return same(res, want, what)


def _check_extremal(m, p, q, cap, seq):
    want = O.ell_affine(m, p, q, cap)
    if len(seq) != want:
        return f"extremal length {len(seq)}, want min({cap}, ell) = {want}"
    for i, v in enumerate(seq):
        if len(v) != m or sum(v) > p + i * q:
            return f"entry {i} = {v} breaks the degree bound"
        if i and not seq[i - 1] > v:
            return f"entries {i - 1}, {i} are not lex-decreasing"
    return None
