"""order-decompose: the point kernel, the ideal layer and the orderings.

Each round draws three base ideals for each m = 2..6 and derives four
more from them (a sum, an intersection and two colons), so the inputs
are related by inclusion and share slices.  The ops are:

* every comparison made while sorting each group by ``kb_cmp`` and
  ``triangle_cmp``, and a second, smaller group (at most 10 generators,
  so that inclusion-exclusion stays cheap) by ``min_type_cmp``, which
  asks the Hilbert layer for the same ideals again and again; it is kept
  to a minority of the round's time;
* ``irreducible_decomposition`` with ``components_by_support`` per ideal;
* ``is_bad_sequence`` over consecutive runs of the kb-sorted group.
"""

from __future__ import annotations

import functools

import gen
import oracles as O
from harness import Workload as Base

NAME = "order-decompose"
DIMS = (2, 3, 4, 5, 6)
# (fewest gens, most gens, lowest degree, highest degree) of the bases; the
# degree bounds keep the decomposition check's grid small
BASE = {2: (8, 14, 4, 16), 3: (10, 18, 3, 8), 4: (10, 16, 2, 6),
        5: (8, 12, 2, 4), 6: (8, 12, 2, 3)}
SMALL = (3, 5)           # generator counts of the min_type_cmp group
RUN = 4                  # is_bad_sequence looks at runs of this length

ROWS = {
    "mintype_15gens": ("min_type_cmp, two 15-gen ideals", 1.86),
    "decompose_m5_40gens": ("irreducible_decomposition, m=5, 40 gens", 0.15),
}


class Workload(Base):
    rounds_per_s = 3.52
    rows = ROWS

    def make_inputs(self, r):
        rng = gen.rng_for(self.seed, NAME, r)
        groups = []
        for m in DIMS:
            kmin, kmax, lo, hi = BASE[m]
            bases = [gen.antichain(rng, m, rng.randint(kmin, kmax), lo, hi)
                     for _ in range(3)]
            v1 = tuple(rng.randint(0, 2) for _ in range(m))
            v2 = tuple(rng.randint(0, 2) for _ in range(m))
            derived = {
                "sum": O.minimal(bases[0] + bases[1]),
                "intersect": O.minimal(tuple(map(max, g, h))
                                       for g in bases[0] for h in bases[1]),
                "colon1": O.minimal(tuple(max(a - b, 0) for a, b in zip(g, v1))
                                    for g in bases[0]),
                "colon2": O.minimal(tuple(max(a - b, 0) for a, b in zip(g, v2))
                                    for g in bases[2]),
            }
            small = [gen.antichain(rng, m, rng.randint(*SMALL), lo, hi)
                     for _ in range(3)]
            small += [O.minimal(small[0] + small[1]),
                      O.minimal(tuple(max(a - b, 0) for a, b in zip(g, v1))
                                for g in small[2])]
            groups.append((m, bases, derived, small))
        self.fingerprint.add((r, groups))
        return groups

    def round(self, r):
        M = self.M
        groups = self.inputs(r)
        steps = []
        for m, bases, derived, small in groups:
            ideals = [M.normalize(m, g) for g in bases + list(derived.values())]
            # the unit ideal (a colon can reach it) has no decomposition
            proper = [e for e in ideals if e.gens and not e.is_unit()]
            steps.append(("sort-kb", lambda run, xs=ideals: self._bad_runs(
                run, self._sort(run, "kb", M.kb_cmp, xs))))
            steps.append(("sort-triangle", lambda run, xs=ideals: self._sort(
                run, "triangle", M.triangle_cmp, xs)))
            few = [M.normalize(m, g) for g in small]
            steps.append(("sort-mintype", lambda run, xs=few: self._sort(
                run, "mintype", M.min_type_cmp, xs)))
            for e in proper:
                steps.append(("decompose", lambda run, e=e: run.op(
                    "decompose", self._decompose, run, e, check=_check_decomp)))
        return steps

    def row_steps(self):
        """The ROADMAP rows, once per run."""
        M = self.M
        rng = gen.rng_for(self.seed, NAME, "rows")
        a, b = (M.normalize(3, gen.layer(rng, 3, 15, 6)) for _ in range(2))
        e40 = M.normalize(5, gen.layer(rng, 5, 40, 4))
        self.fingerprint.add((a.gens, b.gens, e40.gens))
        return [
            ("mintype_15gens", lambda run: run.op(
                "mintype", run.call, "min_type_cmp", M.min_type_cmp, a, b,
                row="mintype_15gens",
                check=lambda res: self._check_mintype({}, a, b, res))),
            ("decompose_m5_40gens", lambda run: run.op(
                "decompose", self._decompose, run, e40,
                row="decompose_m5_40gens", check=_check_decomp)),
        ]

    def _sort(self, run, kind, cmp, ideals):
        if kind == "mintype":
            oracles = {}
            check = functools.partial(self._check_mintype, oracles)
        else:
            check = functools.partial(self._check_cmp, cmp)

        def timed_cmp(a, b):
            return run.op(kind, run.call, cmp.__name__, cmp, a, b,
                          check=lambda res: check(a, b, res))
        out = sorted(ideals, key=functools.cmp_to_key(timed_cmp))
        run.pending.append((run.records[-1], _check_sorted, out))
        return out

    def _decompose(self, run, e):
        comps = run.call("irreducible_decomposition",
                         self.M.irreducible_decomposition, e)
        grouped = run.call("components_by_support",
                           self.M.components_by_support, e)
        return e, comps, grouped

    def _bad_runs(self, run, ordered):
        for i in range(0, len(ordered) - RUN + 1, RUN):
            seq = ordered[i:i + RUN]
            run.op("bad-seq", run.call, "is_bad_sequence",
                   self.M.is_bad_sequence, seq,
                   check=lambda res, seq=seq: _check_bad(seq, res))

    def warmup(self):
        """One of each op on the first group, untimed."""
        groups = self.inputs(0)
        M = self.M
        m, bases, _, small = groups[0]
        a, b, x, y = (M.normalize(m, g) for g in bases[:2] + small[:2])
        M.kb_cmp(a, b)
        M.triangle_cmp(a, b)
        M.min_type_cmp(x, y)
        M.irreducible_decomposition(a)
        M.components_by_support(a)
        M.is_bad_sequence([a, b])

    # -- checks ----------------------------------------------------------

    def _check_mintype(self, oracles, a, b, res):
        """min_type_cmp against the oracle's polynomials, then the
        triangle order on a tie; antisymmetry follows from both."""
        why = _check_superset_first(a, b, res)
        if why:
            return why
        for e in (a, b):
            if e.gens not in oracles:
                oracles[e.gens] = O.HilbertOracle(list(e.gens), e.dim)
        want = O.poly_cmp(oracles[a.gens], oracles[b.gens])
        if want == 0:
            want = self.M.triangle_cmp(a, b)
        return None if res == want else f"min_type_cmp {res}, want {want}"

    @staticmethod
    def _check_cmp(cmp, a, b, res):
        why = _check_superset_first(a, b, res)
        if why:
            return why
        if a.gens != b.gens and cmp(b, a) != -res:
            return "comparison is not antisymmetric"
        return None


def _check_superset_first(a, b, res):
    if res not in (-1, 0, 1):
        return f"comparison returned {res!r}"
    if a.gens == b.gens:
        return None if res == 0 else "equal ideals compare unequal"
    if O.contains(a.gens, b.gens) and res != -1:
        return "a strict superset does not come first"
    if O.contains(b.gens, a.gens) and res != 1:
        return "a strict subset does not come last"
    if res == 0:
        return "different ideals compare equal"
    return None


def _check_sorted(xs):
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[i].gens != xs[j].gens and O.contains(xs[j].gens, xs[i].gens):
                return f"sorted position {j} strictly contains position {i}"
    return None


def _check_decomp(res):
    e, comps, grouped = res
    comps = [tuple(nu) for nu in comps]
    if not O.same_ideal_as_intersection(e.gens, comps, e.dim):
        return "the components do not intersect to the ideal"
    for nu in comps:
        for mu in comps:
            if mu != nu and all(0 < x <= y for x, y in zip(nu, mu) if y):
                return f"component {nu} is redundant"
    regroup = {}
    for nu in comps:
        s = tuple(i for i, x in enumerate(nu) if x)
        regroup.setdefault(s, set()).add(tuple(nu[i] for i in s))
    if {s: set(v) for s, v in grouped.items()} != regroup:
        return "components_by_support disagrees with the decomposition"
    return None


def _check_bad(seq, res):
    witness = O.bad_witness([e.gens for e in seq])
    if res.bad != (witness is None) or (witness and res.witness != witness):
        return f"is_bad_sequence says {res}, expected witness {witness}"
    return None
