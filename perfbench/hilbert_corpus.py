"""hilbert-corpus: the Hilbert layer on distinct ideals, both sides of the
``max_gens=16`` switch between inclusion-exclusion and slice counting.

Each round draws fresh ideals for m = 3..6: four generator counts at or
below 16 (inclusion-exclusion, up to 2^12 subsets) and two above (slice
counting, 17 and 40 generators).  Each ideal gets two ops:

* ``poly``: hilbert_samuel_poly, psi_poly, canonical_decomposition and
  realize_poly;
* ``n0``: stability_index, except at WIDE_IE generators.

On the inclusion-exclusion side the corpus keeps phi(p_E) <= PHI_MAX,
because the n0 scan runs past phi and the cost of that is what the
``n0_heavy`` row measures on its own.  Above 16 generators
stability_index refuses with BudgetExceeded whatever phi is; that refusal
is a failed op (the ideal is valid and n0 exists).  Inclusion-exclusion
stops at 12 generators in the timed mix, and n0 at 9: at 11 and 12
generators n0 takes from 0.3 s to past 1 s, and at 14 and more
hilbert_samuel_poly takes from 0.5 s to past 2 s, across the 0.7 s cap,
so whether such an op fails would change from run to run.  The rows time
14, 16 and 17 generators.

The inclusion-exclusion counts are 7, 8 and 9, a factor of two apart in
cost, so that the op latencies have no gap near their median; with 5, 7
and 9 the median fell in a gap between two groups of ops and moved by a
fifth from seed to seed.
"""

from __future__ import annotations

import math

import gen
import oracles as O
from harness import Workload as Base

NAME = "hilbert-corpus"
IE_COUNTS = (7, 8, 9)
WIDE_IE = 12             # a poly op only: its n0 scan straddles the cap
SLICE_COUNTS = (17, 40)
# (lowest degree, highest degree, pure power) of the inclusion-exclusion side
MIXED = {3: (2, 5, 6), 4: (2, 4, 0), 5: (1, 3, 0), 6: (1, 3, 0)}
PHI_MAX = 150
HEAVY_PHI = 10_000

# ROADMAP Direction 1 baseline rows: name -> (ROADMAP figure, seconds)
ROWS = {
    "hsp_m3_14gens": ("hilbert_samuel_poly, m=3, 14 gens", 0.47),
    "hsp_m3_16gens": ("hilbert_samuel_poly, m=3, 16 gens", 1.83),
    "hsp_m3_17gens": ("hilbert_samuel_poly, m=3, 17 gens (slice fallback)",
                      0.014),
    "profile_m3_16gens": ("hilbert_profile, m=3, 16 gens", 18.8),
    "n0_m6_heavy": ("stability_index, m=6, 8 gens, phi >= 1e4 "
                    "(did not finish when measured)", None),
}


class Workload(Base):
    rounds_per_s = 0.6
    rows = ROWS

    # -- inputs ----------------------------------------------------------

    def _pick(self, rng, m, k, side):
        """A random ideal of exactly k generators and its oracle; phi <=
        PHI_MAX where n0 runs.  Inclusion-exclusion costs 2^k, so an ideal
        that came out a generator or two short would cost a fraction of
        its class and make the op mix depend on the seed."""
        while True:
            if side == "ie":
                lo, hi, pure = MIXED[m]
                gens = gen.antichain(rng, m, k, lo, hi, pure)
                if len(gens) != k:
                    continue
            else:
                gens = gen.layer(rng, m, k, _layer_degree(m, k))
            o = O.HilbertOracle(gens, m)
            if o.phi is not None and (side == "slice" or o.phi <= PHI_MAX):
                return gens, o

    def shared(self, rounds):
        """The corpus and the rows without their oracles."""
        out = {r: [(m, g, None, n0) for m, g, _, n0 in inp]
               for r, inp in super().shared(rounds).items()}
        out["rows"] = {name: (m, g, None) for name, (m, g, _)
                       in self.inputs("rows").items()}
        return out

    def make_inputs(self, r):
        if r == "rows":
            return self._row_inputs()
        rng = gen.rng_for(self.seed, NAME, r)
        corpus = []
        for m in (3, 4, 5, 6):
            for side, counts in (("ie", IE_COUNTS + (WIDE_IE,)),
                                 ("slice", SLICE_COUNTS)):
                for k in counts:
                    gens, o = self._pick(rng, m, k, side)
                    corpus.append((m, gens, o, k != WIDE_IE))
        self.fingerprint.add((r, [(m, g) for m, g, _, _ in corpus]))
        return corpus

    def _row_inputs(self):
        rng = gen.rng_for(self.seed, NAME, "rows")
        rows = {}
        for k in (14, 16, 17):
            gens = gen.layer(rng, 3, k, 6)
            rows[f"hsp_m3_{k}gens"] = (3, gens, O.HilbertOracle(gens, 3))
        rows["profile_m3_16gens"] = (3, gen.layer(rng, 3, 16, 6), None)
        while True:
            gens = gen.antichain(rng, 6, 8, 2, 4)
            if len(gens) == 8 and (O.HilbertOracle(gens, 6).phi or 0) >= HEAVY_PHI:
                break
        rows["n0_m6_heavy"] = (6, gens, None)
        self.fingerprint.add({k: v[1] for k, v in rows.items()})
        return rows

    # -- ops -------------------------------------------------------------

    def round(self, r):
        M = self.M
        corpus = self.inputs(r)
        steps = []
        for m, gens, o, n0 in corpus:
            e = M.normalize(m, gens)
            steps.append(("poly", lambda run, e=e, o=o: run.op(
                "poly", self._poly, run, e, check=lambda res, o=o:
                self._check_poly(o, res))))
            if n0:
                steps.append(("n0", lambda run, e=e, o=o: run.op(
                    "n0", run.call, "stability_index", M.stability_index, e,
                    check=lambda res, o=o: self._check_n0(o, res))))
        return steps

    def row_steps(self):
        """The ROADMAP rows and the heavy n0 case, once per run."""
        M = self.M
        rows = self.inputs("rows")
        steps = []
        for name in ("hsp_m3_14gens", "hsp_m3_16gens", "hsp_m3_17gens"):
            m, gens, o = rows[name]
            e = M.normalize(m, gens)
            steps.append((name, lambda run, e=e, o=o, name=name: run.op(
                "hsp", run.call, "hilbert_samuel_poly", M.hilbert_samuel_poly,
                e, row=name, check=lambda res, o=o: _check_p(o, *res))))
        m, gens, _ = rows["profile_m3_16gens"]
        e = M.normalize(m, gens)
        steps.append(("profile", lambda run, e=e: run.op(
            "profile", run.call, "hilbert_profile", M.hilbert_profile, e,
            row="profile_m3_16gens", check=lambda res, e=e:
            self._check_profile(e, res))))
        m, gens, _ = rows["n0_m6_heavy"]
        e = M.normalize(m, gens)
        steps.append(("n0_heavy", lambda run, e=e: run.op(
            "n0", run.call, "stability_index", M.stability_index, e,
            row="n0_m6_heavy", check=lambda res, e=e:
            self._check_n0(O.HilbertOracle(list(e.gens), 6), res))))
        return steps

    def _poly(self, run, e):
        M, m = self.M, e.dim
        p, t = run.call("hilbert_samuel_poly", M.hilbert_samuel_poly, e)
        psi = run.call("psi_poly", M.psi_poly, p, m)
        seq = run.call("canonical_decomposition", M.canonical_decomposition,
                       p, m)
        ideal = run.call("realize_poly", M.realize_poly, p, m)
        return p, t, psi, seq, ideal

    def warmup(self):
        """Run the first ideal's ops once, untimed, so that every code
        path the round uses has been executed before timing starts."""
        m, gens, _, _ = self.inputs(0)[0]
        e = self.M.normalize(m, gens)
        self._poly(_Direct(), e)
        self.M.stability_index(e)

    # -- checks (untimed, independent of the timed calls) ----------------

    def _check_poly(self, o, res):
        p, t, psi, seq, ideal = res
        why = _check_p(o, p, t)
        if why:
            return why
        m = o.m
        want_psi = tuple((O.ord_of_int(m - 1 - i), c)
                         for i, c in enumerate(o.c) if c)
        if O.from_lib(psi) != want_psi:
            return f"psi {psi} != c {o.c}"
        want_seq = [m - 1 - i for i, c in enumerate(o.c) for _ in range(c)]
        if list(seq) != want_seq:
            return "canonical decomposition differs from the oracle's"
        if self.M.poly_from_a_sequence(seq) != p:
            return "poly_from_a_sequence does not rebuild p"
        hs = [o.counter.H(n) for n in range(t + 2)]
        if not self.M.is_osequence(hs, m).ok:
            return "H prefix is not an O-sequence"
        real = O.Counter(list(ideal.gens), m)
        tr = O.threshold(real.gens)
        for s in range(tr, tr + m + 1):
            if real.h(s) != o.p(s):
                return f"realize_poly: h({s}) = {real.h(s)} != p = {o.p(s)}"
        return None

    def _check_n0(self, o, res):
        n0, window, _certified = res
        if n0 < 1 or window < o.t + 1:
            return f"n0 {n0} window {window} out of range"
        top = min(window, o.t + o.m + 4)
        hs = [o.counter.H(n) for n in range(top + 2)]
        for n in range(1, top):
            grows = hs[n + 1] == O.macaulay_next(hs[n], n)
            if n >= n0 and not grows:
                return f"H({n + 1}) breaks Macaulay growth past n0={n0}"
            if n == n0 - 1 and grows:
                return f"n0={n0} is not the least index"
        return None

    def _check_profile(self, e, prof):
        o = O.HilbertOracle(list(e.gens), e.dim)
        return _check_p(o, prof.p, prof.threshold) or self._check_n0(
            o, (prof.n0, o.t + e.dim + 8, True))


def _layer_degree(m, k):
    """The lowest degree whose layer has room for k points and 15% more
    again, so that the draw stays random."""
    d = 1
    while math.comb(d + m - 1, m - 1) < 1.15 * k:
        d += 1
    return d


def _check_p(o, p, t):
    if t != o.t:
        return f"threshold {t} != {o.t}"
    for s in range(t, t + o.m + 1):
        if O.eval_binomial_basis(p.coeffs, s) != o.counter.h(s):
            return f"p({s}) differs from the lattice count"
    return None


class _Direct:
    """A stand-in runner for untimed calls."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)
