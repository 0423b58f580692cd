"""cli-mix: every subcommand as its own process, on seeded ideal files.

This is the only workload that pays for interpreter start, argparse,
file parsing and output.  One child runs at a time (``python -m
monord.cli``, from the checkout's ``src``), under the per-op cap and an
address-space limit of its own.  Each child's stdout is compared with
the library's answer for the same input, computed in this process after
the round.

Once per run, the ROADMAP rows (``hilbert`` on 12 generators and the
start floor, ``bounds 2``) and the "Fix first" CLI defects run too:
JSON exponents ``true``/``false``, ``{"dim": "2"}``, an ordinal nested
600 deep, ``hilbert`` on (x1^1000000, x2, x3), and two ``chainbound``
cases whose memory grows past any budget.
"""

from __future__ import annotations

import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import oracles as O
from harness import (Failed, Workload as Base, digest_stats, module_of,
                     peak_rss_mb, same)

NAME = "cli-mix"
CLI_CAP_S = 4.0
CHILD_AS_MB = 64         # address-space limit of each child
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

ROWS = {
    "cli_hilbert_12gens": ("CLI hilbert, 12 gens", 2.5),
    "cli_start_floor": ("CLI start floor (bounds 2)", 0.14),
    "true_false_exponents": ("normalize: JSON true/false exponents", None),
    "dim_string": ('normalize: {"dim": "2"}', None),
    "ordinal_600_deep": ("ordinal-eval: nested 600 deep", None),
    "hilbert_x1^1000000": ("hilbert (x1^1000000, x2, x3): past 30 s", 30.0),
    "chainbound_m2_50,3": ("chainbound --m 2 --affine 50,3: OOM after 8 min",
                           480.0),
    "chainbound_m3_3,1": ("chainbound --m 3 --affine 3,1 --budget 100",
                          None),
}


def _limit_child():
    limit = CHILD_AS_MB * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MONORD_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


class Workload(Base):
    cap_s = CLI_CAP_S
    guard = False            # the children carry their own limit
    worker = False           # the children are the processes measured
    rounds_per_s = 0.4
    rows = ROWS

    def __init__(self, M, seed):
        super().__init__(M, seed)
        self.dir = os.path.join(WORK, f"cli-{seed}-{os.getpid()}")
        self.env = _env()
        self.profiles = None     # directory for child profiles when traced

    def peak_rss_mb(self):
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    # -- inputs ----------------------------------------------------------

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def make_inputs(self, r):
        rng = gen.rng_for(self.seed, NAME, r)
        os.makedirs(self.dir, exist_ok=True)
        ideals = {
            "a": (3, gen.antichain(rng, 3, rng.randint(5, 9), 2, 6)),
            "b": (3, gen.antichain(rng, 3, rng.randint(5, 9), 2, 6)),
            "c": (3, gen.antichain(rng, 3, rng.randint(5, 9), 2, 6)),
            "s1": (2, gen.antichain(rng, 2, rng.randint(2, 5), 1, 6)),
            "s2": (2, gen.antichain(rng, 2, rng.randint(2, 5), 1, 6)),
            "h": (rng.choice((2, 3)), None),
            "d": (4, gen.antichain(rng, 4, rng.randint(6, 12), 2, 5)),
            "l": (2, gen.antichain(rng, 2, rng.randint(2, 4), 1, 5)),
        }
        m = ideals["h"][0]
        ideals["h"] = (m, gen.antichain(rng, m, rng.randint(3, 6), 1, 4))
        files = {}               # one set per round: the passes rerun rounds
        for key, (m, gens) in ideals.items():
            if key == "b":
                text = json.dumps({"dim": m, "gens": [list(g) for g in gens]})
                files[key] = self._write(f"{r}-{key}.json", text)
            else:
                files[key] = self._write(f"{r}-{key}.ideal",
                                         _ideal_text(rng, m, gens))
        extra = {
            "point": tuple(rng.randint(0, 6) for _ in range(3)),
            "lex_degree": max(sum(g) for g in ideals["l"][1]) + rng.randint(0, 2),
            "affine": (rng.randint(1, 8), rng.randint(0, 1)),
            "tm": (rng.randint(0, 2), 0),
            "bounds_m": rng.randint(1, 8),
            "ords": [O.ord_text(gen.ordinal(rng, 2)) for _ in range(5)],
        }
        self.fingerprint.add((r, ideals, extra))
        return ideals, files, extra

    def row_inputs(self):
        rng = gen.rng_for(self.seed, NAME, "rows")
        os.makedirs(self.dir, exist_ok=True)
        h12 = gen.layer(rng, 3, 12, 6)
        self.fingerprint.add(h12)
        return {
            "h12": self._write("h12.ideal", _ideal_text(rng, 3, h12)),
            "tf": self._write("true_false.json",
                              '{"dim": 2, "gens": [[true, false], [0, 2]]}'),
            "dim": self._write("dim_string.json",
                               '{"dim": "2", "gens": [[1, 2]]}'),
            "big": self._write("big.ideal", "dim 3\nx1^1000000\nx2\nx3\n"),
        }

    # -- ops -------------------------------------------------------------

    def _child(self, args, codes):
        """One CLI invocation; a code outside ``codes``, a traceback or a
        signal fails the op."""
        cmd = [sys.executable]
        if self.profiles is not None:
            self._n_prof += 1
            prof = os.path.join(self.profiles, f"{self._n_prof}.prof")
            cmd += [os.path.join(HERE, "cliprof.py"), prof, "--"]
        else:
            prof = None
            cmd += ["-m", "monord.cli"]
        proc = subprocess.Popen(cmd + args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                env=self.env, preexec_fn=_limit_child)
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        rc = proc.returncode
        if rc < 0:
            raise Failed("killed", f"signal {-rc}")
        if "MemoryError" in err:
            raise Failed("memory", err[-200:])
        if rc not in codes or "Traceback" in err:
            raise Failed("exit", f"exit {rc}: {err[-200:]}")
        if prof is not None:
            self._last_profile = prof
        return rc, out, err

    def _op(self, run, kind, args, codes=(0,), check=None, row=None,
            defect=False):
        self._last_profile = None
        res = run.op(kind, self._child, args, codes, check=check, row=row,
                     defect=defect)
        if self._last_profile is not None:
            counters = _child_counters(self._last_profile)
            rec = run.records[-1]
            rec.counters = dict(rec.counters or {})
            for k, v in counters.items():
                rec.counters[k] = rec.counters.get(k, 0) + v
        return res

    def round(self, r):
        M = self.M
        ideals, files, extra = self.inputs(r)
        load = {k: M.normalize(m, gens) for k, (m, gens) in ideals.items()}
        a, b, c = load["a"], load["b"], load["c"]
        steps = []

        def add(kind, args, check, codes=(0,)):
            steps.append((kind, lambda run: self._op(
                run, kind, args, codes, check=check)))

        add("normalize", ["normalize", files["a"]],
            lambda res: same(res[1], _format_ideal(a), "normalize"))
        add("normalize", ["normalize", "--json", files["b"]],
            lambda res: same(json.loads(res[1]), _ideal_json(b), "normalize"))
        v = extra["point"]
        add("contains", ["contains", "--json", files["a"],
                         " ".join(map(str, v))],
            lambda res: same(json.loads(res[1]),
                              {"contains": a.contains(v)}, "contains"))
        for order, x, y, fx, fy in (("kb", a, b, "a", "b"),
                                    ("triangle", a, c, "a", "c"),
                                    ("mintype", load["s1"], load["s2"],
                                     "s1", "s2")):
            cmp = {"kb": M.kb_cmp, "triangle": M.triangle_cmp,
                   "mintype": M.min_type_cmp}[order]
            add("compare", ["compare", "--order", order, files[fx], files[fy]],
                lambda res, cmp=cmp, x=x, y=y: _check_compare(cmp, x, y, res),
                codes=(10, 11, 12))
        h = load["h"]
        add("hilbert", ["hilbert", "--json", files["h"]],
            lambda res: same(json.loads(res[1]), self._hilbert_payload(h),
                              "hilbert"))
        d = load["d"]
        add("decompose", ["decompose", "--json", files["d"]],
            lambda res: same(json.loads(res[1])["components"],
                              [list(nu) for nu in
                               M.irreducible_decomposition(d)], "decompose"))
        deg = extra["lex_degree"]
        lex_code, lex_want = self._lexify(load["l"], deg)
        add("lexify", ["lexify", "--json", files["l"], "--degree", str(deg)],
            lambda res: None if lex_code == 65 else same(
                json.loads(res[1]), lex_want, "lexify"), codes=(lex_code,))
        add("cone", ["cone", "--json", files["a"]],
            lambda res: same(json.loads(res[1]), _ideal_json(M.cone(a)),
                              "cone"))
        add("directsum", ["directsum", "--json", files["a"], files["c"]],
            lambda res: same(json.loads(res[1]),
                              _ideal_json(M.direct_sum(a, c)), "directsum"))
        p, q = extra["affine"]
        add("chainbound", ["chainbound", "--json", "--m", "2", "--affine",
                           f"{p},{q}"],
            lambda res: same(json.loads(res[1]),
                              {"value": str(O.ell_affine(2, p, q))},
                              "chainbound"))
        tp, tq = extra["tm"]
        add("chainbound", ["chainbound", "--json", "--tm", "--m", "2",
                           "--affine", f"{tp},{tq}"],
            lambda res: same(json.loads(res[1]), {"value": str(
                O.ell_generic(2, lambda i: O.h_bound(tp + i * tq, 2)))},
                "chainbound --tm"))
        bm = extra["bounds_m"]
        add("bounds", ["bounds", "--json", str(bm)],
            lambda res: same(json.loads(res[1]), O.bounds_expected(bm),
                              "bounds"))
        x, y, *rest = extra["ords"]
        for op, fn in (("sum", M.nat_sum), ("prod", M.nat_prod)):
            add("ordinal-eval", ["ordinal-eval", "--json", "--op", op, x, y],
                lambda res, fn=fn: same(json.loads(res[1]), {
                    "ordinal": M.format_ordinal(fn(M.parse_ordinal(x),
                                                   M.parse_ordinal(y)))},
                    "ordinal-eval"))
        add("ordinal-eval", ["ordinal-eval", "--json"] + rest,
            lambda res: same(json.loads(res[1]), {"ordinals": [
                M.format_ordinal(M.parse_ordinal(t)) for t in rest]},
                "ordinal-eval"))
        return steps

    def row_steps(self):
        """The ROADMAP rows and the CLI defect cases, once per run."""
        M = self.M
        rows = self.row_inputs()
        steps = []

        def add(row, args, codes=(0,), check=None, defect=True):
            kind = args[0]
            steps.append((row, lambda run: self._op(
                run, kind, args, codes, check=check, row=row, defect=defect)))

        h12 = rows["h12"]
        add("cli_hilbert_12gens", ["hilbert", "--json", h12],
            check=lambda res: same(json.loads(res[1]), self._hilbert_payload(
                _load(h12)), "hilbert"), defect=False)
        add("cli_start_floor", ["bounds", "2"], check=lambda res: same(
            res[1], "".join(f"{k} = {v}\n" for k, v in
                            O.bounds_expected(2).items()), "bounds"),
            defect=False)
        add("true_false_exponents", ["normalize", rows["tf"]], codes=(65,))
        add("dim_string", ["normalize", rows["dim"]], codes=(65,),
            check=lambda res: None if "dim" in res[2].lower() else
            f"message does not name the dimension: {res[2].strip()!r}")
        deep = "w^(" * 600 + "1" + ")" * 600
        want = O.ONE
        for _ in range(600):
            want = O.omega_pow(want)
        add("ordinal_600_deep", ["ordinal-eval", deep], codes=(0, 65),
            check=lambda res: None if res[0] == 65 else same(
                res[1].strip(), O.ord_text(want), "deep ordinal"))
        big = rows["big"]
        add("hilbert_x1^1000000", ["hilbert", "--json", big],
            check=lambda res: self._check_big(big, res))
        add("chainbound_m2_50,3", ["chainbound", "--json", "--m", "2",
                                   "--affine", "50,3"], codes=(0, 69),
            check=lambda res: None if res[0] == 69 else same(
                json.loads(res[1]), {"value": str(O.ell_affine(2, 50, 3))},
                "chainbound"))
        add("chainbound_m3_3,1", ["chainbound", "--json", "--m", "3",
                                  "--affine", "3,1", "--budget", "100"],
            codes=(0, 69), check=lambda res: None if res[0] == 69 else same(
                json.loads(res[1]), {"value": str(O.ell_affine(3, 3, 1))},
                "chainbound"))
        return steps

    def warmup(self):
        """Write round 0's files and run one child, so the bytecode cache
        exists before timing starts."""
        self.inputs(0)
        proc = subprocess.run([sys.executable, "-m", "monord.cli", "bounds",
                               "2"], capture_output=True, text=True, cwd=ROOT,
                              env=self.env, preexec_fn=_limit_child,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"monord CLI does not start: {proc.stderr}")

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        if self.profiles is not None:
            shutil.rmtree(self.profiles, ignore_errors=True)

    # -- tracing -----------------------------------------------------------

    def start_tracing(self):
        self.profiles = os.path.join(self.dir, "profiles")
        os.makedirs(self.profiles, exist_ok=True)
        self._n_prof = 0

    def trace_extra(self, runner):
        """Start-up costs of a child, measured apart from the ops."""
        floor = [self._time_child(["-c", "pass"]) for _ in range(5)]
        imports = []
        for _ in range(5):
            out = subprocess.run(
                [sys.executable, "-c", "import time; t = time.perf_counter(); "
                 "import monord.cli; print(time.perf_counter() - t)"],
                capture_output=True, text=True, cwd=ROOT, env=self.env,
                preexec_fn=_limit_child, timeout=60).stdout
            imports.append(float(out))
        return {"cli.interp_floor_s": statistics.median(floor),
                "cli.import_s": statistics.median(imports)}

    def _time_child(self, args):
        t = time.perf_counter()
        subprocess.run([sys.executable] + args, cwd=ROOT, env=self.env,
                       preexec_fn=_limit_child, timeout=60, check=True)
        return time.perf_counter() - t

    # -- library answers ---------------------------------------------------

    def _hilbert_payload(self, e):
        M = self.M
        p, t = M.hilbert_samuel_poly(e)
        window = t + 2 * e.dim
        prof = M.hilbert_profile(e)
        return {
            "H": [M.hilbert_fn(e, n) for n in range(window + 1)],
            "h": [M.hilbert_samuel_fn(e, s) for s in range(window + 1)],
            "p": list(p.coeffs), "threshold": t,
            "c": list(prof.c) if prof.c is not None else None,
            "psi": M.format_ordinal(prof.psi), "phi": prof.phi,
            "n0": prof.n0, "height": M.format_ordinal(M.height(e)),
        }

    def _check_big(self, path, res):
        """Only the fields that stay cheap for the library to compute."""
        M = self.M
        e = _load(path)
        p, t = M.hilbert_samuel_poly(e)
        got = json.loads(res[1])
        return same({k: got[k] for k in ("p", "threshold", "psi")},
                     {"p": list(p.coeffs), "threshold": t,
                      "psi": M.format_ordinal(M.psi_ideal(e))}, "hilbert")

    def _lexify(self, e, degree):
        try:
            return 0, _ideal_json(self.M.lex_segment_ideal(e, degree))
        except self.M.DataError:
            return 65, None


# -- helpers -----------------------------------------------------------------

def _ideal_text(rng, m, gens):
    """The ideal file format, generators written as tuples or monomials."""
    lines = ["# seeded ideal", f"dim {m}"]
    for g in gens:
        if rng.random() < 0.5 and any(g):
            lines.append("*".join(f"x{i + 1}" + (f"^{x}" if x > 1 else "")
                                  for i, x in enumerate(g) if x))
        else:
            lines.append(" ".join(map(str, g)))
    return "\n".join(lines) + "\n"


def _load(path):
    from monord.cli import load_ideal
    return load_ideal(path)


def _format_ideal(e):
    return "\n".join([f"dim {e.dim}"] + [" ".join(map(str, g))
                                         for g in e.gens]) + "\n"


def _ideal_json(e):
    return {"dim": e.dim, "gens": [list(g) for g in e.gens]}


def _check_compare(cmp, x, y, res):
    c = cmp(x, y)
    want_code = {-1: 10, 0: 11, 1: 12}[c]
    word = {-1: "less", 0: "equal", 1: "greater"}[c]
    if res[0] != want_code or json.loads(res[1]).get("result") != word:
        return f"compare: exit {res[0]}, want {want_code} ({word})"
    return None


PARSE_FUNCS = (("cli", "build_parser"), ("cli", "load_ideal"),
               ("cli", "parse_point"), ("ordinal", "parse_ordinal"))
# callers whose time already counts as parsing
PARSE_INNER = ("build_parser", "load_ideal", "parse_ideal_text", "parse_point")


def _child_counters(path):
    """Module self times and call counts of one profiled child, plus the
    time its CLI spent parsing (argparse, reading and normalizing input
    files, points, ordinals) and emitting (``_emit`` and direct prints)."""
    src_dir = os.path.realpath(SRC) + os.sep
    stats = pstats.Stats(path).stats
    out = digest_stats(stats, src_dir)
    parse = emit = 0.0
    for (fname, _line, func), (_cc, _nc, _tt, ct, callers) in stats.items():
        module = module_of(fname, src_dir)
        if (module, func) in PARSE_FUNCS:
            parse += sum(v[3] for k, v in callers.items()
                         if k[2] not in PARSE_INNER)
        elif func == "parse_args" and fname.endswith("argparse.py"):
            parse += sum(v[3] for k, v in callers.items()
                         if module_of(k[0], src_dir) == "cli")
        elif module == "cli" and func == "_emit":
            emit += ct
        elif func == "<built-in method builtins.print>":
            emit += sum(v[3] for k, v in callers.items()
                        if module_of(k[0], src_dir) == "cli"
                        and k[2] != "_emit")
    out["cli.parse_s"] = parse
    out["cli.emit_s"] = emit
    return out
