"""Op runner, resource limits, statistics and tracing shared by the workloads.

An *op* is one call into monord's public API (or one CLI invocation, see
``cli_mix``).  Every op runs under a wall-clock cap enforced with
``ITIMER_REAL`` and, while a round runs, under an address-space guard set
with ``RLIMIT_AS`` on the process that runs it.  Answers are checked after
the round, outside the timed region, by code that does not reuse the timed
call.  Ops are timed in passes (see ``run.py``) and checked afterwards,
through :class:`Replay`; :func:`best_of` gives each op the least latency
of the passes.

Every latency is also scaled to a reference speed of the machine
(:class:`Speed`): a fixed spin loop is timed every CALIB_EVERY_S around
the ops, and an op's scale is REF_SPIN_S over the median spin time of
the samples nearest to it.
"""

from __future__ import annotations

import bisect
import cProfile
import gc
import hashlib
import os
import pickle
import resource
import signal
import statistics
import time

from gen import Fingerprint

LIB_CAP_S = 0.7          # per-op wall cap for library ops
GUARD_MB = 24            # address space an op may add before MemoryError
RESERVE_BYTES = 1 << 20  # of which an op holds this back for its own ending
TAIL_BEYOND = 10         # samples the tail percentile must leave beyond it
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)
SPIN_STEPS = 2000        # iterations of the spin loop
REF_SPIN_S = 0.00025     # its time at the reference speed (see METRICS.md)
CALIB_EVERY_S = 0.05     # least time between two spin samples during ops
CALIB_NEAR = 6           # samples around an op that set its scale

# Statuses.  "ok" and "expected" (an expected MonordError) count as
# completed; every other status is a failed op.
COMPLETED = ("ok", "expected")


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM; a BaseException so that no
    ``except Exception`` inside the library can swallow it."""


class Failed(Exception):
    """Raised by an op body that saw a failure of its own kind (a CLI
    child that exited with a wrong code or was killed, say)."""

    def __init__(self, status, detail=""):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Abort(Exception):
    """Raised out of :meth:`Runner.op` when an op fails inside a step
    (a sort, say) that cannot go on without its answer."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _mix(acc, i):
    return (acc * 31 + i) % 1000003


def spin():
    """Fixed interpreter work: calls, branches and small-int arithmetic.
    It allocates nothing that the garbage collector tracks, so what monord
    leaves in memory does not change its time."""
    acc = 0
    for i in range(SPIN_STEPS):
        acc = _mix(acc, i)
        if acc & 1:
            acc ^= i
    return acc


class Speed:
    """Samples of the spin loop's time, which tell how fast the machine
    runs interpreter code at each moment.  On a shared host the same code
    runs at speeds up to 1.7 times apart, each lasting from seconds to
    about a minute; an op's latency times its :meth:`scale` is what it
    would have taken at the reference speed."""

    def __init__(self):
        self.times = []          # start of each sample, perf_counter
        self.spins = []          # its duration

    def sample(self, n=1):
        for _ in range(n):
            t = time.perf_counter()
            spin()
            self.times.append(t)
            self.spins.append(time.perf_counter() - t)

    def due(self):
        """Sample if the last sample is more than CALIB_EVERY_S old."""
        if not self.times or (time.perf_counter() - self.times[-1]
                              >= CALIB_EVERY_S):
            self.sample()

    def scale(self, t):
        """REF_SPIN_S over the median of the CALIB_NEAR samples around
        time ``t``, half before it and half after."""
        i = bisect.bisect(self.times, t)
        half = CALIB_NEAR // 2
        near = self.spins[max(0, i - half):i + half]
        return REF_SPIN_S / statistics.median(near)


def vsize_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()


class Record:
    """One op: what ran, how long it took, how it ended."""

    __slots__ = ("op_id", "kind", "row", "defect", "latency", "status",
                 "detail", "counters", "poly_keys", "result", "start",
                 "scale")

    def __init__(self, op_id, kind, row, defect):
        self.op_id = op_id
        self.kind = kind
        self.row = row
        self.defect = defect
        self.latency = 0.0
        self.status = "ok"
        self.detail = ""
        self.counters = None
        self.poly_keys = None
        self.result = None
        self.start = 0.0
        self.scale = 1.0         # see Speed

    @property
    def completed(self):
        return self.status in COMPLETED

    @property
    def scaled(self):
        """The latency at the reference speed."""
        return self.latency * self.scale


class Runner:
    """Runs ops one at a time (a closed loop with one client) and keeps a
    record of each.

    ``defect=True`` marks a known-defect input from ROADMAP "Fix first":
    it is expected to fail today, so its wrong answer is counted as a
    failed op but does not make the run incorrect.
    """

    def __init__(self, cap_s, tracer=None, checks=True, speed=None):
        self.cap_s = cap_s
        self.tracer = tracer
        self.checks = checks     # False in a worker: results go to the parent
        self.speed = speed       # a Speed, to scale latencies by
        self.records = []
        self.pending = []        # (record, check, result) awaiting checks
        self.wrong = []          # records rejected by a check, not defects
        self._step = None
        signal.signal(signal.SIGALRM, _on_alarm)

    # -- ops -------------------------------------------------------------

    def op(self, kind, fn, *args, check=None, expect=(), row=None,
           defect=False):
        rec = Record(len(self.records), kind, row, defect)
        self.records.append(rec)
        tr = self.tracer
        if tr is not None:
            tr.begin_op(rec, self._step)
        result = t1 = None
        if self.speed is not None:
            self.speed.due()
        # freed first when the op ends: an op stopped by the guard has
        # filled the address space, and ending it needs room to allocate
        reserve = bytearray(RESERVE_BYTES)
        signal.setitimer(signal.ITIMER_REAL, self.cap_s)
        t0 = rec.start = time.perf_counter()
        try:
            try:
                result = fn(*args)
                t1 = time.perf_counter()
            finally:
                del reserve
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            rec.status = "timeout"
        except MemoryError:
            rec.status = "memory"
        except expect as exc:
            rec.status = "expected"
            result = (type(exc).__name__, str(exc))
        except Failed as exc:
            rec.status = exc.status
            rec.detail = exc.detail
        except Exception as exc:  # a crash inside the library is a failed op
            name = type(exc).__name__
            rec.status = "refused" if _is_monord_error(exc) else "error"
            rec.detail = f"{name}: {str(exc)[:120]}"
        rec.latency = (time.perf_counter() if t1 is None else t1) - t0
        if tr is not None:
            tr.end_op(rec)
        return self._settle(rec, check, result)

    def _settle(self, rec, check, result):
        if not rec.completed:
            raise Abort(rec)
        if not self.checks:
            rec.result = result
        elif check is not None:
            self.pending.append((rec, check, result))
        return result

    def call(self, name, fn, *args):
        """A call into a public function inside an op (a child span)."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, args)

    def step(self, name, fn):
        """Run one step of a round; a failed op ends the step."""
        if self.tracer is not None:
            self._step = self.tracer.begin_step(name)
        try:
            fn(self)
        except Abort:
            pass
        finally:
            if self.tracer is not None:
                self.tracer.end_step(self._step)
                self._step = None

    def run_checks(self):
        """Check every pending answer; a rejected answer fails its op."""
        if not self.checks:
            self.pending.clear()
            return
        for rec, check, result in self.pending:
            try:
                why = check(result)
            except Exception as exc:  # unreadable output is a wrong answer
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                self.reject(rec, why)
        self.pending.clear()

    def reject(self, rec, why):
        """Fail an op whose answer is wrong."""
        rec.status = "wrong"
        rec.detail = str(why)[:200]
        if not rec.defect:
            self.wrong.append(rec)


class Replay(Runner):
    """Replays ops that a worker process timed: each op takes the outcome
    the worker sent for it instead of calling its function, so the
    round's steps and checks run here exactly as they ran there."""

    def __init__(self, cap_s):
        super().__init__(cap_s)
        self._outcomes = iter(())

    def feed(self, outcomes):
        """The outcomes of one round, in the order the worker ran them."""
        self._outcomes = iter(outcomes)

    def op(self, kind, fn, *args, check=None, expect=(), row=None,
           defect=False):
        rec = Record(len(self.records), kind, row, defect)
        self.records.append(rec)
        got = next(self._outcomes, None)
        if got is None:
            raise RuntimeError(f"replay out of step: op {rec.op_id} did not "
                               "run in the worker")
        sent, rec.latency, rec.status, rec.detail, result, _, rec.scale = got
        if sent != kind:
            raise RuntimeError(f"replay out of step: op {rec.op_id} ran as "
                               f"{sent} in the worker, {kind} here")
        return self._settle(rec, check, result)

    def left_over(self):
        return sum(1 for _ in self._outcomes)


def outcomes(records, keep, speed):
    """What a pass sends for each op of a round (see :class:`Replay`):
    kind, latency, status, detail, the answer if ``keep``, a digest of the
    answer, by which later passes are compared with the first, and the
    latency's scale from ``speed``."""
    return [(r.kind, r.latency, r.status, r.detail,
             r.result if keep else None,
             hashlib.sha256(pickle.dumps(r.result)).hexdigest(),
             speed.scale(r.start))
            for r in records]


def best_of(first, later):
    """One round's outcomes in the first pass, each op with the least
    latency it took in any pass.

    ``later`` holds the same round's outcomes in the other passes.  A pass
    whose ops did not end as in the first (an op cut by the cap in one
    pass and not in another, say) is left out.  Returns the outcomes, the
    number of passes left out, and the positions of ops whose answer
    differs between passes."""
    best = list(first)
    shape = [(o[0], o[2]) for o in first]
    left_out = 0
    differs = set()
    for outs in later:
        if [(o[0], o[2]) for o in outs] != shape:
            left_out += 1
            continue
        for i, o in enumerate(outs):
            if o[1] * o[6] < best[i][1] * best[i][6]:
                best[i] = first[i][:1] + o[1:4] + first[i][4:6] + o[6:]
            if o[5] != first[i][5]:
                differs.add(i)
    return best, left_out, sorted(differs)


def same(got, want, what):
    return None if got == want else f"{what}: got {got!r:.80}, want {want!r:.80}"


def _is_monord_error(exc):
    return any(c.__name__ == "MonordError" for c in type(exc).__mro__)


# -- workloads -----------------------------------------------------------

class Workload:
    """What every workload has; a workload module subclasses it and adds
    ``make_inputs(r)``, ``round(r)``, ``row_steps()`` and ``warmup()``."""

    cap_s = LIB_CAP_S
    guard = True             # RLIMIT_AS on this process while a round runs
    rounds_per_s = 1.0       # rounds per --seconds (see METRICS.md)
    rows = {}                # ROADMAP rows: name -> (label, seconds)
    worker = True            # time the ops in a worker process

    def __init__(self, M, seed):
        self.M = M
        self.seed = seed
        self.fingerprint = Fingerprint()
        self._inputs = {}

    def inputs(self, key):
        """The inputs of round ``key``, made once by ``make_inputs``."""
        if key not in self._inputs:
            self._inputs[key] = self.make_inputs(key)
        return self._inputs[key]

    def shared(self, rounds):
        """The inputs a worker needs for ``rounds`` rounds: plain data,
        without the oracles that only the checks use."""
        return {r: self.inputs(r) for r in range(rounds)}

    def take(self, inputs):
        """In a worker: use the inputs the parent made."""
        self._inputs.update(inputs)

    def start_tracing(self):
        pass

    def trace_extra(self, runner):
        return {}

    def cleanup(self):
        pass


# -- rounds --------------------------------------------------------------

def run_rounds(runner, make_round, rounds, wall_limit_s, guard=True,
               after=None):
    """Run ``rounds`` whole rounds, stopping early only when the run has
    taken ``wall_limit_s`` in all.

    The amount of work is fixed (rounds times each round's fixed mix of
    ops), so counts and failed shares repeat exactly for one seed, and two
    commits are timed on the same work.  Input generation and answer
    checks happen between rounds and are not timed.  ``after(r, busy_s)``
    runs after each round, untimed.  Returns the timed wall seconds and
    the number of rounds run.
    """
    busy = 0.0
    start = time.perf_counter()
    speed = runner.speed
    r = 0
    while r < rounds and time.perf_counter() - start < wall_limit_s:
        steps = make_round(r)
        # the benchmark's own records and inputs stay out of the collector's
        # scans, so they do not slow the ops as they pile up
        gc.collect()
        gc.freeze()
        if speed is not None:
            speed.sample(CALIB_NEAR // 2)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if guard:
            limit = vsize_bytes() + GUARD_MB * 2 ** 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        try:
            t0 = time.perf_counter()
            for name, fn in steps:
                runner.step(name, fn)
            took = time.perf_counter() - t0
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        if speed is not None:
            speed.sample(CALIB_NEAR // 2)
        busy += took
        runner.run_checks()
        if after is not None:
            after(r, took)
        r += 1
    return busy, r


# -- statistics ----------------------------------------------------------

def tail(latencies):
    """(value, percentile, n): the latency at the highest percentile of
    TAIL_LADDER that leaves at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return xs[min(n - 1, int(n * pct / 100.0))], pct, n
    return xs[n // 2], 50.0, n


def summarize(records, busy_s):
    """The end-to-end figures of a set of records.  The timings cover the
    rounds' ops, which ran ``busy_s`` in all; the once-per-run rows count
    only in ``failed_share``, since one timing of each cannot be steady."""
    done = sum(1 for r in records if r.completed)
    timed = [r for r in records if not r.row]
    lat = [r.scaled for r in timed]
    tail_v, tail_p, n = tail(lat)
    return {
        "attempted": len(records),
        "failed": len(records) - done,
        "ops_per_s": sum(1 for r in timed if r.completed) / busy_s,
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_v,
        "tail_pct": tail_p,
        "samples": n,
        "failed_share": (len(records) - done) / len(records),
    }


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def near_cap(records, cap_s):
    """Ops whose outcome could flip between runs: completed in more than
    half the cap, or failed some other way in the last fifth before it."""
    return [r for r in records
            if (r.completed and r.latency > 0.5 * cap_s)
            or (r.status in ("memory", "error", "refused", "exit", "killed")
                and 0.8 * cap_s < r.latency < cap_s)]


# -- tracing -------------------------------------------------------------

class Tracer:
    """Spans for steps, ops and the public calls inside them, plus cProfile
    statistics per op, attributed to monord's modules by file name.

    Counters are kept per op and summed later over completed ops only,
    so an op cut by the cap or rejected by a check adds nothing.
    """

    def __init__(self, src_dir):
        self.src_dir = os.path.realpath(src_dir) + os.sep
        self.t_origin = time.perf_counter()
        self.spans = []          # [id, parent, op_id, name, start, end]
        self._cur = None         # id of the enclosing span
        self._op_id = None
        self._op_span = None
        self._prof = None
        self.poly_keys = None    # filled by the poly-request recorder

    def _new(self, parent, op_id, name):
        span = [len(self.spans), parent, op_id, name,
                time.perf_counter() - self.t_origin, None]
        self.spans.append(span)
        return span

    def begin_step(self, name):
        span = self._new(None, None, "step:" + name)
        self._cur = span[0]
        return span

    def end_step(self, span):
        span[5] = time.perf_counter() - self.t_origin
        self._cur = None

    def begin_op(self, rec, step_span):
        span = self._new(step_span[0] if step_span else None, rec.op_id,
                         "op:" + rec.kind)
        self._op_span = span
        self._cur = span[0]
        self._op_id = rec.op_id
        self.poly_keys = []
        self._prof = cProfile.Profile()
        self._prof.enable()

    def end_op(self, rec):
        self._prof.disable()
        self._op_span[5] = time.perf_counter() - self.t_origin
        self._cur = self._op_span[1]
        self._op_id = None
        if rec.completed:
            rec.counters = digest(self._prof, self.src_dir)
            rec.poly_keys = self.poly_keys
        self._prof = None
        self.poly_keys = None

    def span(self, name, fn, args):
        span = self._new(self._cur, self._op_id, name)
        outer, self._cur = self._cur, span[0]
        try:
            return fn(*args)
        finally:
            span[5] = time.perf_counter() - self.t_origin
            self._cur = outer


# cProfile entries that the per-layer metrics read: (module, function)
CALL_COUNTS = {
    "hilbert.ie_passes": ("hilbert", "_subset_lcm_degrees"),
    "hilbert.slice_counts": ("hilbert", "complement_count_by_slices"),
    "hilbert.poly_calls": ("hilbert", "hilbert_samuel_poly"),
    "ivpoly.binomial_calls": ("ivpoly", "binomial"),
    "ivpoly.macaulay_rep_calls": ("ivpoly", "macaulay_rep"),
    "monom.divides_calls": ("monom", "divides"),
    "monom.vec_max_calls": ("monom", "vec_max"),
    "ideal.normalize_calls": ("ideal", "normalize"),
    "ideal.slice_last_calls": ("ideal", "slice_last"),
    "chains.ell_frames": ("chains", "_ell"),
    "chains.bound_calls": ("chains", "__call__"),
    "chains.dfs_nodes": ("chains", "dfs"),
    "ordinal.cmp_calls": ("ordinal", "cmp"),
}
CUM_TIMES = {
    "orderings.kb_s": ("orderings", "kb_cmp"),
    "orderings.triangle_s": ("orderings", "triangle_cmp"),
    "orderings.mintype_s": ("orderings", "min_type_cmp"),
}
MODULES = ("monom", "ideal", "hilbert", "ivpoly", "orderings", "chains",
           "ordinal", "cli")


def digest(prof, src_dir):
    """Per-module self time and the selected call counts of one profile."""
    prof.create_stats()
    return digest_stats(prof.stats, src_dir)


def digest_stats(stats, src_dir):
    out = {}
    wanted_calls = {v: k for k, v in CALL_COUNTS.items()}
    wanted_cum = {v: k for k, v in CUM_TIMES.items()}
    for (fname, _line, func), (_cc, nc, tt, ct, _callers) in stats.items():
        module = module_of(fname, src_dir)
        if module is None:
            continue
        key = module + ".self_s"
        out[key] = out.get(key, 0.0) + tt
        name = wanted_calls.get((module, func))
        if name is not None:
            out[name] = out.get(name, 0) + nc
        name = wanted_cum.get((module, func))
        if name is not None:
            out[name] = out.get(name, 0.0) + ct
    return out


def module_of(fname, src_dir):
    if not fname.startswith(src_dir):
        fname = os.path.realpath(fname)
        if not fname.startswith(src_dir):
            return None
    stem = os.path.basename(fname)[:-3]
    return stem if stem in MODULES else None


def add_counters(total, part):
    for k, v in part.items():
        total[k] = total.get(k, 0) + v
    return total


def repeat_share(records):
    """Share of Hilbert-polynomial requests, over completed ops in order,
    for an ideal already requested earlier in the run."""
    seen = set()
    repeats = total = 0
    for r in records:
        if not r.completed or not r.poly_keys:
            continue
        for key in r.poly_keys:
            total += 1
            if key in seen:
                repeats += 1
            seen.add(key)
    return (repeats / total if total else 0.0), total


def install_poly_recorder(monord_pkg, tracer):
    """Wrap hilbert_samuel_poly where monord looks it up, so each request
    records which ideal it was for.  Returns a function that undoes it."""
    hil = monord_pkg.hilbert
    orig = hil.hilbert_samuel_poly
    targets = [m for m in (hil, monord_pkg.orderings, monord_pkg)
               if getattr(m, "hilbert_samuel_poly", None) is orig]

    def recording(e, *args, **kwargs):
        keys = tracer.poly_keys
        if keys is not None:
            keys.append((e.dim, e.gens))
        return orig(e, *args, **kwargs)

    for m in targets:
        m.hilbert_samuel_poly = recording

    def undo():
        for m in targets:
            m.hilbert_samuel_poly = orig
    return undo
