#!/usr/bin/env python3
"""Seeded benchmark for monord.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a monord checkout: monord is imported from ./src
and the CLI children run ``python -m monord.cli`` from there.  Workloads:
hilbert-corpus, order-decompose, chains-ordinals, cli-mix (see
perfbench/METRICS.md for why each exists and what every metric means).

``--trace 0`` measures the end-to-end metrics.  The ops are timed in
PASSES passes over the same rounds, and each op's latency is the least
of its passes, each scaled to a reference speed of the machine (see
``harness.Speed``): on a shared machine whose speed changes for seconds
at a time, that reads the op's own cost rather than the machine's state
while it ran.  The library workloads make their inputs and check the answers in
this process, and time each pass in a fresh worker process (``run.py
--worker``) that holds only monord, the inputs and one round's answers,
so that its peak RSS is monord's and nothing monord keeps in memory
carries from one pass to the next.
``--trace 1`` runs the ROADMAP rows once, then round 0 untraced and round
0 traced (spans and per-op cProfile), in this process, and reports the
per-layer metrics.  Human-readable lines start with ``#``; the last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import copyreg
import gc
import hashlib
import importlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {
    "hilbert-corpus": "hilbert_corpus",
    "order-decompose": "order_decompose",
    "chains-ordinals": "chains_ordinals",
    "cli-mix": "cli_mix",
}
PASSES = 2               # times each op is timed; its latency is the least
SETUP_FIRST = 3          # set-ups timed before each pass's rounds
SETUP_LAST = 2           # and after them, so that one slow second of the
                         # machine does not set the median
CPU_LIMIT_S = 170        # backstop: the kernel stops a run that spins past it
WALL_LIMIT_S = 120       # and a traced pass once it takes this long
TRACE_CAP_FACTOR = 5     # cProfile slows calls up to 4x; the traced pass gets 5x cap


def metric_units(section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def fresh_import():
    """Import monord afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules
                 if n == "monord" or n.startswith("monord.")]:
        del sys.modules[name]
    return importlib.import_module("monord")


def set_up(mod, seed, inputs=None):
    """Import monord afresh, make the workload (from ``inputs`` made
    elsewhere, if given) and warm it up."""
    monord = fresh_import()
    # Ord refuses attribute writes, so pickle rebuilds it from its terms
    copyreg.pickle(monord.Ord, lambda o: (type(o), (o.terms,)))
    wl = mod.Workload(monord, seed)
    if inputs is not None:
        wl.take(inputs)
    wl.warmup()
    return wl


def timed_set_ups(harness, mod, seed, n, inputs=None):
    """The times of ``n`` set-ups at the reference speed, and the last
    workload."""
    reps = []
    speed = harness.Speed()
    half = harness.CALIB_NEAR // 2
    for _ in range(n):
        gc.collect()             # the last set-up's garbage is not this one's
        speed.sample(half)
        t = time.perf_counter()
        wl = set_up(mod, seed, inputs)
        took = time.perf_counter() - t
        speed.sample(half)
        reps.append(took * speed.scale(t))
    return reps, wl


def say(msg):
    print("# " + msg, flush=True)


def main(argv=None):
    if (sys.argv[1:] if argv is None else argv) == ["--worker"]:
        return worker()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "monord", "__init__.py")):
        print(f"error: no monord sources under {SRC}; run from the root of "
              "a monord checkout", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_CPU)
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, hard))
    # one CPU for this process, its worker and its CLI children, so that
    # the spin samples that scale the latencies run where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, SRC)
    monord = fresh_import()
    if not os.path.realpath(monord.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"error: imported monord from {monord.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    mod = importlib.import_module(WORKLOADS[args.workload])
    say(f"workload {args.workload} seed {args.seed} cap "
        f"{mod.Workload.cap_s:g}s guard {harness.GUARD_MB} MB")

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        wl = set_up(mod, args.seed)
    elif mod.Workload.worker:
        wl = mod.Workload(monord, args.seed)   # inputs and checks only
    else:
        first, wl = timed_set_ups(harness, mod, args.seed, SETUP_FIRST)
    try:
        if args.trace:
            metrics, runner = traced(harness, wl, args, units)
        elif mod.Workload.worker:
            metrics, runner = via_worker(harness, wl, args)
        else:
            metrics, runner = in_process(harness, mod, wl, args, first)
    finally:
        wl.cleanup()
    if not args.trace:
        for k, u in units.items():
            say(f"{k:14s} {metrics[k]:.6g} {u}")
    say(f"inputs fingerprint {wl.fingerprint.hexdigest()} "
        f"({wl.fingerprint.items} input sets)")
    report_ops(harness, runner, wl)

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if not r.completed)
    result = {
        "correct": not runner.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def planned_rounds(wl, args):
    """Rounds per pass: all passes together do ``seconds * rounds_per_s``."""
    return max(1, round(args.seconds * wl.rounds_per_s / PASSES))


def run_rows(harness, runner, wl, after=None):
    """The ROADMAP rows, once, after the rounds; returns their wall time.

    They run after the peak RSS of the rounds is read: a row cut by the
    cap has allocated as much as it reached by then, which depends on the
    machine's speed, and a row stopped by the guard reads the guard."""
    busy, _ = harness.run_rounds(runner, lambda r: wl.row_steps(), 1,
                                 WALL_LIMIT_S, wl.guard, after)
    return busy


def collect(harness, runner, frames, keep):
    """An ``after`` for run_rounds: append each round's wall time and
    outcomes to ``frames`` and start the next round's records afresh."""
    def after(r, took):
        frames.append((took, harness.outcomes(runner.records, keep,
                                              runner.speed)))
        runner.records.clear()
    return after


def in_process(harness, mod, wl, args, setups):
    """Time the passes in this process (cli-mix, whose ops are child
    processes), then check them."""
    runner = harness.Runner(wl.cap_s, checks=False, speed=harness.Speed())
    planned = planned_rounds(wl, args)
    passes = []
    for p in range(PASSES):
        if p:
            setups += timed_set_ups(harness, mod, args.seed, SETUP_FIRST)[0]
        passes.append([])
        harness.run_rounds(runner, wl.round, planned,
                           args.seconds, wl.guard,
                           collect(harness, runner, passes[-1], p == 0))
        setups += timed_set_ups(harness, mod, args.seed, SETUP_LAST)[0]
    peak_mb = wl.peak_rss_mb()
    rows = []
    run_rows(harness, runner, wl, collect(harness, runner, rows, True))
    metrics, runner = settle(harness, wl, passes, rows[0], planned)
    metrics["peak_rss_mb"] = peak_mb
    metrics["setup_s"] = statistics.median(setups)
    return metrics, runner


def via_worker(harness, wl, args):
    """Make the inputs here, time each pass in a fresh worker process,
    then check the answers here."""
    planned = planned_rounds(wl, args)
    inputs = wl.shared(planned)
    passes, setups, peaks = [], [], []
    rows = None
    for p in range(PASSES):
        job = {"workload": args.workload, "seed": args.seed,
               "rounds": planned, "keep": p == 0, "rows": p == PASSES - 1,
               "wall_limit_s": args.seconds,
               "inputs": inputs}
        *rounds, (reps, peak_mb) = run_worker(job)
        if job["rows"]:
            rows = rounds.pop()
        passes.append(rounds)
        setups += reps
        peaks.append(peak_mb)
    metrics, runner = settle(harness, wl, passes, rows, planned)
    metrics["peak_rss_mb"] = max(peaks)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, runner


def run_worker(job):
    """Start a worker on ``job`` and return the frames it sent."""
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--worker"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        proc.stdin.write(pickle.dumps(job))
        proc.stdin.close()
        sent = proc.stdout.read()    # unpickled only once the worker ends
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with code {proc.returncode}")
    stream = io.BytesIO(sent)
    frames = []
    while stream.tell() < len(sent):
        frames.append(pickle.load(stream))
    return frames


def settle(harness, wl, passes, rows, planned):
    """Give each op of the first pass the least latency of its passes,
    replay the outcomes through the same steps here and check every
    answer; the answers of the other passes must equal the first's."""
    runner = harness.Replay(wl.cap_s)
    left_out = 0
    for r, (_, first) in enumerate(passes[0]):
        later = [p[r][1] for p in passes[1:] if r < len(p)]
        left_out += PASSES - 1 - len(later)
        best, skipped, differs = harness.best_of(first, later)
        left_out += skipped
        start = len(runner.records)
        replay(runner, wl.round(r), best)
        for i in differs:
            runner.reject(runner.records[start + i],
                          "the answer differs between passes")
    replay(runner, wl.row_steps(), rows[1])
    busy = sum(rec.scaled for rec in runner.records if not rec.row)
    metrics = summary(harness, runner, busy, len(passes[0]), planned)
    each = [sum(o[1] * o[6] for _, outs in p for o in outs) for p in passes]
    say(f"each op timed in {PASSES} passes of "
        + " / ".join(f"{t:.2f}" for t in each) + " s of op time; "
        f"{left_out} round(s) of a later pass left out because their ops "
        "ended otherwise than in the first")
    return metrics, runner


def replay(runner, steps, outcomes):
    """Run one round's steps on the outcomes a pass sent, then check."""
    runner.feed(outcomes)
    for name, fn in steps:
        runner.step(name, fn)
    if runner.left_over():
        raise RuntimeError("replay out of step: the worker ran more ops")
    runner.run_checks()


def worker():
    """The worker of :func:`via_worker`: set up, run one pass of the rounds
    (and the rows, in the last pass) and send each round's wall time and
    outcomes, then the set-up times and the peak RSS of the rounds."""
    job = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    sys.path.insert(0, SRC)
    import harness
    mod = importlib.import_module(WORKLOADS[job["workload"]])
    inputs = job.pop("inputs")
    setups, wl = timed_set_ups(harness, mod, job["seed"], SETUP_FIRST, inputs)
    runner = harness.Runner(wl.cap_s, checks=False, speed=harness.Speed())
    frames = []

    def send(r, took):
        collect(harness, runner, frames, job["keep"])(r, took)
        pickle.dump(frames.pop(), out)
    harness.run_rounds(runner, wl.round, job["rounds"], job["wall_limit_s"],
                       wl.guard, after=send)
    peak_mb = harness.peak_rss_mb()
    if job["rows"]:
        job["keep"] = True
        run_rows(harness, runner, wl, after=send)
    setups += timed_set_ups(harness, mod, job["seed"], SETUP_LAST, inputs)[0]
    pickle.dump((setups, peak_mb), out)
    out.flush()
    return 0


def summary(harness, runner, busy, rounds, planned):
    if rounds < planned:
        say(f"wall limit reached: {rounds} of {planned} rounds run")
    s = harness.summarize(runner.records, busy)
    rows_s = sum(rec.latency for rec in runner.records if rec.row)
    say(f"{rounds} rounds, {s['attempted']} ops, {busy:.2f} s of op time, "
        f"and {rows_s:.2f} s in the once-per-run rows; tail is "
        f"p{s['tail_pct']:.1f} of {s['samples']} samples")
    return {k: s[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms",
                              "failed_share")}


def traced(harness, wl, args, units):
    """The rows once, then round 0 untraced and round 0 traced; per-layer
    metrics come from the traced pass, over completed ops only."""
    rows = harness.Runner(wl.cap_s)
    harness.run_rounds(rows, lambda r: wl.row_steps(), 1, WALL_LIMIT_S,
                       wl.guard)
    plain = harness.Runner(wl.cap_s)
    busy0, _ = harness.run_rounds(plain, wl.round, 1, WALL_LIMIT_S, wl.guard)
    base = harness.summarize(plain.records, busy0)

    wl.start_tracing()
    tracer = harness.Tracer(SRC)
    runner = harness.Runner(wl.cap_s * TRACE_CAP_FACTOR, tracer)
    undo = harness.install_poly_recorder(wl.M, tracer)
    try:
        busy1, _ = harness.run_rounds(runner, wl.round, 1, WALL_LIMIT_S,
                                       wl.guard)
    finally:
        undo()
    traced_s = harness.summarize(runner.records, busy1)

    counters = {}
    for rec in runner.records:
        if rec.completed and rec.counters:
            harness.add_counters(counters, rec.counters)
    share, requests = harness.repeat_share(runner.records)
    counters["hilbert.poly_repeat_share"] = share
    counters.update(wl.trace_extra(runner))
    counters["trace.overhead_share"] = (
        1.0 - traced_s["ops_per_s"] / base["ops_per_s"])

    say(f"untraced round 0: {base['ops_per_s']:.4g} ops/s; traced: "
        f"{traced_s['ops_per_s']:.4g} ops/s (cap x{TRACE_CAP_FACTOR:g})")
    say(f"completed ops traced: {traced_s['attempted'] - traced_s['failed']}"
        f" of {traced_s['attempted']}; poly requests {requests}")
    counts = {k: v for k, v in sorted(counters.items())
              if units.get(k) == "count"}
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]
    say(f"work counters fingerprint {digest}")
    for k, u in units.items():
        say(f"{k:28s} {counters.get(k, 0):.6g} {u}")
    report_rows(wl, rows)
    write_spans(tracer, args)
    runner.records += rows.records
    runner.wrong += rows.wrong
    return counters, runner


def report_rows(wl, runner):
    say("ROADMAP Direction 1 rows (untraced, once per run):")
    for rec in runner.records:
        if rec.row:
            label, fig = wl.rows[rec.row]
            fig = "n/a" if fig is None else f"{fig:g} s"
            say(f"  {rec.row:20s} {rec.latency:8.3f} s {rec.status:8s} "
                f"ROADMAP {fig:>8s}  {label}")


def report_ops(harness, runner, wl):
    failed = {}
    for rec in runner.records:
        if not rec.completed:
            key = (rec.kind, rec.status, rec.row or "")
            failed[key] = failed.get(key, 0) + 1
    for (kind, status, row), n in sorted(failed.items()):
        say(f"failed: {n} x {kind} {status} {row}")
    for rec in runner.wrong:
        say(f"WRONG ANSWER: op {rec.op_id} {rec.kind}: {rec.detail}")
    cap = runner.cap_s
    for rec in harness.near_cap(runner.records, cap):
        say(f"near cap: op {rec.op_id} {rec.kind} {rec.row or ''} "
            f"{rec.latency:.3f} s of {cap:g} s ({rec.status})")


def write_spans(tracer, args):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start_s",
                              "end_s"], "spans": tracer.spans}, fh)
    say(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
