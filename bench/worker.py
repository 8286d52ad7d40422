"""Benchmark worker: one fresh interpreter per run (or per set-up sample).

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE T0 OUT.json [--setup-only]

T0 is the parent's ``time.monotonic()`` just before it started this process,
so set-up time covers interpreter start, ``import sgt`` and building the
first pass's inputs.  Afterwards the worker runs whole passes until SECONDS
would be exceeded (at least one pass; with TRACE=1 untraced and traced
passes alternate, at least one of each), gates every output outside the
timed region, and writes raw samples to OUT.json.
"""
import contextlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

PROBE_INTERVAL_S = 0.05
_CAL_TABLE = tuple(tuple((a * b + a) % 31 for b in range(31)) for a in range(31))


def calibrate() -> float:
    """CPU seconds taken by a fixed slice (about 2 ms) of pure-Python table work.

    The work resembles the library's (tuple indexing, dict updates, small
    integer arithmetic), so its duration tracks the speed the CPU currently
    runs this process at.
    """
    t0 = time.process_time()
    table, counts, acc = _CAL_TABLE, {}, 0
    for _ in range(12):
        for a in range(31):
            row = table[a]
            for b in range(31):
                v = row[b]
                acc += table[v][a]
                counts[v] = counts.get(v, 0) + 1
    return time.process_time() - t0


class SpeedProbe:
    """Samples the CPU speed every PROBE_INTERVAL_S while a pass runs.

    On a shared host the speed of the CPU can change by a factor of two
    within a second.  A SIGALRM handler runs ``calibrate`` in the main
    thread, also in the middle of a long op, and records (wall-clock start,
    CPU duration); ``spent`` totals the handler's CPU time, which is
    subtracted from op times.  run.py scales each op by the samples taken
    during it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        c0 = time.process_time()
        self.samples.append((time.perf_counter(), calibrate()))
        self.spent += time.process_time() - c0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)


def run_pass(wl, ops, tracer, in_process):
    """Run and gate one pass; returns its raw timing record and failures.

    An op's time is the CPU time (user + system) of the process doing the
    work: this one, less the probe's share, or the op's child process.  On
    a shared host, elapsed time also counts the time other processes hold
    the CPU, which here often exceeds the op itself.  Ops run in this
    process are scaled later by the probe's samples.  Ops run in a child
    are not: a probe here does not track the child's start-up and numpy
    work.  Only ``wl.run`` is timed.  Each output is gated as soon as its
    op ends, so the pass never holds more than one.
    """
    clock, cpu = time.perf_counter, time.process_time
    op_s, op_wall_s, op_span, failures = [], [], [], []
    probe = SpeedProbe()
    with probe if in_process else contextlib.nullcontext():
        start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            before = probe.spent
            t0, c0 = clock(), cpu()
            try:
                out, reason = wl.run(op), None
            except Exception as exc:  # an op that raises counts as failed
                out, reason = None, f"{type(exc).__name__}: {exc}"
            c1, t1 = cpu(), clock()
            op_s.append(c1 - c0 - (probe.spent - before) if in_process
                        else wl.child_cpu_s)
            op_wall_s.append(t1 - t0)
            op_span.append((t0 - start, t1 - start))
            if reason is None:
                reason = wl.check(op, out)
            if reason is not None:
                failures.append(reason)
    calib = [(t - start, d) for t, d in probe.samples]
    record = {"wall_s": sum(op_s), "op_s": op_s, "op_wall_s": op_wall_s,
              "op_span": op_span, "calib": calib}
    return record, failures


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, t0, out_path = argv[:6]
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    # one CPU for the worker and its children, so the speed probe samples
    # the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import numpy
    import workloads  # imports sgt, which is part of set-up
    wl = workloads.WORKLOADS[workload](seed)
    first = wl.make_pass(0)
    in_process = not isinstance(wl, workloads.CliLarge)
    # set-up is this process's CPU time so far, scaled like the ops, except
    # for cli-large, whose set-up is numpy work that the probe does not track
    result = {"setup_wall_s": time.monotonic() - t0,
              "setup_s": time.process_time(),
              "setup_calib_s": (sorted(calibrate() for _ in range(5))[2]
                                if in_process else None),
              "numpy": numpy.__version__}
    if "--setup-only" in argv:
        Path(out_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    passes, failures = [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        ops = first if k == 0 else wl.make_pass(k)
        if traced:
            if in_process:
                tracer.install()
            else:
                wl.trace_files = []
        record, pass_failures = run_pass(wl, ops, tracer if traced else None,
                                         in_process)
        if traced:
            if in_process:
                tracer.uninstall()
            else:
                for i, dump in enumerate(wl.trace_files):
                    tracer.absorb(json.loads(dump.read_text(encoding="utf-8")), i)
                    dump.unlink()
                wl.trace_files = None
        attempted += len(ops)
        failed += len(pass_failures)
        failures += pass_failures[:20 - len(failures)]
        record["traced"] = traced
        passes.append(record)
        k += 1
        elapsed = time.perf_counter() - start
        per_pass = elapsed / k
        if trace:
            if k % 2 == 0 and elapsed + 2 * per_pass > seconds:
                break
        elif elapsed + per_pass > seconds:
            break

    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = wl.peak_rss_kb
    result.update(attempted=attempted, failed=failed, failures=failures,
                  passes=passes, peak_rss_kb=peak_kb)
    if tracer is not None:
        # one spans file per workload: they reach tens of MB
        spans_path = Path(out_path).parent / f"{workload}.spans.csv"
        tracer.write_spans(spans_path)
        result["trace"] = {key: v for key, v in tracer.export().items() if key != "spans"}
        result["trace"]["spans_file"] = spans_path.name
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
