"""sgt benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md): rees-roundtrip, lattice, verify-sweep, cli-large.
Each run starts fresh worker interpreters, so the library's lru_caches start
cold.  Set-up is sampled SETUP_SAMPLES times (one sample is the measuring
worker's own) and reported as the median.  With --trace 0 the end-to-end
metrics are printed; with --trace 1 the per-layer metrics from the span
tracer.  Every output is gated; the exit code is 1 when any gate fails.
The last stdout line is a JSON object with the keys correct, attempted,
failed and metrics.  The full result, with provenance and each op's raw
latency, is written to bench/out/.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHED, NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("rees-roundtrip", "lattice", "verify-sweep", "cli-large")
DEFAULT_SEED = 20260810
SETUP_SAMPLES = 3
#: Times are reported at the CPU speed at which worker.calibrate() takes this
#: much CPU time (its usual value on a 2.1 GHz Xeon vCPU whose hyperthread
#: sibling is busy); unscaled times are in the result file.
CAL_REF_S = 0.002
WORKER_TIMEOUT_S = 160
# str hashes are randomised per process by default, which moves this
# library's speed by several percent from one process to the next
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def spawn_worker(workload, seed, seconds, trace, out_path, setup_only):
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            str(seconds), str(trace)]
    tail = [str(out_path)] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    # its own session, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(argv + [repr(t0)] + tail, cwd=ROOT, env=WORKER_ENV,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def scaled(p: dict) -> tuple[float, list[float]]:
    """A pass's time and its op times at the reference CPU speed.

    Each op is scaled by CAL_REF_S over the mean calibration time sampled
    during it, or, for an op shorter than the sampling interval, over the
    mean of the samples just before and just after it (see worker.SpeedProbe).
    """
    if not p["calib"]:  # cli-large: see worker.run_pass
        return p["wall_s"], p["op_s"]
    starts = [t for t, _ in p["calib"]]
    durs = [d for _, d in p["calib"]]
    ops = []
    for x, (t0, t1) in zip(p["op_s"], p["op_span"]):
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        inside = durs[lo:hi] or durs[max(lo - 1, 0):lo + 1]
        ops.append(x * CAL_REF_S * len(inside) / sum(inside))
    return p["wall_s"] * sum(ops) / sum(p["op_s"]), ops


def tail_stat(samples: list[float]):
    """Value with exactly ten samples above it, and its percentile rank."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    passes = [scaled(p) for p in raw["passes"] if not p["traced"]]
    walls = [wall for wall, _ in passes]
    ops = sum(len(lat) for _, lat in passes)
    tails = [tail_stat(lat) for _, lat in passes]
    tails = [t for t in tails if t[0] is not None]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (ops / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(
            statistics.median(lat) for _, lat in passes), "ms"),
    }
    if tails:
        metrics["op_tail_ms"] = (1e3 * statistics.median(t[0] for t in tails), "ms")
    metrics["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, "MB")
    notes = {
        "passes": len(passes),
        "ops_per_pass": [len(lat) for _, lat in passes],
        "unscaled_pass_s": statistics.median(p["wall_s"] for p in raw["passes"]
                                             if not p["traced"]),
        "elapsed_pass_s": statistics.median(sum(p["op_wall_s"]) for p in raw["passes"]
                                            if not p["traced"]),
        "op_tail_percentile": statistics.median(t[1] for t in tails) if tails else None,
        "error_rate": raw["failed"] / raw["attempted"],
    }
    return metrics, notes


def per_layer(raw: dict) -> tuple[dict, dict]:
    tr = raw["trace"]
    # elapsed op time, which the spans (and the probe's samples) lie in
    traced = [sum(p["op_wall_s"]) for p in raw["passes"] if p["traced"]]
    plain = [scaled(p)[0] for p in raw["passes"] if not p["traced"]]
    traced_scaled = [scaled(p)[0] for p in raw["passes"] if p["traced"]]
    n = len(traced)  # counters are reported per traced pass
    metrics = {}
    for k, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = (tr["calls"][k] / n, "count")
        metrics[f"{name}.self_s"] = (tr["self_s"][k] / n, "s")
    c = tr["counters"]
    metrics["core.from_cayley.cells"] = (c["cayley_cells"] / n, "count")
    metrics["core.from_cayley.scan_ops"] = (c["cayley_scan_ops"] / n, "count")
    metrics["core.from_cayley.max_n"] = (c["cayley_max_n"], "count")
    for name in CACHED:
        tally = tr["cache"][name]
        if tally is not None:  # absent once the function has no cache_info
            metrics[f"{name}.cache_hit_ratio"] = (
                tally[0] / sum(tally) if sum(tally) else 0.0, "ratio")
    metrics["congruence.join.new_ratio"] = (
        c["joins_new"] / c["joins_tried"] if c["joins_tried"] else 0.0, "ratio")
    wall = sum(traced) / n
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_s"] = (wall - sum(tr["self_s"]) / n, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_scaled) / statistics.median(plain), "ratio")
    notes = {"traced_passes": n, "joins_tried": c["joins_tried"],
             "joins_new": c["joins_new"], "cache": tr["cache"],
             "spans_file": tr["spans_file"],
             "error_rate": raw["failed"] / raw["attempted"]}
    return metrics, notes


def provenance(raw: dict, args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sgt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": raw["numpy"], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sgt" / "__init__.py").is_file():
        print(f"error: no sgt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = OUT / f"{stem}.raw.json"

    try:
        setups = [spawn_worker(args.workload, args.seed, args.seconds, args.trace,
                               out_path, True)
                  for _ in range(SETUP_SAMPLES - 1)]
        raw = spawn_worker(args.workload, args.seed, args.seconds, args.trace,
                           out_path, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(raw)
    setups = [r["setup_s"] if r["setup_calib_s"] is None
              else r["setup_s"] * CAL_REF_S / r["setup_calib_s"] for r in setups]
    if args.trace:
        metrics, notes = per_layer(raw)
    else:
        metrics, notes = end_to_end(raw, setups)

    result = {"provenance": provenance(raw, args),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "setup_samples_s": setups,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "failures": raw["failures"],
              "passes": raw["passes"]}
    (OUT / f"{stem}.json").write_text(json.dumps(result), encoding="utf-8")
    out_path.unlink()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(raw['passes'])}  result {OUT.name}/{stem}.json")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'op_tail_ms percentile':48s} {notes['op_tail_percentile']:14.6g} "
              f"(of {notes['ops_per_pass'][0]} ops per pass)")
    print(f"  {'error_rate':48s} {notes['error_rate']:14.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} ops failed)")
    for reason in raw["failures"]:
        print(f"  FAILED: {reason}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": result["metrics"]}))
    return 0 if raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
