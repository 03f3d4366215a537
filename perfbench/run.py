"""End-to-end benchmark of the repository, one closed-loop workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload link_range --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client in one process drives the program's public API
(``Scenario``, ``ExperimentRunner``, ``NetScenario``, ``SweepService``)
with ``max_workers=1``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures half the window (and at least the domain set)
untraced and half with every layer boundary wrapped (see ``layers.py``),
and reports the per-layer split and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
record, with provenance and a machine fingerprint, goes to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import os
import time

T0 = time.perf_counter()  # set-up is timed from here: imports count

# One client, one thread: no BLAS/OpenMP worker threads on a shared box.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import hashlib
import json
import math
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("link_range", "link_mobile", "net_scale", "service_sweep")
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="minimal inputs (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time and exit (one set-up sample)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------ provenance
def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():  # a plain copy inside some other repository
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _calibration_ms() -> float:
    """Median time of a fixed numpy + interpreter kernel, for comparing machines."""
    import numpy as np

    signal = np.random.default_rng(0).standard_normal(1 << 16)
    times = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(20):
            np.fft.irfft(np.fft.rfft(signal))
        total = 0
        for value in range(100_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def fingerprint() -> dict:
    """Where and on what the numbers were measured."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": revision or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "calibration_ms": _calibration_ms(),
    }


# ----------------------------------------------------------- measurement
TAIL_CHUNKS = 5
TAIL_CHUNK_MIN = 100


def tail_rank(size: int) -> int:
    """0-based rank of the tail in ``size`` sorted samples.

    The highest percentile with at least 10 samples beyond it, but never
    below p90: in fewer than 100 samples that rule would fall towards the
    median (the 11th-highest of 20 ops is p50), so p90 is taken instead.
    """
    return max(size - 11, math.ceil(0.9 * size) - 1)


def tail(times_s: list[float]) -> tuple[float, float, int]:
    """Tail op time: the median over consecutive chunks of each chunk's tail.

    Runs of at least ``2 * TAIL_CHUNK_MIN`` ops are split into up to
    ``TAIL_CHUNKS`` chunks of at least ``TAIL_CHUNK_MIN`` ops, so one stall
    of a shared machine moves one chunk, not the reported value.  Returns
    ``(value_s, percentile, samples)``; the percentile is that of the
    smallest chunk.
    """
    n = len(times_s)
    chunks = max(1, min(TAIL_CHUNKS, n // TAIL_CHUNK_MIN))
    bounds = [round(k * n / chunks) for k in range(chunks + 1)]
    tails = [
        sorted(times_s[start:stop])[tail_rank(stop - start)]
        for start, stop in zip(bounds, bounds[1:])
    ]
    size = min(stop - start for start, stop in zip(bounds, bounds[1:]))
    percentile = 100.0 * (tail_rank(size) + 1) / size
    return statistics.median(tails), percentile, n


class Window:
    """Timed ops of one phase of a run."""

    def __init__(self) -> None:
        self.times_s: list[float] = []
        self.ttfr_s: list[float] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.times_s) / sum(self.times_s) if self.times_s else 0.0


def measure(workload, seconds, start, min_ops, tracer=None) -> tuple[Window, int]:
    """Run ops from index ``start`` until ``seconds`` passed and ``min_ops`` ran.

    Only the op itself is timed; its output check runs after the timer.
    """
    window = Window()
    deadline = time.perf_counter() + seconds
    i = start
    while i < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_op(i)
        started = time.perf_counter()
        try:
            outcome = workload.op(i)
        except Exception:  # a failing op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            outcome = None
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        window.times_s.append(elapsed)
        if outcome is None:
            workload.failed.add(i)
        else:
            window.ttfr_s.append(elapsed if outcome.ttfr_s is None else outcome.ttfr_s)
            try:
                ok = outcome.check()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                workload.failed.add(i)
        i += 1
    return window, i


def setup_sample(args) -> float:
    """Cold set-up time of a fresh interpreter (a child process, awaited)."""
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT, smoke=args.smoke)
    try:
        workload.warm_up()
        setup_s = [time.perf_counter() - T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        if not args.trace:
            setup_s += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

        if args.trace:
            from layers import instrument, layer_metrics
            from tracing import Tracer

            # Half the window (and at least the domain set) untraced, then
            # half traced; the overhead compares the two halves.
            untraced, next_op = measure(workload, args.seconds / 2, 0, workload.num_ops)
            tracer = Tracer()
            instrument(tracer)
            try:
                window, end = measure(workload, args.seconds / 2, next_op, 0, tracer)
            finally:
                tracer.restore()
        else:
            window, end = measure(workload, args.seconds, 0, workload.num_ops)
        finish = workload.finish()
    finally:
        cleanup = getattr(workload, "close", None)
        if cleanup is not None:
            cleanup()

    attempted = end + finish.extra_ops
    failed = len(workload.failed)
    tail_s, tail_pct, samples = tail(window.times_s)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "ops_measured": samples,
        "op_tail_percentile": tail_pct,
        "setup_samples_s": setup_s,
        "op_times_ms": [t * 1e3 for t in window.times_s],
        "outputs": finish.outputs,
        "fingerprint": fingerprint(),
    }
    if args.trace:
        metrics = {
            name: metric(value, unit) for name, (value, unit) in layer_metrics(tracer).items()
        }
        for name, unit in workloads.OUTPUT_UNITS.items():
            metrics[name] = metric(finish.outputs.get(name, 0.0), unit)
        overhead = 100.0 * (1.0 - window.ops_per_s / untraced.ops_per_s)
        metrics["trace.overhead_pct"] = metric(overhead, "%")
        summary["untraced_ops_per_s"] = untraced.ops_per_s
        summary["traced_ops_per_s"] = window.ops_per_s
        summary["layer_table"] = tracer.layer_table()
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "ops_per_s": metric(window.ops_per_s, "1/s"),
            "op_p50_ms": metric(statistics.median(window.times_s) * 1e3, "ms"),
            "op_tail_ms": metric(tail_s * 1e3, "ms"),
            "ttfr_ms": metric(statistics.median(window.ttfr_s or [0.0]) * 1e3, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pdr": metric(finish.pdr, "ratio"),
        }
    summary["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, default=str), encoding="utf-8"
    )

    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(ops_failed_frac {failed / attempted:.4f}); op_tail is "
          f"p{tail_pct:.1f} of {samples} ops")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    if args.trace:
        print(f"  tracing overhead: {untraced.ops_per_s:.4g} ops/s untraced, "
              f"{window.ops_per_s:.4g} ops/s traced")
        print("  layer self time per op:")
        for layer, ms, share in tracer.layer_table():
            print(f"    {layer:<10} {ms:>10.3f} ms {100 * share:6.1f} %")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<28}" + "".join(f"{name:>16}" for name in WORKLOADS) + "  unit")
    rows = [("ops_failed_frac", {w: r["failed"] / r["attempted"] for w, r in results.items()}, "ratio")]
    rows += [
        (m, {w: r["metrics"][m]["value"] for w, r in results.items()},
         results[WORKLOADS[0]]["metrics"][m]["unit"])
        for m in names
    ]
    for name, values, unit in rows:
        print(f"{name:<28}" + "".join(f"{values[w]:>16.6g}" for w in WORKLOADS) + f"  {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
