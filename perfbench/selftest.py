"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import Span, Tracer, covered_ns, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ self time
def test_covered_ns_merges_overlaps_and_gaps():
    assert covered_ns([]) == 0
    assert covered_ns([(10, 40), (30, 60), (70, 80)]) == 60
    assert covered_ns([(0, 100), (10, 20)]) == 100


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("service.stream", 0, 100, -1, 0),   # 0: root
        Span("runner.cache_io", 10, 40, 0, 0),   # 1: child of 0
        Span("link.packet", 30, 60, 0, 0),       # 2: overlaps 1 (union 10..60)
        Span("channel.transmit", 20, 25, 1, 0),  # 3: child of 1
        Span("channel.noise", 95, 130, 0, 0),    # 4: outlives its parent
        Span("net.engine", 200, 260, -1, 0),     # 5: second root
    ]
    assert self_times(spans) == [
        100 - 50 - 5,  # children cover 10..60 and 95..100
        30 - 5,
        30,
        5,
        35,
        60,
    ]


def test_tail_has_ten_samples_beyond_it_but_stays_at_or_above_p90():
    from run import tail

    # One chunk of 50 ops: p90 (rank 44), since 10 beyond would be p78.
    value, percentile, samples = tail([float(i) for i in range(50)])
    assert (value, percentile, samples) == (44.0, 90.0, 50)
    # Five chunks of 400 ops, each with the 11th-highest at 389 + offset.
    times = [float(i % 400) + 1000 * (i // 400) for i in range(2000)]
    value, percentile, _ = tail(times)
    assert value == 2389.0 and percentile == 97.5


def test_tracer_nests_calls_and_steps_generators():
    class Layer:
        def outer(self, n):
            return [self.inner() for _ in range(n)]

        def inner(self):
            return 1

        def stream(self, n):
            for _ in range(n):
                yield self.inner()

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "a.outer")
    tracer.wrap(Layer, "inner", "b.inner", lambda t, args, result: t.count("b.calls"))
    tracer.wrap(Layer, "stream", "c.stream")
    try:
        layer = Layer()
        layer.outer(1)  # untraced: outside an op
        tracer.begin_op(7)
        layer.outer(2)
        assert list(layer.stream(3)) == [1, 1, 1]
        tracer.end_op()
    finally:
        tracer.restore()
    assert Layer.__dict__["inner"].__name__ == "inner"
    assert tracer.calls == {"a.outer": 1, "b.inner": 5, "c.stream": 4}
    assert tracer.counters["b.calls"] == 5
    names = [span.name for span in tracer.kept]
    assert names[:3] == ["a.outer", "b.inner", "b.inner"]
    assert tracer.kept[1].parent == 0 and tracer.kept[0].parent == -1
    assert all(span.op == 7 for span in tracer.kept)
    # Every op nanosecond is attributed exactly once.
    table = tracer.layer_table()
    assert sum(ms for _, ms, _ in table) == pytest.approx(tracer.op_ns / 1e6)


# ------------------------------------------------------------ the runs
def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_seed_changes_the_generated_inputs(tmp_path):
    import workloads

    def inputs(name, seed):
        workload = workloads.build(name, seed, tmp_path, smoke=True)
        try:
            if name == "service_sweep":
                return [s.to_dict() for k in range(3) for s in workload.job(k)]
            return [s.to_dict() for s in workload.scenarios]
        finally:
            getattr(workload, "close", lambda: None)()

    for name in workloads.WORKLOADS:
        assert inputs(name, 5) == inputs(name, 5), name
        assert inputs(name, 5) != inputs(name, 6), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "net_scale", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
