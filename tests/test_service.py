"""Tests for the streaming sweep service (repro.experiments.service)."""

import json
import os
import warnings

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments import (
    ExperimentRunner,
    ResultSet,
    Scenario,
    Sweep,
    SweepService,
)
from repro.experiments.runner import CacheMissWarning


def _scenarios(n=3, packets=2, seed=11):
    return (
        Sweep(Scenario(site="bridge", num_packets=packets))
        .over(distance_m=[4.0 + i for i in range(n)])
        .seeded(seed)
        .scenarios()
    )


def _complete(service, scenarios, **kwargs):
    job = service.submit(scenarios, **kwargs)
    records = list(service.stream(job.job_id))
    return job, records


# ------------------------------------------------------------- submission
def test_submit_is_content_addressed_and_idempotent(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    scenarios = _scenarios(2)
    job = service.submit(scenarios, label="first")
    assert job.job_id == SweepService.job_id_for(scenarios)
    assert job.state == "submitted"
    assert job.total == 2 and job.completed == 0
    assert job.label == "first"
    assert not job.done
    # Same sweep, same job -- the original label survives.
    again = service.submit(scenarios, label="second")
    assert again.job_id == job.job_id
    assert again.label == "first"
    # A different sweep is a different job.
    other = service.submit(_scenarios(3))
    assert other.job_id != job.job_id
    assert {j.job_id for j in service.list_jobs()} == {job.job_id, other.job_id}


def test_poll_unknown_job_raises(tmp_path):
    service = SweepService(tmp_path)
    with pytest.raises(KeyError, match="unknown job"):
        service.poll("deadbeefdeadbeef")


# -------------------------------------------------------------- streaming
def test_stream_matches_blocking_runner(tmp_path):
    scenarios = _scenarios(3)
    service = SweepService(tmp_path / "svc", max_workers=1)
    job, records = _complete(service, scenarios)
    reference = ExperimentRunner(max_workers=1).run(scenarios)
    assert list(reference) == records
    assert [r.scenario for r in records] == scenarios
    final = service.poll(job.job_id)
    assert final.done and final.completed == final.total == 3
    # The columnar artifact is the job's only result file.
    job_dir = service.artifact_path(job.job_id).parent
    assert not (job_dir / "results.json").exists()
    assert sorted(p.name for p in job_dir.iterdir()) == [
        "manifest.json", "results.npz", "scenarios.json"]
    assert service.result(job.job_id) == reference


def test_poll_sees_progress_between_records(tmp_path):
    scenarios = _scenarios(3)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios)
    completed = []
    for _ in service.stream(job.job_id):
        completed.append(service.poll(job.job_id).completed)
    assert completed == [1, 2, 3]
    assert service.poll(job.job_id).done


def test_done_job_streams_from_artifact_without_simulating(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)

    def _boom(scenario):
        raise AssertionError("a done job must not re-simulate")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    resubmitted = service.submit(scenarios)
    assert resubmitted.done
    replayed = list(service.stream(job.job_id))
    assert replayed == records


def test_scenario_cache_is_shared_with_runner(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    # Warm the per-scenario cache through a plain runner pointed at the
    # service's cache directory -- the service must pick the entries up.
    ExperimentRunner(max_workers=1, cache_dir=service.cache_dir).run(scenarios)
    job, _ = _complete(service, scenarios)
    assert service.poll(job.job_id).cache_hits == 2


# ---------------------------------------------------------------- fetches
def test_fetch_exports_both_artifact_forms(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path / "svc", max_workers=1)
    job, records = _complete(service, scenarios)
    npz_out = service.fetch(job.job_id, tmp_path / "out.npz")
    json_out = service.fetch(job.job_id, tmp_path / "out.json")
    assert list(ResultSet.load_npz(npz_out)) == records
    assert list(ResultSet.load(json_out)) == records


def test_fetch_requires_a_finished_job(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(2))
    with pytest.raises(RuntimeError, match="stream it to completion"):
        service.fetch(job.job_id, tmp_path / "out.npz")


# ------------------------------------------------------------- robustness
def test_corrupt_artifact_is_treated_as_a_miss(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    service.artifact_path(job.job_id).write_bytes(b"rotten bytes")
    with pytest.warns(CacheMissWarning) as caught:
        resubmitted = service.submit(scenarios)
    assert caught[0].message.reason == "npz-corrupt"
    assert resubmitted.state == "submitted"
    # Re-streaming re-runs the sweep (served from the per-scenario JSON
    # cache) and heals the artifact.
    replayed = list(service.stream(job.job_id))
    assert replayed == records
    assert service.poll(job.job_id).cache_hits == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheMissWarning)
        assert service.submit(scenarios).done


@pytest.mark.parametrize("key, value", [
    ("version", np.asarray([1, 1])),
    ("num_records", np.asarray([1, 1])),
    ("scenario_json", np.asarray("{}")),
])
def test_misshapen_artifact_array_is_treated_as_a_miss(tmp_path, key, value):
    # A header scalar stored as a vector, or a column stored as a scalar,
    # must read as a corrupt artifact (ValueError -> reason-coded miss),
    # not escape as a TypeError.
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    path = service.artifact_path(job.job_id)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[key] = value
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(ValueError, match="corrupt columnar artifact"):
        ResultSet.load_npz(path)
    with pytest.warns(CacheMissWarning) as caught:
        resubmitted = service.submit(scenarios)
    assert [w.message.reason for w in caught] == ["npz-corrupt"]
    assert resubmitted.state == "submitted"
    assert list(service.stream(job.job_id)) == records


def test_failed_job_records_the_error_and_recovers(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios)

    def _boom(scenario):
        raise RuntimeError("transducer on fire")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    with pytest.raises(RuntimeError, match="transducer on fire"):
        list(service.stream(job.job_id))
    failed = service.poll(job.job_id)
    assert failed.state == "failed"
    assert "transducer on fire" in failed.error
    # Once the fault clears, the same job streams to completion.
    monkeypatch.undo()
    records = list(service.stream(job.job_id))
    assert len(records) == 2
    final = service.poll(job.job_id)
    assert final.done and final.error == ""


def test_manifest_version_gate(tmp_path):
    import json

    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(1))
    path = service.jobs_dir / job.job_id / "manifest.json"
    data = json.loads(path.read_text())
    data["manifest_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="manifest version"):
        service.poll(job.job_id)


# ------------------------------------------------- job layout & recovery
@pytest.fixture
def instant_runs(monkeypatch):
    """Replace the simulator with an empty-statistics stub (fast jobs)."""
    from repro.link.session import LinkStatistics

    monkeypatch.setattr(runner_module, "run_scenario", lambda scenario: LinkStatistics())


def _tear(path, size=40):
    path.write_bytes(path.read_bytes()[:size])


def test_manifest_size_is_independent_of_job_size(tmp_path, instant_runs):
    service = SweepService(tmp_path, max_workers=1)
    sizes = {}
    for n in (1, 8):
        job = service.submit(_scenarios(n))
        submitted = service._manifest_path(job.job_id).stat().st_size
        list(service.stream(job.job_id))
        done = service._manifest_path(job.job_id).stat().st_size
        sizes[n] = (submitted, done)
        assert (service.jobs_dir / job.job_id / "scenarios.json").exists()
    # Only the counter digits may differ (1 vs 8 here: same width).
    slack = len(str(8)) - len(str(1))
    assert abs(sizes[8][0] - sizes[1][0]) <= slack
    assert abs(sizes[8][1] - sizes[1][1]) <= slack


def test_spec_is_written_once_per_job(tmp_path, instant_runs, monkeypatch):
    service = SweepService(tmp_path, max_workers=1)
    replace = os.replace
    spec_writes = []

    def counting_replace(src, dst):
        if os.path.basename(dst) == "scenarios.json":
            spec_writes.append(dst)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    scenarios = _scenarios(8)
    job, _ = _complete(service, scenarios)
    again, _ = _complete(service, scenarios)
    assert again.job_id == job.job_id and service.poll(job.job_id).done
    assert len(spec_writes) == 1


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, instant_runs,
                                                          monkeypatch):
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(2))
    path = service._manifest_path(job.job_id)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        list(service.stream(job.job_id))
    monkeypatch.undo()
    assert json.loads(path.read_text())["state"] == "submitted"
    assert service.poll(job.job_id) == job
    # The temp file of the failed write is cleaned up.
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "manifest.json", "scenarios.json",
    ]


def test_torn_manifest_fails_poll_with_a_reason_code(tmp_path, instant_runs):
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(2))
    _tear(service._manifest_path(job.job_id))
    with pytest.warns(CacheMissWarning) as caught:
        with pytest.raises(KeyError, match="corrupt manifest"):
            service.poll(job.job_id)
    assert caught[0].message.reason == "manifest-corrupt"


def test_submit_rebuilds_a_torn_manifest_of_a_finished_job(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios, label="keep")
    _tear(service._manifest_path(job.job_id))

    def _boom(scenario):
        raise AssertionError("a recovered done job must not re-simulate")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    with pytest.warns(CacheMissWarning) as caught:
        recovered = service.submit(scenarios, label="keep")
    assert [w.message.reason for w in caught] == ["manifest-corrupt"]
    assert recovered.done and recovered.completed == recovered.total == 2
    assert recovered.label == "keep"
    assert service.poll(job.job_id) == recovered
    assert list(service.stream(job.job_id)) == records


def test_submit_rebuilds_a_torn_manifest_of_an_unfinished_job(tmp_path, instant_runs):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios)
    _tear(service._manifest_path(job.job_id))
    with pytest.warns(CacheMissWarning, match="manifest-corrupt"):
        recovered = service.submit(scenarios)
    assert recovered.state == "submitted" and recovered.completed == 0
    assert len(list(service.stream(job.job_id))) == 2
    assert service.poll(job.job_id).done


def test_list_jobs_skips_a_torn_manifest(tmp_path, instant_runs):
    service = SweepService(tmp_path, max_workers=1)
    torn, _ = _complete(service, _scenarios(1))
    intact = service.submit(_scenarios(2))
    _tear(service._manifest_path(torn.job_id))
    with pytest.warns(CacheMissWarning, match="manifest-corrupt"):
        jobs = service.list_jobs()
    assert [j.job_id for j in jobs] == [intact.job_id]
