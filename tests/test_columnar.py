"""Equivalence gate for the columnar result container.

The per-record object container in ``tests/oracles/results.py`` is the
reference implementation; the runtime :class:`~repro.experiments.\
ResultSet` (columnar numpy arenas) must be observationally identical to
it.  The hypothesis suite here is the gate: randomized records (NaN/inf
metrics, unicode scenario labels, ragged per-packet series) must
round-trip losslessly through the arenas, the JSON form and the ``.npz``
artifact, and every query -- ``where``, ``to_table``, ``metric``,
aggregations -- must agree with the oracle bit for bit.
"""

import json
import math
import tempfile
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.results import ResultSet as ObjectResultSet

from repro.experiments import (
    ColumnarResultSet,
    ExperimentRunner,
    ResultSet,
    RunRecord,
    Scenario,
    Sweep,
)

_slow = settings(max_examples=30, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# Any float a simulation metric could plausibly (or implausibly) carry:
# the arenas must be lossless for all of them, NaN and +/-inf included.
_metric = st.floats(allow_nan=True, allow_infinity=True, width=64)

_scenarios = st.builds(
    Scenario,
    site=st.sampled_from(["bridge", "lake"]),
    distance_m=st.sampled_from([4.0, 5.0, 8.0, 12.5]),
    scheme=st.sampled_from(["adaptive", "fixed-3k", "fixed-0.5k"]),
    motion=st.sampled_from(["static", "slow"]),
    num_packets=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=999),
    label=st.text(max_size=8),  # unicode, including '' and whitespace
    rx_depth_m=st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
)


@st.composite
def _records(draw):
    scenario = draw(_scenarios)
    packets = scenario.num_packets
    series = st.lists(_metric, min_size=packets, max_size=packets)
    return RunRecord(
        scenario=scenario,
        num_packets=packets,
        delivered=draw(st.integers(0, packets)),
        packet_error_rate=draw(_metric),
        payload_bit_error_rate=draw(_metric),
        coded_bit_error_rate=draw(_metric),
        preamble_detection_rate=draw(_metric),
        feedback_error_rate=draw(_metric),
        bitrates_bps=tuple(draw(series)),
        band_starts_hz=tuple(draw(series)),
        band_ends_hz=tuple(draw(series)),
        min_band_snrs_db=tuple(draw(series)),
        delivered_flags=tuple(
            draw(st.lists(st.booleans(), min_size=packets, max_size=packets))
        ),
        elapsed_s=draw(st.floats(min_value=0.0, max_value=10.0)),
    )


_record_lists = st.lists(_records(), max_size=8)

_SCALAR_METRICS = (
    "packet_error_rate",
    "payload_bit_error_rate",
    "coded_bit_error_rate",
    "preamble_detection_rate",
    "feedback_error_rate",
    "elapsed_s",
    "num_packets",
    "delivered",
    "median_bitrate_bps",
)


def _float_equal(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _same(results: ResultSet, reference: ObjectResultSet) -> bool:
    """Runtime and oracle sets hold equal records in the same order."""
    return list(results) == reference.records


# ------------------------------------------------------------- round-trip
@_slow
@given(_record_lists)
def test_roundtrip_is_lossless(records):
    reference = ObjectResultSet(list(records))
    columnar = ResultSet(reference.records)
    assert len(columnar) == len(reference)
    assert _same(columnar, reference)
    assert columnar == ResultSet(list(records))
    for rebuilt, original in zip(columnar, reference):
        assert rebuilt == original
        # Record equality excludes timing; losslessness must not.
        assert _float_equal(rebuilt.elapsed_s, original.elapsed_s)
        # Series come back as the exact same tuples (NaN/inf preserved).
        assert len(rebuilt.bitrates_bps) == len(original.bitrates_bps)
        for got, want in zip(rebuilt.bitrates_bps, original.bitrates_bps):
            assert _float_equal(got, want)
        assert rebuilt.delivered_flags == original.delivered_flags


@_slow
@given(_record_lists)
def test_npz_roundtrip_is_lossless(records):
    columnar = ResultSet(list(records))
    with tempfile.TemporaryDirectory(prefix="columnar-npz-") as tmp:
        path = columnar.save_npz(pathlib.Path(tmp) / "results.npz")
        loaded = ResultSet.load_npz(path)
    assert loaded == columnar
    assert _same(loaded, ObjectResultSet(list(records)))
    for rebuilt, original in zip(loaded, records):
        assert _float_equal(rebuilt.elapsed_s, original.elapsed_s)


@_slow
@given(_record_lists)
def test_json_form_matches_object_path(records):
    reference = ObjectResultSet(list(records))
    columnar = ResultSet(list(records))
    assert columnar.to_json() == reference.to_json()
    assert (columnar.to_json(include_timing=True)
            == reference.to_json(include_timing=True))
    with tempfile.TemporaryDirectory(prefix="columnar-json-") as tmp:
        ours = columnar.save(pathlib.Path(tmp) / "ours.json", include_timing=True)
        theirs = reference.save(pathlib.Path(tmp) / "theirs.json", include_timing=True)
        assert ours.read_bytes() == theirs.read_bytes()
        loaded = ResultSet.load(theirs)
    assert _same(loaded, reference)
    for rebuilt, original in zip(loaded, records):
        assert _float_equal(rebuilt.elapsed_s, original.elapsed_s)


# ---------------------------------------------------------------- queries
@_slow
@given(_record_lists)
def test_to_table_matches_object_path(records):
    reference = ObjectResultSet(list(records))
    columnar = ResultSet(list(records))
    assert columnar.to_table() == reference.to_table()
    wide = ("scenario", "packets", "per", "coded_ber", "median_bps",
            "detect", "feedback_err", "elapsed_s", "delivered")
    assert columnar.to_table(wide) == reference.to_table(wide)


@_slow
@given(_record_lists)
def test_metrics_and_aggregations_match_object_path(records):
    reference = ObjectResultSet(list(records))
    columnar = ResultSet(list(records))
    for name in _SCALAR_METRICS:
        want = reference.metric(name)
        got = np.asarray(columnar.metric(name), dtype=float)
        assert np.array_equal(got, want, equal_nan=True), name
        if want.size:
            assert _float_equal(columnar.mean(name), float(np.mean(want)))
            assert _float_equal(columnar.sum(name), float(np.sum(want)))
        else:
            assert math.isnan(columnar.mean(name))
            assert columnar.sum(name) == 0.0
    assert _float_equal(columnar.total_elapsed_s, reference.total_elapsed_s)
    offered = sum(r.num_packets for r in records)
    if offered:
        want_ratio = sum(r.delivered for r in records) / offered
        assert _float_equal(columnar.delivery_ratio(), want_ratio)
    else:
        assert math.isnan(columnar.delivery_ratio())


@pytest.mark.parametrize("series", [(-0.0,), (-0.0, -0.0), (-1.0, -0.0, 1.0)])
def test_median_of_negative_zero_matches_object_path(series):
    # np.median never returns -0.0, so neither may the vectorized median:
    # the sign shows up in to_table() as "-0" vs "0".
    packets = len(series)
    record = RunRecord(
        scenario=Scenario(site="bridge", distance_m=4.0, num_packets=packets),
        num_packets=packets, delivered=0, packet_error_rate=0.0,
        payload_bit_error_rate=0.0, coded_bit_error_rate=0.0,
        preamble_detection_rate=0.0, feedback_error_rate=0.0,
        bitrates_bps=series, band_starts_hz=(0.0,) * packets,
        band_ends_hz=(0.0,) * packets, min_band_snrs_db=(0.0,) * packets,
        delivered_flags=(False,) * packets, elapsed_s=0.0,
    )
    got = ResultSet([record]).metric("median_bitrate_bps")
    assert np.signbit(got) == np.signbit(record.median_bitrate_bps)
    assert (ResultSet([record]).to_table()
            == ObjectResultSet([record]).to_table())


@st.composite
def _records_with_criteria(draw):
    records = draw(_record_lists)
    criteria = {}
    names = draw(st.sets(
        st.sampled_from(["site", "scheme", "distance_m", "seed",
                         "label", "motion", "rx_depth_m"]),
        max_size=3,
    ))
    for name in names:
        if records and draw(st.booleans()):
            # Bias towards values actually present so matches happen.
            record = draw(st.sampled_from(records))
            value = getattr(record.scenario, name)
            if name in ("site", "motion"):
                value = draw(st.sampled_from([value, value.name]))
            if name == "scheme":
                value = draw(st.sampled_from(
                    [value, record.scenario.scheme_key]))
        else:
            value = draw({
                "site": st.sampled_from(["bridge", "lake"]),
                "scheme": st.sampled_from(["adaptive", "fixed-3k"]),
                "distance_m": st.sampled_from([4.0, 5.0, 99.0]),
                "seed": st.integers(0, 999),
                "label": st.text(max_size=8),
                "motion": st.sampled_from(["static", "slow"]),
                "rx_depth_m": st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
            }[name])
        criteria[name] = value
    return records, criteria


@_slow
@given(_records_with_criteria())
def test_where_matches_object_path(records_and_criteria):
    records, criteria = records_and_criteria
    reference = ObjectResultSet(list(records)).where(**criteria)
    filtered = ResultSet(list(records)).where(**criteria)
    assert _same(filtered, reference)
    assert filtered.to_table() == reference.to_table()


@_slow
@given(_record_lists)
def test_where_predicate_matches_object_path(records):
    predicate = lambda r: r.delivered > 0  # noqa: E731
    reference = ObjectResultSet(list(records)).where(predicate)
    filtered = ResultSet(list(records)).where(predicate)
    assert _same(filtered, reference)
    combined = ResultSet(list(records)).where(predicate, site="bridge")
    assert _same(combined,
                 ObjectResultSet(list(records)).where(predicate, site="bridge"))


# --------------------------------------------------- directed unit checks
def _simulated(num_scenarios=4, packets=2):
    sweep = (
        Sweep(Scenario(site="bridge", num_packets=packets))
        .over(distance_m=[4.0 + i for i in range(num_scenarios // 2)],
              scheme=["adaptive", "fixed-0.5k"])
        .seeded(60)
    )
    return ExperimentRunner(max_workers=1).run(sweep)


def test_simulated_records_roundtrip_and_agree(tmp_path):
    columnar = _simulated()
    assert isinstance(columnar, ResultSet)
    assert ColumnarResultSet is ResultSet
    reference = ObjectResultSet(list(columnar))
    assert _same(columnar, reference)
    assert columnar.to_table() == reference.to_table()
    assert columnar.to_json() == reference.to_json()
    loaded = ResultSet.load_npz(columnar.save_npz(tmp_path / "r.npz"))
    assert loaded == columnar
    adaptive = columnar.where(scheme="adaptive")
    assert _same(adaptive, reference.where(scheme="adaptive"))
    record = columnar.lookup(distance_m=4.0, scheme="fixed-0.5k")
    assert record == reference.lookup(distance_m=4.0, scheme="fixed-0.5k")


def test_lookup_raises_like_object_path():
    columnar = _simulated()
    with pytest.raises(LookupError):
        columnar.lookup(scheme="adaptive")  # two matches
    with pytest.raises(LookupError):
        columnar.lookup(distance_m=999.0)  # zero matches


def test_where_rejects_unknown_fields_like_object_path():
    columnar = _simulated()
    reference = ObjectResultSet(list(columnar))
    # Unknown catalog spellings raise ValueError, unknown fields
    # AttributeError -- exactly as Scenario.matches does.
    with pytest.raises(ValueError, match="unknown"):
        columnar.where(site="atlantis")
    with pytest.raises(AttributeError):
        columnar.where(depth_m=1.0)
    with pytest.raises(ValueError, match="unknown"):
        reference.where(site="atlantis")
    with pytest.raises(AttributeError):
        reference.where(depth_m=1.0)


def test_metric_views_are_zero_copy_and_read_only():
    columnar = _simulated()
    view = columnar.metric("packet_error_rate")
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 0.5
    # Appending must not invalidate what the view exposed.
    before = view.copy()
    columnar.append(columnar.record(0))
    assert np.array_equal(columnar.metric("packet_error_rate")[:len(before)],
                          before, equal_nan=True)


def test_record_indexing_matches_object_path():
    columnar = _simulated()
    reference = ObjectResultSet(list(columnar))
    assert columnar.record(-1) == reference[len(reference) - 1]
    assert columnar[0] == reference[0]
    with pytest.raises(IndexError):
        columnar.record(len(reference))


# -------------------------------------------------------- artifact safety
def test_load_npz_rejects_truncated_file(tmp_path):
    columnar = _simulated(2)
    path = columnar.save_npz(tmp_path / "results.npz")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ResultSet.load_npz(path)


def test_load_npz_rejects_garbage_and_missing_files(tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive")
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ResultSet.load_npz(garbage)
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ResultSet.load_npz(tmp_path / "missing.npz")


def test_load_npz_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, unrelated=np.arange(3))
    with pytest.raises(ValueError):
        ResultSet.load_npz(path)


def test_load_npz_rejects_wrong_version(tmp_path):
    columnar = _simulated(2)
    path = columnar.save_npz(tmp_path / "results.npz")
    arrays = dict(np.load(path, allow_pickle=False))
    arrays["version"] = np.asarray(99)
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        ResultSet.load_npz(path)


@pytest.mark.parametrize("owner, key, value", [
    ("scenario", "use_fast_path", True),
    ("modem", "equalizer_solver", "levinson"),
])
def test_load_npz_rejects_artifact_with_retired_scenario_fields(
        tmp_path, owner, key, value):
    """Artifacts written while ``Scenario.use_fast_path`` and
    ``ModemSpec.equalizer_solver`` existed carry those keys in their
    scenario JSON; they must read as corrupt (a cache miss), not crash."""
    columnar = _simulated(2)
    path = columnar.save_npz(tmp_path / "results.npz")
    arrays = dict(np.load(path, allow_pickle=False))
    old_entries = []
    for text in arrays["scenario_json"]:
        data = json.loads(str(text))
        (data if owner == "scenario" else data["modem"])[key] = value
        old_entries.append(json.dumps(data, sort_keys=True))
    arrays["scenario_json"] = np.asarray(old_entries)
    np.savez(path, **arrays)
    with pytest.raises(ValueError,
                       match="corrupt columnar artifact.*undecodable scenario entry"):
        ResultSet.load_npz(path)


def test_empty_set_roundtrips(tmp_path):
    empty = ResultSet()
    assert len(empty) == 0
    assert _same(empty, ObjectResultSet())
    assert _same(empty.where(site="atlantis"), ObjectResultSet())  # never evaluated
    loaded = ResultSet.load_npz(empty.save_npz(tmp_path / "e.npz"))
    assert loaded == empty
    assert ResultSet.load(empty.save(tmp_path / "e.json")) == empty
    assert empty.to_table() == ObjectResultSet().to_table()
    assert math.isnan(empty.delivery_ratio())
