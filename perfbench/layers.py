"""Where the traced run wraps the program: one entry per layer boundary.

Each span name is ``<layer>.<boundary>``; the layers follow the
package's own modules (``repro.channel``, ``repro.dsp``, ``repro.core``
modem and equalizer, ``repro.fec``, ``repro.link``, ``repro.experiments``
runner / records / service, ``repro.net``).  Three private methods are
wrapped because no public function sits at their boundary:
``ExperimentRunner._load_cached`` / ``_store_cached`` (the runner's
per-scenario cache) and ``SweepService._write_manifest`` (counted for
bytes only, so manifest rewrites stay in the stream's self time).
A target that no longer exists raises ``KeyError`` when the trace is
installed, rather than silently reporting zero for its layer.
"""

from __future__ import annotations

import pathlib

from tracing import Tracer


def _file_bytes(path) -> int:
    return pathlib.Path(path).stat().st_size


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper on ``tracer`` (undo with ``restore``)."""
    from repro.channel.channel import UnderwaterAcousticChannel
    from repro.channel.noise import AmbientNoiseModel
    from repro.core.equalizer import MMSEEqualizer
    from repro.core.modem import AquaModem
    from repro.dsp.filters import FIRBandpassFilter
    from repro.experiments import ColumnarResultSet, ExperimentRunner, NetScenario
    from repro.experiments import ResultSet, Scenario, SweepService
    from repro.fec.convolutional import PuncturedConvolutionalCode
    from repro.link.session import LinkSession
    from repro.net.links import CalibratedLink, PhysicalLink
    from repro.net.metrics import NetworkMetrics
    from repro.net.routing import (
        FloodingRouting,
        GreedyForwarding,
        StaticShortestPathRouting,
    )
    from repro.net.simulator import NetworkSimulator
    from repro.net.topology import AcousticNetTopology
    from repro.net.transport import ArqReceiver, ArqSender

    wrap = tracer.wrap

    # channel
    def count_samples(t, args, result):
        t.count("channel.samples", len(args[1]))

    wrap(UnderwaterAcousticChannel, "transmit", "channel.transmit", count_samples)
    wrap(UnderwaterAcousticChannel, "randomize", "channel.randomize")
    wrap(AmbientNoiseModel, "generate", "channel.noise")

    # dsp
    wrap(FIRBandpassFilter, "apply", "dsp.bandpass")

    # modem
    def count_detect(t, args, result):
        t.count("modem.detect.hits", bool(result.detected))

    def count_feedback(t, args, result):
        t.count("modem.feedback.decodes")
        t.count("modem.feedback.found", bool(result.found))

    wrap(AquaModem, "detect_preamble", "modem.detect", count_detect)
    wrap(AquaModem, "estimate_snr", "modem.snr_adapt")
    wrap(AquaModem, "select_band", "modem.snr_adapt")
    wrap(AquaModem, "build_feedback", "modem.feedback")
    wrap(AquaModem, "decode_feedback", "modem.feedback", count_feedback)
    wrap(AquaModem, "band_from_feedback", "modem.feedback")
    wrap(AquaModem, "encode_data", "modem.encode")
    wrap(AquaModem, "decode_data", "modem.decode")
    wrap(MMSEEqualizer, "fit", "equalizer.fit")
    wrap(MMSEEqualizer, "apply", "equalizer.apply")

    # fec
    def count_coded_bits(t, args, result):
        t.count("fec.decode.coded_bits", len(args[1]))

    wrap(PuncturedConvolutionalCode, "encode", "fec.encode")
    wrap(PuncturedConvolutionalCode, "decode", "fec.decode", count_coded_bits)

    # link
    wrap(LinkSession, "run_packet", "link.packet")

    # runner, records, service
    def count_cache_lookup(t, args, result):
        t.count("runner.cache_lookups")
        t.count("runner.cache_hits", result is not None)

    def count_written(t, args, result):
        t.count("service.bytes_written", _file_bytes(result))

    def count_manifest(t, args, result):
        service, job_id = args[0], args[1]
        t.count("service.bytes_written", _file_bytes(service._manifest_path(job_id)))

    wrap(Scenario, "build_session", "runner.build_session")
    wrap(ExperimentRunner, "_load_cached", "runner.cache_io", count_cache_lookup)
    wrap(ExperimentRunner, "_store_cached", "runner.cache_io")
    wrap(ColumnarResultSet, "append", "records.append")
    wrap(ColumnarResultSet, "save_npz", "records.npz_save", count_written)
    wrap(ColumnarResultSet, "load_npz", "records.npz_load")
    wrap(ResultSet, "save", "records.json_save", count_written)
    wrap(SweepService, "submit", "service.submit")
    wrap(SweepService, "stream", "service.stream")
    wrap(SweepService, "fetch", "service.fetch")
    wrap(SweepService, "_write_manifest", None, count_manifest)

    # net
    wrap(NetScenario, "build_simulator", "net.build")
    wrap(NetScenario, "build_traffic", "net.build")
    wrap(NetworkSimulator, "run", "net.engine")
    tracer.wrap_public(AcousticNetTopology, "net.topology")
    for routing in (FloodingRouting, StaticShortestPathRouting, GreedyForwarding):
        wrap(routing, "next_hops", "net.routing")
    tracer.wrap_public(CalibratedLink, "net.link")
    tracer.wrap_public(PhysicalLink, "net.link")
    tracer.wrap_public(ArqSender, "net.transport")
    tracer.wrap_public(ArqReceiver, "net.transport")
    tracer.wrap_public(NetworkMetrics, "net.metrics")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, ``name -> (value, unit)``.

    Times and counts are per traced op; ratios are over all traced calls.
    A layer the workload does not exercise reports 0.
    """
    ms = tracer.per_op_ms
    ops = max(tracer.ops, 1)
    counters = tracer.counters
    calls = tracer.calls

    def ratio(hits: float, attempts: float) -> float:
        return hits / attempts if attempts else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "channel.transmit", "channel.noise", "channel.randomize",
        "dsp.bandpass",
        "modem.detect", "modem.snr_adapt", "modem.feedback",
        "modem.encode", "modem.decode",
        "equalizer.fit", "equalizer.apply",
        "fec.decode", "fec.encode",
        "link.packet",
        "runner.build_session",
        "records.append",
        "service.submit", "service.stream", "service.fetch",
        "net.build", "net.engine", "net.topology", "net.routing",
        "net.link", "net.transport", "net.metrics",
    ):
        metrics[f"{name}.self_ms"] = (ms(name), "ms/op")
    for name in ("runner.cache_io", "records.npz_save", "records.npz_load",
                 "records.json_save"):
        metrics[f"{name}_ms"] = (ms(name, total=True), "ms/op")
    metrics["channel.transmit.calls"] = (calls["channel.transmit"] / ops, "count/op")
    metrics["channel.samples"] = (counters["channel.samples"] / ops, "count/op")
    metrics["modem.detect.hit_ratio"] = (
        ratio(counters["modem.detect.hits"], calls["modem.detect"]), "ratio")
    metrics["modem.feedback.ok_ratio"] = (
        ratio(counters["modem.feedback.found"], counters["modem.feedback.decodes"]),
        "ratio")
    metrics["fec.decode.coded_bits"] = (counters["fec.decode.coded_bits"] / ops, "count/op")
    metrics["link.packets"] = (calls["link.packet"] / ops, "count/op")
    metrics["runner.cache_hit_ratio"] = (
        ratio(counters["runner.cache_hits"], counters["runner.cache_lookups"]), "ratio")
    metrics["service.bytes_written"] = (counters["service.bytes_written"] / ops, "B/op")
    metrics["net.routing.calls"] = (calls["net.routing"] / ops, "count/op")
    return metrics
