"""The benchmark's four closed-loop workloads.

Each workload turns ``--seed`` into a fixed list of inputs for the
program's public API and exposes:

* ``num_ops`` -- the size of one traversal of those inputs.  The first
  traversal is the workload's *domain set*: its outputs (delivery ratio,
  bitrates, latencies) are computed from it alone, so they depend on the
  seed and never on how many ops fit in the measured window.  Later ops
  repeat the inputs (link, net) or continue along them (service).
* ``warm_up()`` -- one op outside the measurement, part of set-up.
* ``op(i)`` -- run op ``i`` and return an :class:`Outcome` whose
  ``check`` runs after the op's timer has stopped.
* ``finish()`` -- end-of-run checks and the workload's outputs.

Failures are kept as a set of op indices, so an op that fails two
checks counts once.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.environments.sites import SITE_CATALOG
from repro.experiments import (
    ColumnarResultSet,
    ExperimentRunner,
    ModemSpec,
    NetScenario,
    RunRecord,
    Scenario,
    SweepService,
)
from repro.link.session import LinkStatistics

SCHEMES = ("adaptive", "fixed-3k", "fixed-1.5k", "fixed-0.5k")


def draw_seeds(seed: int, salt: int, count: int) -> list[int]:
    """``count`` scenario seeds derived from the workload seed."""
    rng = np.random.default_rng([salt, seed])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


@dataclass
class Outcome:
    """What one op returns: an optional time to first result and a check."""

    ttfr_s: float | None = None
    check: Callable[[], bool] = lambda: True


@dataclass
class Finish:
    """End-of-run results of a workload."""

    extra_ops: int  # ops run by the end-of-run checks (e.g. a replay probe)
    pdr: float
    outputs: dict[str, float] = field(default_factory=dict)


def _same_packet(a, b) -> bool:
    # repr keeps every float digit and treats NaN as equal to NaN.
    return repr(a) == repr(b)


# ---------------------------------------------------------------- link
class LinkWorkload:
    """Packet exchanges (``LinkSession.run_packet``) over link scenarios.

    Scenarios run one after another, packet by packet, as a sweep runs
    them.  A scenario's session is built by its first packet of each
    traversal, so every traversal repeats the first one exactly and each
    repeated op is compared with its first result.
    """

    def __init__(self, scenarios: list[Scenario]) -> None:
        self.scenarios = scenarios
        self._ops = [
            (index, packet)
            for index, scenario in enumerate(scenarios)
            for packet in range(scenario.num_packets)
        ]
        self.num_ops = len(self._ops)
        self.failed: set[int] = set()
        self._session = None  # only the running scenario's session is alive
        self._first: dict[tuple[int, int], object] = {}

    def warm_up(self) -> None:
        # One packet per scenario shape fills the spectrum and template caches.
        shapes = {}
        for scenario in self.scenarios:
            shapes.setdefault(
                (scenario.distance_m, scenario.scheme_key, scenario.motion.name,
                 scenario.modem.payload_bits),
                scenario,
            )
        for scenario in shapes.values():
            scenario.build_session().run_packet()

    def op(self, i: int) -> Outcome:
        index, packet = self._ops[i % self.num_ops]
        if packet == 0:
            self._session = self.scenarios[index].build_session()
        result = self._session.run_packet()
        reference = self._first.setdefault((index, packet), result)
        return Outcome(check=lambda: _same_packet(reference, result))

    def shape_failures(self, records: list[RunRecord]) -> set[int]:
        """Indices of scenarios failing a workload-specific shape check."""
        return set()

    def finish(self) -> Finish:
        records = []
        failing = set()
        for index, scenario in enumerate(self.scenarios):
            results = [self._first.get((index, p)) for p in range(scenario.num_packets)]
            if any(result is None for result in results):
                failing.add(index)
                records.append(None)
                continue
            record = RunRecord.from_statistics(
                scenario, LinkStatistics.from_results(results)
            )
            if record.num_packets != scenario.num_packets or not (
                0.0 <= record.packet_error_rate <= 1.0
            ):
                failing.add(index)
            records.append(record)
        if not failing:
            failing |= self.shape_failures(records)

        # Determinism probe: a fresh session replays the first packets.
        probe = self.scenarios[0].build_session()
        probe_packets = min(2, self.scenarios[0].num_packets)
        for packet in range(probe_packets):
            if not _same_packet(probe.run_packet(), self._first.get((0, packet))):
                failing.add(0)

        self.failed.update(i for i, (index, _) in enumerate(self._ops) if index in failing)

        done = [r for r in records if r is not None]
        packets = sum(r.num_packets for r in done)
        delivered = sum(r.delivered for r in done)
        adaptive = [
            rate for r in done if r.scenario.scheme_key == "adaptive"
            for rate in r.finite_bitrates_bps
        ]
        pdr = delivered / packets if packets else 0.0
        return Finish(
            extra_ops=probe_packets,
            pdr=pdr,
            outputs={
                "link.per": 1.0 - pdr,
                "link.bitrate_p50_bps": float(np.median(adaptive)) if adaptive else 0.0,
            },
        )


class LinkRange(LinkWorkload):
    """Fig. 12 over four seed sets: lake, 5/10/20/30 m x four schemes x 25 packets."""

    DISTANCES_M = (5.0, 10.0, 20.0, 30.0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        sets = 1 if smoke else 4
        packets = 2 if smoke else 25
        seeds = draw_seeds(seed, 12, sets * len(self.DISTANCES_M))
        scenarios = []
        for set_index in range(sets):
            for d_index, distance in enumerate(self.DISTANCES_M):
                for scheme in SCHEMES:
                    scenarios.append(Scenario(
                        site="lake", distance_m=distance, scheme=scheme,
                        num_packets=packets,
                        seed=seeds[set_index * len(self.DISTANCES_M) + d_index],
                    ))
        super().__init__(scenarios)
        self.group = len(self.DISTANCES_M) * len(SCHEMES)

    def shape_failures(self, records: list[RunRecord]) -> set[int]:
        failing = set()
        for start in range(0, len(records), self.group):
            group = records[start:start + self.group]
            by_key = {(r.scenario.distance_m, r.scenario.scheme_key): r for r in group}
            near = by_key[(5.0, "adaptive")].median_bitrate_bps
            far = by_key[(30.0, "adaptive")].median_bitrate_bps
            worst_fixed = max(
                by_key[(30.0, scheme)].packet_error_rate for scheme in SCHEMES[1:]
            )
            adaptive_far_per = by_key[(30.0, "adaptive")].packet_error_rate
            if not (far < near and adaptive_far_per <= worst_fixed):
                failing.update(range(start, start + self.group))
        return failing


class LinkMobile(LinkWorkload):
    """Fig. 14 shape over 16 seed sets: lake, 5 m, adaptive, slow/fast
    motion x 16-bit (6 packets) / 192-bit (14 packets) payloads.

    The long bursts get the larger share of packets, so the median op sits
    inside one mode of the op-time distribution rather than in the gap
    between the short-packet and long-packet modes.
    """

    PACKETS = {16: 6, 192: 14}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        sets = 1 if smoke else 16
        seeds = iter(draw_seeds(seed, 14, sets * 4))
        scenarios = [
            Scenario(
                site="lake", distance_m=5.0, scheme="adaptive", motion=motion,
                modem=ModemSpec(payload_bits=payload_bits),
                num_packets=2 if smoke else packets, seed=next(seeds),
            )
            for _ in range(sets)
            for motion in ("slow", "fast")
            for payload_bits, packets in self.PACKETS.items()
        ]
        super().__init__(scenarios)


# ----------------------------------------------------------------- net
def _net_signature(result) -> str:
    data = result.to_dict()
    data["latencies_s"] = result.metrics.latencies_s().tolist()
    return json.dumps(data, sort_keys=True)


class NetScale:
    """40 seeded 1000-node grid trials; one op is one ``NetScenario.run``."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        trials = 2 if smoke else 40
        self.scenarios = [
            NetScenario(
                topology="grid", num_nodes=100 if smoke else 1000,
                spacing_m=8.0, comm_range_m=12.0, routing="greedy",
                link="calibrated", arq="go-back-n", traffic="poisson",
                rate_msgs_per_s=0.002, duration_s=120.0, ttl=80, seed=trial_seed,
            )
            for trial_seed in draw_seeds(seed, 1000, trials)
        ]
        self.num_ops = len(self.scenarios)
        self.failed: set[int] = set()
        self._first: dict[int, tuple[str, object]] = {}

    def warm_up(self) -> None:
        # Its result is the reference the first measured op must reproduce.
        result = self.scenarios[0].run()
        self._first[0] = (_net_signature(result), result)

    def op(self, i: int) -> Outcome:
        index = i % self.num_ops
        result = self.scenarios[index].run()

        def check() -> bool:
            # Conservation across three independent books: the senders'
            # offered count, the receivers' in-order deliveries and the
            # payload records never delivered.
            signature = _net_signature(result)
            reference, _ = self._first.setdefault(index, (signature, result))
            metrics = result.metrics
            offered = sum(s.offered for s in result.sender_stats.values())
            delivered = sum(
                s.delivered_in_order for s in result.receiver_stats.values()
            )
            lost = sum(1 for r in metrics.records if not r.delivered)
            return (
                signature == reference
                and delivered + lost == offered
                and offered == metrics.offered
            )

        return Outcome(check=check)

    def finish(self) -> Finish:
        results = [self._first[i][1] for i in sorted(self._first)]
        offered = sum(r.metrics.offered for r in results)
        delivered = sum(r.metrics.delivered for r in results)
        latencies = np.concatenate([r.metrics.latencies_s() for r in results])
        transmissions = sum(r.metrics.transmissions for r in results)
        data_transmissions = sum(
            s.data_transmissions for r in results for s in r.sender_stats.values()
        )
        pdr = delivered / offered if offered else 0.0
        return Finish(
            extra_ops=0,
            pdr=pdr,
            outputs={
                "net.pdr": pdr,
                "net.latency_p95_s": (
                    float(np.percentile(latencies, 95.0)) if latencies.size else 0.0
                ),
                "net.events": float(np.mean([r.num_events for r in results])),
                "net.collision_ratio": (
                    sum(r.metrics.collisions for r in results) / transmissions
                    if transmissions else 0.0
                ),
                "net.retx_ratio": (
                    sum(r.total_retransmissions for r in results) / data_transmissions
                    if data_transmissions else 0.0
                ),
                "net.aborted_flows": float(np.mean([r.aborted_flows for r in results])),
            },
        )


# ------------------------------------------------------------- service
class ServiceSweep:
    """Jobs of 1-packet link scenarios through ``SweepService``.

    Job ``k`` covers scenarios ``[k*H, k*H + 2H)`` of a seeded permutation
    of a site x distance x scheme x seed grid, so its first half was
    simulated by job ``k-1`` and is served from the per-scenario cache.
    One op submits the job, streams it, then resubmits it (now served
    from its artifact), streams the replay and fetches the ``.npz``.

    A job has 128 scenarios.  The service rewrites the whole manifest
    after every record, so that cost grows with the square of the job
    size; 128 is the largest size that still gives about ten ops in a
    20 s window.  The domain set is four jobs, 320 distinct scenarios.
    """

    SITES = ("lake", "bridge", "park")
    DISTANCES_M = (5.0, 10.0, 20.0)
    GRID_SEEDS = 64

    def __init__(self, seed: int, workdir: pathlib.Path, smoke: bool = False) -> None:
        self.half = 2 if smoke else 64
        self.num_ops = 3 if smoke else 4
        rng = np.random.default_rng([16, seed])
        seeds = [int(v) for v in rng.integers(0, 2**31 - 1, size=self.GRID_SEEDS)]
        grid = [
            (site, distance, scheme, scenario_seed)
            for site in self.SITES
            for distance in self.DISTANCES_M
            if distance <= SITE_CATALOG[site].max_range_m
            for scheme in SCHEMES
            for scenario_seed in seeds
        ]
        self._grid = [grid[i] for i in rng.permutation(len(grid))]
        self.failed: set[int] = set()
        self._workdir = workdir
        self._root = pathlib.Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
        self.service = SweepService(self._root, max_workers=1)
        self._previous: list[RunRecord] = []
        self._domain: list[RunRecord] = []
        self._job0: list[RunRecord] = []

    @staticmethod
    def _scenarios(entries) -> list[Scenario]:
        return [
            Scenario(site=site, distance_m=distance, scheme=scheme,
                     num_packets=1, seed=scenario_seed)
            for site, distance, scheme, scenario_seed in entries
        ]

    def job(self, k: int) -> list[Scenario]:
        """Scenarios of job ``k``."""
        size = len(self._grid)
        return self._scenarios(
            self._grid[(k * self.half + j) % size] for j in range(2 * self.half)
        )

    def _run_job(self, service: SweepService, scenarios: list[Scenario], fetch_to):
        started = time.perf_counter()
        job = service.submit(scenarios)
        records, ttfr = [], None
        for record in service.stream(job.job_id):
            if ttfr is None:
                ttfr = time.perf_counter() - started
            records.append(record)
        again = service.submit(scenarios)
        replay = list(service.stream(again.job_id))
        fetched = service.fetch(again.job_id, fetch_to)
        return records, replay, fetched, again, ttfr

    def warm_up(self) -> None:
        # One scenario per site x distance x scheme shape, in a scratch root.
        shapes = {}
        for entry in self._grid:
            shapes.setdefault(entry[:3], entry)
        root = pathlib.Path(tempfile.mkdtemp(prefix="warmup-", dir=self._workdir))
        try:
            self._run_job(
                SweepService(root, max_workers=1), self._scenarios(shapes.values()),
                root / "f.npz",
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def op(self, i: int) -> Outcome:
        scenarios = self.job(i)
        records, replay, fetched, again, ttfr = self._run_job(
            self.service, scenarios, self._root / "fetched.npz"
        )
        previous = self._previous if i > 0 else None
        self._previous = records

        def check() -> bool:
            ok = (
                again.done
                and len(records) == len(scenarios)
                and all(r.num_packets == 1 for r in records)
                and [r.scenario for r in records] == scenarios
                and replay == records
                and list(ColumnarResultSet.load_npz(fetched)) == records
            )
            if previous is not None:
                ok = ok and records[:self.half] == previous[self.half:]
            if i < self.num_ops:
                self._domain.extend(records if i == 0 else records[self.half:])
            if i == 0:
                self._job0 = records
            return ok

        return Outcome(ttfr_s=ttfr, check=check)

    def close(self) -> None:
        """Remove the service root."""
        shutil.rmtree(self._root, ignore_errors=True)

    def finish(self) -> Finish:
        # Determinism probe: job 0 rerun with no cache and no service.
        probe = ExperimentRunner(max_workers=1).run(self.job(0))
        if list(probe) != self._job0:
            self.failed.add(0)
        packets = sum(r.num_packets for r in self._domain)
        delivered = sum(r.delivered for r in self._domain)
        adaptive = [
            rate for r in self._domain if r.scenario.scheme_key == "adaptive"
            for rate in r.finite_bitrates_bps
        ]
        pdr = delivered / packets if packets else 0.0
        return Finish(
            extra_ops=1,
            pdr=pdr,
            outputs={
                "link.per": 1.0 - pdr,
                "link.bitrate_p50_bps": float(np.median(adaptive)) if adaptive else 0.0,
            },
        )


WORKLOADS = ("link_range", "link_mobile", "net_scale", "service_sweep")

#: Units of the workload outputs reported with the per-layer metrics; a
#: workload that does not produce one reports 0.
OUTPUT_UNITS = {
    "link.per": "ratio",
    "link.bitrate_p50_bps": "bps",
    "net.pdr": "ratio",
    "net.latency_p95_s": "s",
    "net.events": "count/op",
    "net.collision_ratio": "ratio",
    "net.retx_ratio": "ratio",
    "net.aborted_flows": "count/op",
}


def build(name: str, seed: int, workdir: pathlib.Path, smoke: bool = False):
    """Construct a workload's inputs from its seed."""
    if name == "link_range":
        return LinkRange(seed, smoke)
    if name == "link_mobile":
        return LinkMobile(seed, smoke)
    if name == "net_scale":
        return NetScale(seed, smoke)
    if name == "service_sweep":
        return ServiceSweep(seed, workdir, smoke)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
