"""Sessions built from cached, seed-independent parts.

A session's modem, device-chain FIR and per-band symbols are memoized per
process, and the channel builds its multipath taps only when a transmit
needs them.  None of that may change a packet: the same scenario gives
identical results cold (every memo empty), warm (every memo filled by an
earlier run) and in a fresh interpreter.  The memos are bounded and the
arrays they share are read-only.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.channel import channel as channel_module
from repro.core import coding, feedback, modem as modem_module
from repro.core.adaptation import selection_from_bins
from repro.core.config import ProtocolConfig
from repro.core.modem import AquaModem, shared_modem
from repro.dsp.fastconv import CHANNEL_SPECTRUM_CACHE
from repro.experiments import ModemSpec, Scenario

#: Static, slow and fast motion; 16- and 192-bit payloads; a fixed scheme.
SCENARIOS = (
    Scenario(site="lake", distance_m=10.0, num_packets=2, seed=3),
    Scenario(site="bridge", distance_m=5.0, motion="slow", num_packets=2, seed=4,
             modem=ModemSpec(payload_bits=192)),
    Scenario(site="park", distance_m=5.0, motion="fast", num_packets=2, seed=5),
    Scenario(site="lake", distance_m=20.0, scheme="fixed-1.5k", num_packets=2,
             seed=6, modem=ModemSpec(payload_bits=192)),
)

_RUN_ALL = """
import json, sys
from repro.experiments import Scenario
scenarios = [Scenario.from_dict(d) for d in json.loads(sys.stdin.read())]
print(json.dumps([[repr(r) for r in s.run().results] for s in scenarios]))
"""


def _clear_memos() -> None:
    modem_module._shared_modems.cache_clear()
    channel_module._device_chain.cache_clear()
    coding._training_values.cache_clear()
    coding._training_symbol.cache_clear()
    feedback._feedback_symbol.cache_clear()
    CHANNEL_SPECTRUM_CACHE.clear()


def _run_all(scenarios=SCENARIOS) -> list[list[str]]:
    return [[repr(r) for r in s.run().results] for s in scenarios]


def test_session_is_identical_cold_warm_and_in_a_fresh_process():
    _clear_memos()
    cold = _run_all()
    # Warm: the memos hold what other seeds and the same scenarios in the
    # opposite order left behind, as in the middle of a sweep.
    _clear_memos()
    _run_all([dataclasses.replace(s, seed=s.seed + 100) for s in SCENARIOS])
    warm = _run_all(SCENARIOS[::-1])[::-1]
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ALL],
        input=json.dumps([s.to_dict() for s in SCENARIOS]),
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    fresh = json.loads(done.stdout)
    assert cold == warm == fresh
    assert all(len(results) == 2 for results in cold)
    # Equal specs share one modem; a different payload gets its own.
    first, again = SCENARIOS[0].build_session(), SCENARIOS[0].build_session()
    assert first.modem is again.modem
    assert SCENARIOS[1].build_session().modem is not first.modem


def test_lazy_taps_keep_the_rng_draws_and_rebuild_after_randomize():
    forward = SCENARIOS[0].build_session().forward_channel
    assert forward._taps is None  # nothing built before a transmit needs it
    taps = forward._impulse_response
    assert np.array_equal(taps, forward.multipath.impulse_response(forward.sample_rate_hz))
    forward.randomize(np.random.default_rng(1))
    assert forward._taps is None
    assert not np.array_equal(forward._impulse_response, taps)


def test_direct_construction_stays_private():
    assert AquaModem() is not AquaModem()
    assert shared_modem() is shared_modem(protocol_config=ProtocolConfig())
    assert ModemSpec().build() is ModemSpec().build()


def test_shared_caches_are_bounded_and_read_only():
    _clear_memos()
    modem = ModemSpec().build()
    config = modem.ofdm_config
    bins = range(config.first_data_bin, config.last_data_bin + 1)
    bands = [selection_from_bins(start, end, config)
             for start in bins for end in bins if end >= start]
    assert len(bands) > coding.BAND_CACHE_SIZE
    for band in bands:
        modem.encoder.training_symbol(band)
        modem.build_feedback(band)
    for memo in (coding._training_values, coding._training_symbol,
                 feedback._feedback_symbol):
        info = memo.cache_info()
        assert info.maxsize == coding.BAND_CACHE_SIZE
        assert info.currsize <= info.maxsize
    for payload_bits in range(1, modem_module._shared_modems.cache_info().maxsize + 3):
        ModemSpec(payload_bits=payload_bits).build()
    info = modem_module._shared_modems.cache_info()
    assert info.currsize <= info.maxsize
    assert channel_module._device_chain.cache_info().maxsize is not None

    band = bands[0]
    forward = SCENARIOS[0].build_session().forward_channel
    shared = [
        forward._device_fir,
        modem.bandpass.taps,
        modem.encoder.training_symbol(band),
        modem.encoder.training_bin_values(band),
        modem.build_feedback(band),
        modem.preamble_generator.waveform(),
    ]
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 1.0
