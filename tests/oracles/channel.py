"""Seed ``fftconvolve`` propagation pipeline of the underwater channel.

:meth:`UnderwaterAcousticChannel._propagate_fast` collapses the multipath
and device-FIR convolutions into cached transfer functions.  This oracle
runs the original chain of separate ``scipy.signal.fftconvolve`` passes;
the two agree to ~1e-12 relative (``tests/test_fastpath_golden.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.channel.channel import UnderwaterAcousticChannel
from repro.channel.motion import MotionState
from repro.dsp.resample import apply_doppler


def propagate_reference(
    channel: UnderwaterAcousticChannel,
    scaled: np.ndarray,
    motion_state: MotionState,
    doppler: float,
    duration_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed propagation pipeline: 2-3 separate ``fftconvolve`` passes.

    Same signature as ``UnderwaterAcousticChannel._propagate_fast`` with
    the channel in place of ``self``, so it can be patched in as that
    method.  Mutates the channel's drift state exactly like the fast path.
    """
    static_part = sp_signal.fftconvolve(scaled, channel._impulse_response)
    if motion_state.drift_rate_per_s > 0:
        drifted_multipath = channel._drifted_multipath(motion_state, rng)
        drifted_response = drifted_multipath.impulse_response(channel.sample_rate_hz)
        drifted_part = sp_signal.fftconvolve(scaled, drifted_response)
        propagated = channel._drift_mix(static_part, drifted_part, motion_state, duration_s)
        # The drift persists: the next transmission starts from the channel
        # the devices have drifted into, so consecutive transmissions (e.g.
        # the preamble and the later data burst) see different channels --
        # exactly the effect the paper's Fig. 16 experiment measures.
        channel.multipath = drifted_multipath
        channel._impulse_response = drifted_response
    else:
        propagated = static_part

    # Doppler time-scaling.
    if abs(doppler - 1.0) > 1e-9:
        propagated = apply_doppler(propagated, doppler)

    # Receive chain: cascaded device/case frequency response.
    received = sp_signal.fftconvolve(propagated, channel._device_fir)
    return received[channel._device_fir_delay:]
