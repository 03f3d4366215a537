"""Direct correlation metrics the preamble detector's fast paths match.

* :func:`normalized_cross_correlation` -- the coarse detector as one
  ``fftconvolve`` per call (``TemplateCorrelator`` caches the template
  spectrum and runs overlap-save; agreement ~1e-10);
* :func:`normalized_sliding_correlation` -- the fine metric of one window;
* :func:`sliding_correlation_curve_reference` -- that metric evaluated in a
  per-offset loop (``sliding_correlation_curve`` uses prefix sums;
  agreement ~1e-9 relative).
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.dsp.correlation import _EPS, _candidate_offsets


def normalized_cross_correlation(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Return the template-normalized cross-correlation of ``received``.

    The output has one value per alignment of the template inside the
    received buffer (``len(received) - len(template) + 1`` values).  Each
    value is normalized by the energy of the template and of the
    corresponding received window, so it lies in ``[-1, 1]``.
    """
    received = np.asarray(received, dtype=float)
    template = np.asarray(template, dtype=float)
    if template.size == 0 or received.size < template.size:
        raise ValueError("received signal must be at least as long as the template")
    # FFT-based correlation: much faster than np.correlate for the long
    # preamble templates used here.
    raw = sp_signal.fftconvolve(received, template[::-1], mode="valid")
    template_energy = float(np.sqrt(np.sum(template ** 2)))
    # Rolling energy of the received windows, via cumulative sums.
    squared = received ** 2
    cumulative = np.concatenate([[0.0], np.cumsum(squared)])
    window_energy = np.sqrt(cumulative[template.size:] - cumulative[: received.size - template.size + 1])
    return raw / (template_energy * np.maximum(window_energy, _EPS))


def normalized_sliding_correlation(
    window: np.ndarray,
    segment_length: int,
    pn_signs: np.ndarray,
) -> float:
    """Return the normalized sliding-correlation metric for one window.

    The window is divided into ``len(pn_signs)`` segments of
    ``segment_length`` samples.  Each segment is multiplied by its PN sign
    and neighbouring segments are correlated; the summed correlations are
    normalized by the window energy.  A true preamble (identical repeated
    symbols with those signs) yields a value near 1.
    """
    window = np.asarray(window, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    num_segments = pn_signs.size
    needed = segment_length * num_segments
    if window.size < needed:
        raise ValueError(
            f"window of {window.size} samples too short for {num_segments} "
            f"segments of {segment_length} samples"
        )
    segments = window[:needed].reshape(num_segments, segment_length) * pn_signs[:, None]
    correlation = 0.0
    for i in range(num_segments - 1):
        correlation += float(np.dot(segments[i], segments[i + 1]))
    energy = float(np.sum(window[:needed] ** 2)) * (num_segments - 1) / num_segments
    return correlation / max(energy, _EPS)


def sliding_correlation_curve_reference(
    received: np.ndarray,
    start: int,
    stop: int,
    segment_length: int,
    pn_signs: np.ndarray,
    step: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset loop implementation, retained as the golden reference."""
    received = np.asarray(received, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    window_length = segment_length * pn_signs.size
    offsets = _candidate_offsets(received.size, start, stop, window_length, step)
    metric = np.empty(offsets.size, dtype=float)
    for i, offset in enumerate(offsets):
        metric[i] = normalized_sliding_correlation(
            received[offset:offset + window_length], segment_length, pn_signs
        )
    return offsets, metric
