"""Digital signal processing substrate for the AquaApp modem.

The modules here implement the generic building blocks the modem is
assembled from: constant-amplitude zero-autocorrelation (CAZAC) sequences,
pseudo-noise sign sequences, linear frequency modulated chirps, FIR filters,
correlation-based detection primitives, spectrum estimation helpers and
fractional resampling used to model Doppler.
"""

from repro.dsp.chirp import lfm_chirp
from repro.dsp.correlation import sliding_correlation_peak
from repro.dsp.filters import FIRBandpassFilter, design_bandpass_fir
from repro.dsp.resample import apply_doppler, fractional_delay
from repro.dsp.sequences import pn_sign_sequence, zadoff_chu
from repro.dsp.spectrum import band_power, magnitude_spectrum_db, power_spectral_density

__all__ = [
    "zadoff_chu",
    "pn_sign_sequence",
    "lfm_chirp",
    "design_bandpass_fir",
    "FIRBandpassFilter",
    "sliding_correlation_peak",
    "power_spectral_density",
    "band_power",
    "magnitude_spectrum_db",
    "apply_doppler",
    "fractional_delay",
]
