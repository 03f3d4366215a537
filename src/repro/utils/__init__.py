"""Small shared utilities: unit conversions, RNG, validation, progress,
atomic file writes."""

from repro.utils.atomic import atomic_write
from repro.utils.progress import progress_emitter
from repro.utils.rng import ensure_rng
from repro.utils.units import (
    amplitude_ratio_to_db,
    db_to_amplitude_ratio,
    db_to_power_ratio,
    power_ratio_to_db,
)
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = [
    "atomic_write",
    "ensure_rng",
    "progress_emitter",
    "db_to_power_ratio",
    "power_ratio_to_db",
    "db_to_amplitude_ratio",
    "amplitude_ratio_to_db",
    "require_positive",
    "require_non_negative",
    "require_in_range",
]
