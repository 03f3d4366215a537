"""Shared helpers for the golden-equivalence test suites.

The golden tests compare fast implementations against the references in
``tests/oracles`` on *randomized* inputs, so a failure report is only actionable if it
names the seed (and input shape) that produced it.  These wrappers raise
``AssertionError`` messages that contain the offending seed, the measured
maximum deviation versus the allowed tolerance, and a ready-to-paste
reproduction snippet -- turning "assert_allclose failed somewhere in a
loop over 10 seeds" into a one-command repro.

The second half reruns whole link figures seed-paired with an oracle
patched in, for the A/B equivalence tests.
"""

from __future__ import annotations

import numpy as np
from oracles.channel import propagate_reference
from oracles.equalizer import dense_solve

from repro.channel.channel import UnderwaterAcousticChannel
from repro.core.equalizer import MMSEEqualizer
from repro.validation import MonteCarloRunner, get_figure
from repro.validation.figures import link_outcome


def _failure_message(
    label: str,
    seed,
    max_deviation: float,
    tolerance: float,
    detail: str = "",
) -> str:
    lines = [
        f"golden mismatch in {label!r}",
        f"  offending seed : {seed}",
        f"  max deviation  : {max_deviation:.3e} (allowed {tolerance:.3e})",
    ]
    if detail:
        lines.append(f"  inputs         : {detail}")
    lines.append(
        "  repro          : rng = np.random.default_rng("
        f"{seed!r}); rerun {label!r} with it"
    )
    return "\n".join(lines)


def assert_allclose_seeded(
    actual,
    desired,
    seed,
    label: str,
    atol: float = 0.0,
    rtol: float = 0.0,
    detail: str = "",
) -> None:
    """``np.allclose`` with a seed-carrying failure message.

    ``atol``/``rtol`` follow numpy semantics (``|a - d| <= atol + rtol *
    |d|``), including the default ``equal_nan=False`` -- a NaN anywhere is
    a failure, exactly like the plain ``np.allclose`` asserts this helper
    replaced (matching NaNs passing would open a hole in the golden gates:
    a regression producing NaN in both paths must not read as equivalence).
    On failure the raised ``AssertionError`` names the seed, the measured
    maximum deviation and the tolerance it exceeded.
    """
    actual = np.asarray(actual)
    desired = np.asarray(desired)
    if actual.shape != desired.shape:
        raise AssertionError(
            _failure_message(label, seed, float("inf"), atol,
                             detail=f"shape {actual.shape} != {desired.shape}"
                             + (f"; {detail}" if detail else ""))
        )
    if not np.allclose(actual, desired, atol=atol, rtol=rtol):
        deviation = np.abs(np.asarray(actual, dtype=float)
                           - np.asarray(desired, dtype=float))
        allowed = atol + rtol * np.abs(desired)
        # Report the element that overshoots its own per-element budget the
        # most (with rtol, the largest deviation may be a different --
        # passing -- element), so the message never reads as in-tolerance.
        over = deviation - allowed
        index = int(np.argmax(over))
        raise AssertionError(
            _failure_message(label, seed, float(deviation.flat[index]),
                             float(np.ravel(allowed)[index] if np.ndim(allowed)
                                   else allowed),
                             detail=detail)
            + f"\n  over budget by : {float(over.flat[index]):.3e}"
        )


def assert_bit_identical_seeded(actual, desired, seed, label: str, detail: str = "") -> None:
    """Exact array equality with a seed-carrying failure message.

    For decision-level comparisons (decoded bits, survivor paths) where
    the contract is bit-identity, not closeness.  ``equal_nan=True``
    mirrors the ``np.testing.assert_array_equal`` calls this replaced,
    which treat matching NaNs as equal by design.
    """
    actual = np.asarray(actual)
    desired = np.asarray(desired)
    if actual.shape != desired.shape or not np.array_equal(actual, desired, equal_nan=True):
        mismatches = (
            int(np.count_nonzero(actual != desired))
            if actual.shape == desired.shape
            else -1
        )
        raise AssertionError(
            _failure_message(
                label, seed, float(mismatches), 0.0,
                detail=(f"{mismatches} mismatching elements"
                        if mismatches >= 0
                        else f"shape {actual.shape} != {desired.shape}")
                + (f"; {detail}" if detail else ""),
            )
        )


# ------------------------------------------------------- seed-paired figure A/B
#: Runtime method -> test oracle swaps the whole-figure A/B reruns apply.
#: ``"fast-path"`` runs every channel through the seed ``fftconvolve``
#: pipeline, ``"solver"`` every equalizer fit through the dense O(n^3)
#: Toeplitz solve.
ORACLE_VARIANTS = {
    "fast-path": (UnderwaterAcousticChannel, "_propagate_fast", propagate_reference),
    "solver": (MMSEEqualizer, "_solve", dense_solve),
}

#: Per-metric bound on the largest absolute seed-paired difference.
#: Decisions are expected to be identical (delta exactly 0.0); 0.01
#: tolerates a lone borderline packet in a 100-packet campaign without
#: masking real divergence.
AB_TOLERANCES = {"coded_ber": 0.01, "per": 0.01, "detection_rate": 0.01}


def patch_oracle(monkeypatch, variant: str) -> list:
    """Swap one runtime method for its oracle; returns the oracle's call log."""
    owner, name, oracle = ORACLE_VARIANTS[variant]
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _figure_outcomes(figure: str, trials: int, base_seed: int, quick: bool) -> list:
    # A fresh runner per side, in-process and without a result cache: the
    # two sides run identical scenarios, so any shared memo would compare
    # a run with itself.
    runner = MonteCarloRunner(trials=trials, base_seed=base_seed, max_workers=1)
    scenarios = runner.scenarios_for(get_figure(figure), quick=quick)
    return [link_outcome(record) for record in runner.run_link_records(scenarios)]


def _metric_value(outcome, metric: str) -> float:
    if metric in outcome.counts:
        successes, total = outcome.counts[metric]
        return successes / total if total else float("nan")
    return float(outcome.values[metric])


def seed_paired_max_deltas(
    monkeypatch,
    variant: str,
    figure: str = "ber_vs_snr",
    trials: int = 2,
    base_seed: int = 0,
    quick: bool = True,
) -> dict[str, float]:
    """Rerun a link figure on the runtime and on an oracle, seed-paired.

    Returns the largest absolute per-trial difference of each
    :data:`AB_TOLERANCES` metric.  Fails if the oracle was never called or
    a metric has no finite pair, so the comparison cannot pass vacuously.
    """
    runtime = _figure_outcomes(figure, trials, base_seed, quick)
    with monkeypatch.context() as patch:
        calls = patch_oracle(patch, variant)
        oracle = _figure_outcomes(figure, trials, base_seed, quick)
    assert calls, f"{variant} oracle was never called"
    assert len(runtime) == len(oracle)
    deltas = {}
    for metric in AB_TOLERANCES:
        pairs = [
            abs(_metric_value(a, metric) - _metric_value(b, metric))
            for a, b in zip(runtime, oracle)
        ]
        finite = [d for d in pairs if d == d]  # NaN: no data in that trial
        assert finite, f"{figure}/{variant}/{metric}: no finite pair"
        deltas[metric] = max(finite)
    return deltas
