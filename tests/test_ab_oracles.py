"""Seed-paired A/B of a whole link figure: runtime fast paths vs oracles.

The golden tests pin each fast kernel to its oracle at the function
level; this reruns the CI campaign (``ber_vs_snr``, quick grid, 2 trials,
base seed 0) once on the runtime and once with an oracle patched in --
same scenarios, same seeds -- and compares the link metrics pairwise.
Both oracles agree with the fast paths to ~1e-9 of the signal while bit
decisions have margins orders of magnitude larger, so the reruns are
expected to make identical decisions packet for packet.
"""

import pytest

from _golden_utils import AB_TOLERANCES, ORACLE_VARIANTS, seed_paired_max_deltas


@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
def test_ber_vs_snr_campaign_matches_oracle(monkeypatch, variant):
    deltas = seed_paired_max_deltas(monkeypatch, variant, "ber_vs_snr",
                                    trials=2, base_seed=0, quick=True)
    for metric, tolerance in AB_TOLERANCES.items():
        assert deltas[metric] <= tolerance, (variant, metric, deltas)
    if variant == "fast-path":
        assert deltas["coded_ber"] <= 1e-12, deltas
