"""Tests for the package's public names."""

import blockldp

PUBLIC_NAMES = [
    "BlockStats", "BrownianResult", "ConjugateResult", "DataError", "ExperimentConfig",
    "Fig1Result", "FrequencyResult", "MarkovSpec", "NumericalError", "Reader",
    "RegimeEvidence", "RegimeReport", "RunManifest", "SampledFunction", "ScgfModel",
    "Schedule", "SeriesSource", "UsageError", "__version__", "ball_mass",
    "bernoulli_model", "bernoulli_source", "block_means", "brownian_experiment",
    "classify", "digit_indicator_model", "digit_source", "empirical_scgf",
    "fig1_pipeline", "file_source", "find_level_points", "frequency_test",
    "gaussian_model", "gaussian_source", "grad_estimate", "legendre", "markov_model",
    "markov_source", "pairwise_sum", "pi_fixture_path", "regime_experiment",
    "scgf_values",
]


def test_public_names_are_pinned():
    # Adding or dropping an export is an edit of this list.
    assert sorted(blockldp.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(blockldp, name), name
