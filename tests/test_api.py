"""Tests for the package's public names and what importing it loads."""

import os
import subprocess
import sys

import pytest

import blockldp

PUBLIC_NAMES = [
    "BlockStats", "BrownianResult", "ConjugateResult", "DataError", "ExperimentConfig",
    "Fig1Result", "FrequencyResult", "MarkovSpec", "NumericalError", "Reader",
    "RegimeEvidence", "RegimeReport", "RunManifest", "SampledFunction", "ScgfModel",
    "Schedule", "SeriesSource", "UsageError", "__version__", "ball_mass",
    "bernoulli_model", "bernoulli_source", "block_means", "brownian_experiment",
    "brownian_pipeline", "classify", "digit_indicator_model", "digit_source",
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


def test_import_stays_lean():
    # scipy and mpmath are test-only, and the thread pool is imported only by
    # a block_means that splits; a fresh import of the CLI loads none of them.
    lean = ("scipy", "mpmath", "concurrent.futures")
    code = "import sys, blockldp.cli; print([m for m in %r if m in sys.modules])" % (lean,)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blockldp.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


# Each construction is refused where it is built, before any value is read.
REFUSED = {
    "bernoulli-p-above-1": lambda tmp: blockldp.SeriesSource(
        kind="iid-bernoulli", d=1, seed=1, p=2.0),
    "bernoulli-p-missing": lambda tmp: blockldp.SeriesSource(
        kind="iid-bernoulli", d=1, seed=1),
    "markov-spec-missing": lambda tmp: blockldp.SeriesSource(
        kind="markov-chain", d=1, seed=1),
    "digit-file-path-missing": lambda tmp: blockldp.SeriesSource(
        kind="digit-file", d=1, seed=0, m=10),
    "file-source-path-none": lambda tmp: blockldp.file_source(None, 10),
    "file-source-path-empty": lambda tmp: blockldp.file_source("", 10),
    "seed-float": lambda tmp: blockldp.digit_source(1.5, 10),
    "gaussian-d-float": lambda tmp: blockldp.gaussian_source(0, 1.5),
    "fig1-seed-float": lambda tmp: blockldp.fig1_pipeline(blockldp.ExperimentConfig(
        seeds=(1.5,), n_list=(20,), out_dir=str(tmp))),
    "reader-start-negative": lambda tmp: blockldp.Reader(blockldp.digit_source(1, 10), -1),
    "reader-start-float": lambda tmp: blockldp.Reader(blockldp.digit_source(1, 10), 0.5),
    "schedule-gamma-negative": lambda tmp: blockldp.Schedule(0.1, -1.0),
    "schedule-gamma-nan": lambda tmp: blockldp.Schedule(0.1, float("nan")),
}


@pytest.mark.parametrize("build", REFUSED.values(), ids=REFUSED.keys())
def test_invalid_constructions_are_refused(tmp_path, build):
    with pytest.raises(blockldp.UsageError):
        build(tmp_path)
