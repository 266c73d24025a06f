"""Block empirical measures, empirical SCGFs and large-deviation diagnostics.

The package cuts long stationary sequences into k(n) blocks of length n,
estimates the scaled-cumulant generating function and its Legendre-Fenchel
conjugate from one sample path, classifies block-count schedules into
supercritical / critical / subcritical regimes, and ships the experiment
pipelines (digit statistics, Gaussian increments, word frequencies) plus a
CLI with deterministic CSV outputs.
"""

__version__ = "0.1.0"

from ._errors import DataError, NumericalError, UsageError
from .sources import (MarkovSpec, Reader, SeriesSource, bernoulli_source, digit_source,
                      file_source, gaussian_source, markov_source, pi_fixture_path)
from .blockstats import (BlockStats, SampledFunction, ball_mass, block_means,
                         pairwise_sum, scgf_values)
from .models import (ScgfModel, bernoulli_model, digit_indicator_model,
                     gaussian_model, markov_model)
from .convex import ConjugateResult, grad_estimate, legendre
from .regimes import RegimeReport, Schedule, classify, find_level_points
from .experiments import (BrownianResult, ExperimentConfig, Fig1Result,
                          FrequencyResult, RegimeEvidence, RunManifest,
                          brownian_experiment, fig1_pipeline, frequency_test,
                          regime_experiment)

__all__ = [
    "__version__",
    "DataError", "NumericalError", "UsageError",
    "MarkovSpec", "Reader", "SeriesSource", "bernoulli_source", "digit_source",
    "file_source", "gaussian_source", "markov_source", "pi_fixture_path",
    "BlockStats", "SampledFunction", "ball_mass", "block_means",
    "pairwise_sum", "scgf_values",
    "ScgfModel", "bernoulli_model", "digit_indicator_model", "gaussian_model",
    "markov_model",
    "ConjugateResult", "find_level_points", "grad_estimate", "legendre",
    "RegimeReport", "Schedule", "classify",
    "BrownianResult", "ExperimentConfig", "Fig1Result", "FrequencyResult",
    "RegimeEvidence", "RunManifest", "brownian_experiment", "fig1_pipeline",
    "frequency_test", "regime_experiment",
]
