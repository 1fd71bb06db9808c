"""Nonparametric estimation for mixture cure models under right censoring.

Kernel-smoothed incidence and latency estimators, a bootstrap bandwidth
selector, Monte Carlo MISE experiments against benchmark populations,
and a quadrature oracle for the estimators' asymptotic bias and
variance.
"""

from .bootstrap import (
    BandwidthGrid,
    BootstrapConfig,
    MiseCurve,
    log_grid,
    mise_star,
    pilot_bandwidth,
    select_bandwidth,
)
from .cure import (
    CureFit,
    incidence_estimate,
    latency_estimate,
    latency_estimate_two_bw,
)
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateCureError,
    EmptyNeighborhoodError,
    EstimationError,
    NoUncensoredError,
    NpmixcureError,
    SupportGuardError,
)
from .experiments import (
    ExperimentConfig,
    MiseSurface,
    SelectorStudy,
    bootstrap_vs_optimal,
    true_mise,
    true_mise_two_bw,
)
from .io_utils import DatasetSchema, IngestReport, format_float, ingest
from .kernels import EPANECHNIKOV, Kernel, nw_weights
from .models import (
    COVARIATE_WINDOW,
    ExponentialCensoring,
    ModelSpec,
    NoCensoring,
    UniformCovariate,
    generate,
    model1,
    model2,
)
from .oracle import (
    AmseReport,
    BiasVarianceTerms,
    PhiDerivatives,
    PopulationFunctions,
    amse,
    bias_variance_terms,
    h_amise,
    phi,
    phi1,
    phi2_terms,
    phi_y_derivatives,
    population_from_model,
)
from .survival import (
    CensoredSample,
    StepSurvivalCurve,
    beran,
    kaplan_meier,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandwidthGrid",
    "BootstrapConfig",
    "MiseCurve",
    "log_grid",
    "mise_star",
    "pilot_bandwidth",
    "select_bandwidth",
    "CureFit",
    "incidence_estimate",
    "latency_estimate",
    "latency_estimate_two_bw",
    "ConfigError",
    "DataError",
    "DegenerateCureError",
    "EmptyNeighborhoodError",
    "EstimationError",
    "NoUncensoredError",
    "NpmixcureError",
    "SupportGuardError",
    "DatasetSchema",
    "IngestReport",
    "format_float",
    "ingest",
    "ExperimentConfig",
    "MiseSurface",
    "SelectorStudy",
    "bootstrap_vs_optimal",
    "true_mise",
    "true_mise_two_bw",
    "EPANECHNIKOV",
    "Kernel",
    "nw_weights",
    "COVARIATE_WINDOW",
    "ExponentialCensoring",
    "ModelSpec",
    "NoCensoring",
    "UniformCovariate",
    "generate",
    "model1",
    "model2",
    "AmseReport",
    "BiasVarianceTerms",
    "PhiDerivatives",
    "PopulationFunctions",
    "amse",
    "bias_variance_terms",
    "h_amise",
    "phi",
    "phi1",
    "phi2_terms",
    "phi_y_derivatives",
    "population_from_model",
    "CensoredSample",
    "StepSurvivalCurve",
    "beran",
    "kaplan_meier",
]
