"""Nonparametric estimation for mixture cure models under right censoring.

Kernel-smoothed incidence and latency estimators, a bootstrap bandwidth
selector, Monte Carlo MISE experiments against benchmark populations,
and a quadrature oracle for the estimators' asymptotic bias and
variance.
"""

from types import ModuleType as _ModuleType

from .bootstrap import (
    BandwidthGrid,
    BootstrapConfig,
    MiseCurve,
    log_grid,
    mise_star,
    pilot_bandwidth,
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
from .io_utils import DatasetSchema, IngestReport, ingest
from .kernels import nw_weights
from .models import (
    ExponentialCensoring,
    ModelSpec,
    UniformCovariate,
    generate,
    model1,
    model2,
)
from .oracle import (
    AmseReport,
    BiasVarianceTerms,
    PhiDerivatives,
    amse,
    bias_variance_terms,
    h_amise,
    phi1,
    phi_y_derivatives,
)
from .survival import (
    CensoredSample,
    StepSurvivalCurve,
    beran,
    kaplan_meier,
)

__version__ = "0.1.0"

# the public names are those imported above
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_")
                            and not isinstance(value, _ModuleType))]
