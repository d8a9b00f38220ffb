"""Filter-based regularization of statistical linear inverse problems in the
Gaussian sequence model, with data-driven parameter selection and a seeded
Monte Carlo harness for convergence-rate studies.

The value types (FilterSpec, SpectralProblem, ExperimentConfig, RiskRow
and the others) are frozen records, built on :class:`invreg._record.Record`.
A sample of Y is a plain (n,) float array, and a study's table is a tuple
of its rows."""

__version__ = "0.1.0"

from .filters import (
    ALL_FAMILIES,
    FilterSpec,
    filter_value,
    s_value,
)
from .model import (
    SpectralProblem,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from .montecarlo import (
    DiagonalDescriptor,
    EfficiencyRow,
    ExperimentConfig,
    GreenDescriptor,
    RiskRow,
    run_efficiency_experiment,
    run_rate_experiment,
)
from .problems import (
    NumericFailure,
    TestFunction,
    make_diagonal_problem,
    make_green_problem,
)
from .ratetest import (
    DegenerateVarianceError,
    RateSample,
    RateTestResult,
    SingularDesignError,
    estimate_delta,
    normal_cdf,
    rate_test,
    weighted_slope_fit,
)
from .risk import (
    RiskDecomposition,
    direct_risk,
    empirical_prediction_risk,
    lepskii_threshold,
    prediction_risk,
)
from .selection import (
    GridScorer,
    build_grid,
)
