"""Discrete associated kernel estimation of count-data p.m.f.s.

Smooths integer-valued samples with dirac, binomial, poisson, negative
binomial, or symmetric triangular kernels; selects bandwidths by
cross-validation; computes exact risk against known reference
distributions; and reruns the embedded reference studies.
"""

from .estimation import (
    BandwidthSelection,
    PmfEstimate,
    Sample,
    SearchConfig,
    cv_score,
    default_eval_hi,
    default_search_config,
    frequency_estimate,
    kernel_estimate_raw,
    normalize_estimate,
    select_bandwidth,
    select_bandwidths,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    SupportRange,
    binomial,
    dirac,
    kernel_mean,
    kernel_pmf,
    kernel_support,
    kernel_variance,
    modal_limit,
    modal_limit_ratio_negbin_poisson,
    modal_limit_ratio_poisson_binomial,
    modal_probability,
    negbin,
    pmf_grid,
    poisson,
    triangular,
    triangular_small_h_coeffs,
    validate_bandwidth,
)
from .risk import (
    PoissonPmf,
    RiskBreakdown,
    TabulatedPmf,
    TruePmf,
    amise,
    bias_expansion,
    bias_off_target,
    exact_bias,
    exact_mise,
    exact_variance,
    expected_estimate,
    expected_normalization,
    frequency_mise,
    variance_remainder,
)
from .simulation import (
    ReplicateResult,
    SimulationConfig,
    StudyCell,
    StudyReport,
    ise,
    replicate_stream,
    run_replicate,
    run_study,
    sample_from_pmf,
)
from .data_io import Dataset, builtin_dataset, load_counts, write_report

__version__ = "0.1.0"
