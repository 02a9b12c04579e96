"""senslab: Monte Carlo measurement of how far statistical estimators move
when an adversary replaces a bounded fraction of the sample."""

from .adversaries import (
    AdversaryOutcome,
    block_layout,
    block_resample,
    couple_gaussian_pair,
    hamming_ball_sup,
    local_shift_adversary,
    median_worst_case,
    resampling_adversary,
    tv_coupling_adversary,
)
from .analysis import (
    IneqCheckResult,
    binomial_point_mass,
    binomial_tail,
    chernoff_tail_bound,
    chi2_gaussian_products,
    chi2_localshift_bound,
    chi2_localshift_mc,
    chi2_products_mc,
    cramer_rao_check,
    efron_stein_check,
    gaussian_lr_identity_check,
    hcr_check,
    hypergeom_mgf_check,
    tv_gaussian_shift,
    uniform_spacing_check,
)
from .bernoulli import (
    BernoulliModel,
    bernoulli_expected_sensitivity,
    beta_binomial_layer_law,
)
from .core import (
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    compute_k,
    hamming_distance,
    standard_normal,
    uniform_open,
)
from .estimators import (
    ESTIMATOR_NAMES,
    ClipInterval,
    Estimator,
    build_estimator,
    clip_estimator,
    layer_estimator,
    mean_estimator,
    median_estimator,
    plugin_estimator,
    project_scalar,
    sample_unit_direction,
)
from .harness import (
    ADVERSARY_NAMES,
    EXACT_ADVERSARIES,
    SCHEMA,
    CouplingObstructionReport,
    MeanObstructionReport,
    ScalingFit,
    SensitivityReport,
    UnboundedSensitivityError,
    VarianceObstructionReport,
    VerifyRow,
    all_pass,
    coupling_obstruction_high,
    estimate_es,
    format_verify_table,
    mean_obstruction_low,
    scaling_sweep,
    variance_obstruction,
    verify_suite,
)

__version__ = "0.1.0"
