"""Numerical verification of entropy lower bounds for symmetric random vectors.

The package estimates differential entropies and Fisher informations of
Gaussian-mixture laws and checks, with quantified uncertainty, the bound
h(sum_i X_i / sqrt n) >= h(X)/n for sign-symmetric X, its directional and
balanced k-dimensional extensions, its equality cases, and the supporting
Fisher-information machinery.
"""

from .bases import (
    BalanceReport,
    BalancedProjection,
    OrthonormalBasis,
    ProofBasisFamily,
    balanced_projection,
    check_balanced,
    gram_schmidt,
    proof_basis_family,
    sign_vertex_basis,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    DimensionTooSmallError,
    EmptyMixtureError,
    IndexOutOfRangeError,
    LinearlyDependentError,
    NegativeTimeError,
    NonFiniteLogDensityError,
    NonFiniteScoreError,
    NotBalancedError,
    NotPositiveDefiniteError,
    NotSymmetricBaseError,
    NotSymmetricError,
    NotUnitVectorError,
    NotUnivariateError,
    RankDeficientError,
    SymentropyError,
    TooFewSamplesError,
    TruncationInsufficientError,
    UnsupportedDimensionError,
    UnsupportedShapeError,
)
from .estimators import (
    EntropyEstimate,
    FisherEstimate,
    MixedPartialReport,
    MomentEstimate,
    QuadratureSpec,
    ScoreProjectionReport,
    cross_term_mc,
    entropy_knn,
    entropy_mc,
    entropy_quadrature_1d,
    fisher_mc,
    mixed_partial_independence,
    projection_entropy,
    score_projection_residual,
)
from .fixtures import (
    bimodal_1d,
    bimodal_product,
    builtin_law,
    correlated_gaussian,
    gaussian_iid,
    rotated_bimodal,
    trimodal_1d,
)
from .harness import (
    Budget,
    DirectionScanReport,
    EqualityDemoReport,
    GaussianityProbeReport,
    InequalityReport,
    asymmetric_counterexample,
    direction_scan,
    equality_demo_n2,
    gaussianity_probe,
    verify_directional,
    verify_fisher_lemma,
    verify_kdim,
    verify_main,
)
from .heat_flow import FisherPath, entropy_via_debruijn, fisher_path
from .mixtures import (
    DensityModel,
    GaussianMixture,
    SymmetryReport,
    check_symmetry,
    convolve_isotropic,
    law_fingerprint,
    make_gaussian_mixture,
    mixture_from_json,
    mixture_to_json,
    push_forward_linear,
    rotated_iid_construction,
    sample,
    symmetrize,
)
from .streams import split_seed

__version__ = "0.1.0"
