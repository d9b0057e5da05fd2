"""Random spanning forests on weighted directed networks.

The package exposes four layers:

* :mod:`forestnets.network` and :mod:`forestnets.norms` -- networks,
  invariant measures, weighted signal norms;
* :mod:`forestnets.oracle` -- exact determinantal statistics of the
  random forest law (partition functions, inclusion probabilities, root
  counts, loop-erased path laws, hitting times);
* :mod:`forestnets.sampler` -- reproducible forest and loop-erased walk
  sampling plus empirical cross-checks and parameter tuning;
* :mod:`forestnets.coarsegrain` and :mod:`forestnets.wavelets` --
  Schur-complement network reduction, link operators with their quality
  functionals, and the multiresolution transform for signals.
"""

from .errors import (
    DegenerateBasis,
    DuplicateEdge,
    EmptyBlock,
    ForestnetsError,
    InvalidParams,
    InvalidStart,
    MalformedInput,
    NonPMF,
    NonPositiveWeight,
    NotIrreducible,
    NotSelfAvoiding,
    NumericalError,
    ShapeMismatch,
    SingularSystem,
    UnknownEdge,
    UnnormalizedMeasure,
    ValidationError,
    ZeroCoefficient,
    ZeroProbability,
)
from .network import Network, build_network, skeleton
from .norms import (
    condition_measure,
    holder_conjugate,
    lp_norm,
    mu_inner,
    tv_distance,
)
from .oracle import (
    GreenKernel,
    RootCountLaw,
    charpoly_root_coeffs,
    edge_inclusion_prob,
    green,
    hitting_times,
    lerw_path_prob,
    mean_root_hitting,
    mean_root_hitting_conditional,
    partition_fn,
    root_count_law,
    root_count_moments,
    root_inclusion_prob,
    transfer_current,
)
from .sampler import (
    RootedForest,
    SampleStats,
    TuningRecord,
    conditional_root_equilibrium_check,
    default_q_grid,
    empirical_stats,
    estimate_tuning,
    loop_erased_walk,
    restricted_equilibrium,
    sample_with_m_roots,
    wilson_sample,
)
from .coarsegrain import (
    ReducedNetwork,
    ResidualReport,
    SqueezingResult,
    beta_gamma,
    gram,
    intertwining_error_tv,
    kernel_link,
    metastable_kernel,
    operator_intertwining_residual,
    partition_link,
    schur_complement,
    schur_reduce,
    sparsify,
    squeezing,
    squeezing_spectral_bound,
    tv_meta_bound,
)
from .wavelets import (
    CompressionResult,
    Pyramid,
    PyramidLevel,
    StabilityReport,
    analyze_level,
    approximation,
    basis_functions,
    build_pyramid,
    compress,
    compression_curve,
    reconstruct_level,
    reconstruct_pyramid,
    signal_levels,
    stability_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
