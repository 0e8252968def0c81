"""torusdyn: lattice discretization and entropy diagnostics for torus maps.

The library discretizes area-preserving integer-matrix dynamics on the
2-torus onto an N x N lattice through cell-average (coherent-state style)
coarse-graining, and measures how long and how faithfully the finite
dynamics tracks the continuous one: image diameters and growth scales,
kernel localization and orbit shadowing, observable-evolution defects, and
lattice-vs-classical entropy production with its logarithmic-in-N breaking
times.
"""
from .lattice import (
    DEFAULT_CAPACITY,
    CapacityExceededError,
    LatticeConfig,
    LatticePoint,
    Permutation,
    TorusPoint,
    build_permutation,
    discrete_step,
    matrix_power_mod,
    orbit_period,
    round_coordinates,
    round_to_lattice,
    torus_distance_arrays,
)
from .maps import (
    Family,
    NonUnimodularError,
    SpectralData,
    ToralMatrix,
    TrivialMatrixError,
    breaking_time,
    cat_map,
    classify,
    diameter_bruteforce,
    diameter_formula,
    matrix_power_entries,
    quarter_turn,
    scaling_function,
    unit_shear,
)
from .rectangles import (
    TorusRectangle,
    arc_pieces,
    cell_interval_pieces,
    pieces_overlap,
    rectangle_overlap_area,
)
from .discretize import (
    DiagonalObservable,
    LocalizationReport,
    Observable,
    ShadowingReport,
    ThresholdUnmetError,
    check_dynamical_localization,
    check_orbit_shadowing,
    discretize_aw,
    egorov_defect,
    kernel,
    kernel_many,
    localization_threshold,
    shadowing_threshold,
)
from .entropy import (
    AlignmentRequiredError,
    CellWeightTable,
    DimensionMismatchError,
    EntropyComparison,
    KSEntropyReport,
    Partition,
    ProbabilityTable,
    cell_weights,
    compare_entropy_production,
    cs_entropies,
    cs_entropy,
    cs_probabilities,
    fannes_bound,
    is_aligned,
    ks_entropy_rate,
    partition_bands_x2,
    partition_entropy,
    partition_halves_x1,
    partition_halves_x2,
    partition_quadrants,
    shannon_entropy,
    snap_partition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # maps
    "Family", "NonUnimodularError", "SpectralData", "ToralMatrix",
    "TrivialMatrixError", "breaking_time", "cat_map", "classify",
    "diameter_bruteforce", "diameter_formula", "matrix_power_entries",
    "quarter_turn", "scaling_function", "unit_shear",
    # lattice
    "DEFAULT_CAPACITY", "CapacityExceededError", "LatticeConfig",
    "LatticePoint", "Permutation", "TorusPoint", "build_permutation",
    "discrete_step", "matrix_power_mod", "orbit_period",
    "round_coordinates", "round_to_lattice", "torus_distance_arrays",
    # rectangles
    "TorusRectangle", "arc_pieces", "cell_interval_pieces", "pieces_overlap",
    "rectangle_overlap_area",
    # discretize
    "DiagonalObservable", "LocalizationReport", "Observable",
    "ShadowingReport", "ThresholdUnmetError", "check_dynamical_localization",
    "check_orbit_shadowing", "discretize_aw", "egorov_defect", "kernel",
    "kernel_many", "localization_threshold", "shadowing_threshold",
    # entropy
    "AlignmentRequiredError", "CellWeightTable", "DimensionMismatchError",
    "EntropyComparison", "KSEntropyReport", "Partition", "ProbabilityTable",
    "cell_weights", "compare_entropy_production", "cs_entropies",
    "cs_entropy", "cs_probabilities", "fannes_bound", "is_aligned",
    "ks_entropy_rate", "partition_bands_x2", "partition_entropy",
    "partition_halves_x1", "partition_halves_x2", "partition_quadrants",
    "shannon_entropy", "snap_partition",
]
