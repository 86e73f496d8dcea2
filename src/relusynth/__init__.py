"""Exact feedforward ReLU network synthesis for discrete piecewise linear
functions, with hyperplane-arrangement combinatorics and verification
tooling."""

from .core import (
    ACTIVATION_TOL,
    MARGIN,
    RANK_TOL,
    VERIFY_TOL,
    ActivationPattern,
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    activation_pattern,
    affine_fit,
    forward,
    forward_batch,
    forward_masks,
    forward_traced,
    numeric_rank,
    solve_constrained,
    solve_square,
)
from .arrangement import (
    Arrangement,
    Region,
    count_regions_2d,
    count_regions_bound,
    distinguishable_regions,
    enumerate_regions,
    general_position,
)
from .bundles import (
    BundleConfig,
    common_point_bundle,
    same_classification_bundle,
)
from .ordering import (
    DistinguishableOrder,
    SeparationResult,
    check_distinguishable,
    distinguishable_order,
    maximum_hyperplane,
    projection_order,
    separate,
)
from .shallow import (
    synth_classifier,
    synth_interpolate,
    synth_multi_output,
    synth_two_subdomains,
)
from .affine import (
    EmbeddingDecomposition,
    decompose_embedding,
    interference_avoiding_weights,
    lift_hyperplane,
    passthrough_layer,
    restrict_hyperplane,
    transform_hyperplane,
    widen_network,
)
from .deep import (
    PartitionTree,
    build_partition_tree,
    synth_decoder,
    synth_deep,
)
from .randmat import SphereSampler, rank_probability, sample_matrix
from .report import BuildFailure, ConstructionReport

__version__ = "0.1.0"
