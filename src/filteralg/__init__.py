"""Exact toolkit for graded algebras cut out by upward-closed sets of partitions."""

from .partitions import (
    Partition,
    check_partition,
    conjugate,
    contains,
    display_partition,
    enumerate_partitions,
    format_partition,
    hook_rectangle,
    in_hook,
    parse_partition,
)
from .lr import LRExpansion, lr_coefficient, outer_product
from .dims import f_lambda, hs_eval, schur_dim, w_dim
from .filters import Filter, classical_identity_degree
from .series import (
    DimensionSeries,
    GrowthReport,
    dim_quotient,
    series,
    verify_growth,
)
from .oracle import (
    CapExceeded,
    MultilinearPoly,
    SuperBasis,
    br_cube,
    check_annihilation,
    check_ideal,
    commutator_product,
    ee_identity_kernel_dim,
    evaluate_identity,
    generated_ideal,
    ideal_subspace,
    is_identity_EE,
    module_W,
    multilinear_from_free,
    multilinearize,
    named_poly,
    popov5a,
    popov5b,
    s3_cubed,
    standard_poly,
    standard_tableau,
)

__version__ = "0.1.0"
