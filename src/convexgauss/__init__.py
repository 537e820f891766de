"""Gaussian geometry of open convex sets at desk scale.

Whitened Gaussian models, membership-oracle convex bodies with gauge
functions, boundary graph decompositions, Hausdorff-Gauss surface measures,
and two-sided verification of the boundary integration-by-parts identity.
"""

from .bodies import (
    ConvexBody,
    ball,
    cylinder,
    ellipsoid,
    from_oracle,
    halfspace,
    kl_ellipsoid,
    lebesgue_density,
    load_body_spec,
    minkowski_functional,
    minkowski_gradient_fd,
    polytope,
    random_polytope,
    slab,
    translate,
)
from .errors import (
    BodySpecError,
    CaseError,
    ConvexGaussError,
    DegenerateDirectionError,
    DegeneracyError,
    DirectionError,
    DomainError,
    MarginError,
    MassError,
    OracleIntegrityError,
    ParameterError,
    UnsupportedOrderError,
)
from .graphs import (
    GraphPair,
    boundary_classify,
    choose_direction,
    classify_case,
    decompose,
    default_direction_candidates,
    function_graph,
    graph_value_and_gradient,
    section_interval,
)
from .ibp import (
    VerificationReport,
    constant,
    coordinate,
    distance_clamp,
    gradient_formula_check,
    lhs_volume_integral,
    psi_from_spec,
    rhs_surface_integral,
    tanh_of,
    validate_test_function,
    verify_ibp,
)
from .space import (
    EstimateWithError,
    GaussianModel,
    TestFunction,
    adjoint_derivative,
    as_direction,
    brownian_kl_profile,
    gauss_hermite_nodes,
    gaussian_density,
    normalize_direction,
    sample_gaussian,
    split_along,
)
from .surface import (
    Budget,
    area_formula_integral,
    epigraph_perimeter,
    graph_surface_integral,
    minkowski_content_perimeter,
    subspace_hausdorff,
    total_boundary_measure,
)

__version__ = "0.1.0"
