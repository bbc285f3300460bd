"""Desk-scale numerics for cyclicity of the point-mass singular inner function
in weighted Bergman-type spaces: weight families, boundary sets, implicit
domain boundaries, Phragmen-Lindelof integrals with a Monte Carlo harmonic
measure oracle, auxiliary inner/outer functions, and the arc-classification
cyclicity criterion with closed-form threshold oracles."""

from .boundary import Arc, BoundarySet, complementary_arcs, distance_to_set
from .criterion import (
    KAPPA,
    CriterionReport,
    DivergenceVerdict,
    arc_contribution,
    classify_arc,
    criterion_partials,
    default_checkpoints,
    divergence_verdict,
    threshold_oracle,
    threshold_value,
)
from .auxfun import (
    GammaRegionSpec,
    PrivalovShadow,
    c_lambda,
    f_lambda,
    h_lambda,
    in_gamma_region,
    keldysh_outer,
    singular_inner,
)
from .errors import CapacityError, CyclicityError, DomainError, NumericError, UsageError
from .geometry import (
    GammaSolution,
    HalfplaneCoords,
    gamma_criterion_partial,
    solve_gamma,
    solve_profile_y,
    to_halfplane,
)
from .phragmen import DomainProfile, arc_length_s, harmonic_measure_mc, pl_divergence_integrand, sigma
from .weights import WeightSpec, check_regularity, condition_integrand, eval_lambda, eval_w

__version__ = "0.1.0"
