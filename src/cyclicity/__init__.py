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
    c_lambda,
    h_lambda,
    in_gamma_region,
    keldysh_outer,
)
from .errors import CapacityError, CyclicityError, DomainError, NumericError, UsageError
from .geometry import (
    GammaSolution,
    HalfplaneCoords,
    gamma_criterion_partial,
    solve_gamma,
    to_halfplane,
)
from .phragmen import DomainProfile, arc_length_s, harmonic_measure_mc, sigma
from .weights import WeightSpec, check_regularity, eval_lambda

__version__ = "0.1.0"
