"""Exact-arithmetic invariants of isolated threefold singularities.

The package computes, over the rationals and without floating point:

* Tjurina and Milnor numbers of isolated hypersurface germs
  (standard bases for local orders, with an independent truncation oracle);
* the invariant package (tau, delta, r, b, a, ...) attached to small
  resolutions of suspended plane-curve germs;
* combinatorial invariants and type classification of exceptional-divisor
  configurations via their dual complexes;
* the coefficient-space map that splits off one root of a monic polynomial,
  with exact verification of its defining identities.
"""

from .errors import ConfigError, ConsistencyError, LocalWorkLimitError, ParseError
from .poly import (
    Poly,
    PolyMatrix,
    discriminant,
    parse_polynomial,
    resultant,
    univariate_gcd,
)
from .localring import (
    INFINITE,
    LocalIdeal,
    StandardBasis,
    milnor_number,
    quasi_homogeneous_weights,
    quotient_dim,
    stabilized_oracle_dim,
    standard_basis,
    tjurina_number,
    truncated_dim_oracle,
)
from .smallres import (
    Family,
    SmallResInvariants,
    SuspendedCurveGerm,
    germ_from_dict,
    plane_delta_invariant,
    small_res_invariants,
    small_res_report,
    suspension,
)
from .dualcomplex import (
    ClassificationResult,
    Cusp,
    DivisorConfiguration,
    DoubleCurve,
    DualComplex,
    Kind,
    MarkedData,
    SimpleElliptic,
    SurfaceComponent,
    TriplePoint,
    Verdict,
    build_dual_complex,
    classify,
    config_from_dict,
    config_to_dot,
    deformation_dims,
    h2_lower_bound,
    link_invariant,
    restriction_rank_b2,
    semistable_ell_check,
)
from .defspace import (
    FiberPoint,
    FiberResult,
    JacobianResult,
    RootFactorMap,
    apply_map,
    build,
    fiber_count,
    inverse_composition_reduces,
    jacobian_identity,
    ramification_check,
    reduce_mod_monic,
    verify_factor_identity,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConsistencyError", "LocalWorkLimitError", "ParseError",
    "Poly", "PolyMatrix", "parse_polynomial", "univariate_gcd",
    "resultant", "discriminant",
    "INFINITE", "LocalIdeal", "StandardBasis", "standard_basis",
    "quotient_dim", "milnor_number", "tjurina_number",
    "truncated_dim_oracle", "stabilized_oracle_dim", "quasi_homogeneous_weights",
    "Family", "SuspendedCurveGerm", "SmallResInvariants", "suspension",
    "plane_delta_invariant", "small_res_invariants", "small_res_report",
    "germ_from_dict",
    "Kind", "SurfaceComponent", "DoubleCurve", "TriplePoint", "MarkedData",
    "DivisorConfiguration", "DualComplex", "build_dual_complex",
    "link_invariant", "restriction_rank_b2", "deformation_dims",
    "Verdict", "ClassificationResult", "classify", "h2_lower_bound",
    "SimpleElliptic", "Cusp", "semistable_ell_check",
    "config_from_dict", "config_to_dot",
    "RootFactorMap", "build", "verify_factor_identity", "reduce_mod_monic",
    "inverse_composition_reduces", "JacobianResult", "jacobian_identity",
    "FiberPoint", "FiberResult", "fiber_count", "apply_map",
    "ramification_check",
]
