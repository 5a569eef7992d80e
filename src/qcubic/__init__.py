"""Verification toolkit for the quaternionic cubic form on R^12.

The package is organized bottom-up:

    eigen        self-contained Jacobi eigensolver (reference oracle)
    quaternions  quaternion products and their 4x4 matrix representations
    symspace     the 78-dim space of symmetric 12x12 matrices, trace split
    sampling     seeded generator streams used by every sweep
    numdiff      central finite differences
    cubic        the cubic form, direction matrices, closed-form spectra
    hessian      the degree-2 potential w, its Hessian map, witness bounds
    cones        eigenvalue-ratio cones, duality, the support gauge x
    elliptic     the graph sample, the operator F, ellipticity/viscosity probes
    cli          the `qcubic` command-line driver
"""

from .cubic import (DirectionD, direction_from, eval_P, grad_P, q_matrix,
                    invariants_mn, spectrum_closed_form, direction_spectrum,
                    spectrum_sweep, perp_basis, perp_sweep,
                    cubic_roots_check, cor4_check, strata_directions)
from .cones import (ConeParams, in_K, in_K_star, in_L, support_x,
                    cone_condition, ConeConditionReport)
from .elliptic import (SigmaSample, build_sigma, sigma_from_sources,
                       validate_graph, save_cache, load_cache, CacheError,
                       GraphError, OperatorF, eval_F, g_tilde, operator_cone,
                       zero_level_curve, ellipticity_probe,
                       monotonicity_sweep, viscosity_probe)
from .hessian import (eval_w, grad_w, hess_w, H, witness_directions,
                      witness_sweep, third_derivative_sweep,
                      ratio_bound_estimate, RATIO_BOUND,
                      THIRD_DERIVATIVE_BOUND)

__version__ = "0.1.0"

__all__ = [
    "DirectionD", "direction_from", "eval_P", "grad_P", "q_matrix",
    "invariants_mn", "spectrum_closed_form", "direction_spectrum",
    "spectrum_sweep", "perp_basis", "perp_sweep",
    "cubic_roots_check", "cor4_check", "strata_directions",
    "ConeParams", "in_K", "in_K_star", "in_L", "support_x",
    "cone_condition", "ConeConditionReport",
    "SigmaSample", "build_sigma", "sigma_from_sources", "validate_graph",
    "save_cache", "load_cache", "CacheError", "GraphError", "OperatorF",
    "eval_F", "g_tilde", "operator_cone", "zero_level_curve",
    "ellipticity_probe", "monotonicity_sweep", "viscosity_probe",
    "eval_w", "grad_w", "hess_w", "H", "witness_directions",
    "witness_sweep", "third_derivative_sweep", "ratio_bound_estimate",
    "RATIO_BOUND", "THIRD_DERIVATIVE_BOUND",
]
