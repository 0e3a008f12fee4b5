"""Interior solver for quasi-linear elliptic systems with prescribed 1-jets.

The package discretizes the closed ball, computes weighted Hoelder norms
and Newtonian potentials on it, reduces quasi-linear systems to a zero-jet
Poisson form, and runs an adaptive fixed-point iteration whose byproducts
(norm amplification constants, contraction ratios, coefficient-deviation
estimates) are all measured and reported rather than assumed.  A small
search on top of the harmonic-map machinery yields upper bounds for a
Riemannian analogue of the Kobayashi metric.
"""

from .grid import (BallGrid, LatticeBall, PairSet, build_grid, build_pair_set,
                   fd_values, multi_indices)
from .holder import jet_norm, taylor_remainder_ratio, weighted_norm_values
from .kobayashi import (KobayashiEstimate, KobayashiQuery,
                        conformality_defect, estimate, is_conformal_jet,
                        orthogonal_partner)
from .oracle import uniform_ball_potential
from .picard import (AttemptRecord, HarmonicPolynomial, IterateState,
                     IterateEscaped, NoConvergence, OracleFailure,
                     ResidualReport, SolveConfig, SolveFailure, SolveReport,
                     choose_norm_radius, coefficient_deviation_sup,
                     make_state, origin_jet_magnitudes, picard_map,
                     picard_solve, residual_check,
                     seed_field_values, solve_system, solver_norm,
                     source_term)
from .potential import (KernelSpec, PotentialField,
                        check_potential_norm_bound, laplacian_consistency,
                        newtonian_potential, potential_hessian, quad_weights)
from .probes import (Probe, constant_probe, coordinate_probe, lemma_battery,
                     plane_exp, plane_sin, polynomial, potential_probes,
                     radius_squared_probe, separable, with_zero_jet)
from .reduce import (ChartError, EllipticityError, JetSpec, PoissonSystem,
                     SystemDef, check_ellipticity, diagonalize, shift_jet)
from .systems import (SYSTEM_REGISTRY, TARGET_REGISTRY, TargetManifold,
                      build_system, euclidean_target, harmonic_map_system,
                      hyperbolic_disk_target, minimal_surface_system,
                      poisson_system, prescribed_mean_curvature_system,
                      sphere_stereographic_target)
from .verify import run_lemma_suite

__version__ = "0.1.0"

__all__ = [
    "AttemptRecord", "BallGrid", "ChartError", "EllipticityError",
    "HarmonicPolynomial", "IterateEscaped", "IterateState",
    "JetSpec", "KernelSpec", "KobayashiEstimate",
    "KobayashiQuery", "LatticeBall", "NoConvergence",
    "OracleFailure", "PairSet", "PoissonSystem", "PotentialField", "Probe", "ResidualReport",
    "SolveConfig", "SolveFailure", "SolveReport",
    "SYSTEM_REGISTRY", "SystemDef", "TARGET_REGISTRY", "TargetManifold",
    "build_grid", "build_pair_set", "build_system",
    "check_ellipticity", "check_potential_norm_bound", "constant_probe",
    "coordinate_probe", "choose_norm_radius", "coefficient_deviation_sup",
    "conformality_defect", "diagonalize", "estimate", "euclidean_target",
    "fd_values", "harmonic_map_system", "hyperbolic_disk_target", "is_conformal_jet", "jet_norm",
    "laplacian_consistency", "lemma_battery", "make_state",
    "minimal_surface_system", "multi_indices", "newtonian_potential", "oracle",
    "origin_jet_magnitudes", "orthogonal_partner", "picard_map",
    "picard_solve", "plane_exp", "plane_sin", "poisson_system", "polynomial",
    "potential_hessian", "potential_probes", "radius_squared_probe",
    "prescribed_mean_curvature_system", "quad_weights", "residual_check",
    "run_lemma_suite",
    "seed_field_values", "separable", "shift_jet",
    "solve_system", "solver_norm", "source_term",
    "sphere_stereographic_target", "taylor_remainder_ratio",
    "uniform_ball_potential",
    "weighted_norm_values", "with_zero_jet",
]
