"""Interior solver for quasi-linear elliptic systems with prescribed 1-jets.

The package discretizes the closed ball, computes weighted Hoelder norms
and Newtonian potentials on it, reduces quasi-linear systems to a zero-jet
Poisson form, and runs an adaptive fixed-point iteration whose byproducts
(norm amplification constants, contraction ratios, coefficient deviations
over the nodes) are all measured and reported rather than assumed.  A small
search on top of the harmonic-map machinery yields upper bounds for a
Riemannian analogue of the Kobayashi metric.
"""

from .grid import (BallGrid, LatticeBall, PairSet, build_grid, build_pair_set,
                   fd_values, multi_indices)
from .holder import taylor_remainder_ratio, weighted_norm_values
from .kobayashi import KobayashiQuery, estimate
from .picard import (AttemptRecord, HarmonicPolynomial, IterateEscaped,
                     NoConvergence, SolveConfig, SolveReport,
                     choose_norm_radius, coefficient_deviation_sup,
                     make_state, picard_map, picard_solve, residual_check,
                     solve_system, solver_norm, source_term)
from .potential import (KernelSpec, PotentialField,
                        check_potential_norm_bound, laplacian_consistency,
                        newtonian_potential, potential_hessian, quad_weights,
                        uniform_ball_potential)
from .probes import (Probe, constant_probe, lemma_battery, polynomial,
                     potential_probes, with_zero_jet)
from .reduce import (ChartError, EllipticityError, JetSpec, OracleFailure,
                     PoissonSystem, SolveFailure, SystemDef,
                     check_ellipticity, diagonalize, shift_jet)
from .systems import (SYSTEM_REGISTRY, TARGET_REGISTRY, TargetManifold,
                      build_system, euclidean_target, harmonic_map_system,
                      hyperbolic_disk_target, minimal_surface_system,
                      poisson_system, prescribed_mean_curvature_system,
                      sphere_stereographic_target)
from .verify import run_lemma_suite

__version__ = "0.1.0"

__all__ = [
    "AttemptRecord", "BallGrid", "ChartError", "EllipticityError",
    "HarmonicPolynomial", "IterateEscaped", "JetSpec", "KernelSpec",
    "KobayashiQuery", "LatticeBall", "NoConvergence", "OracleFailure",
    "PairSet", "PoissonSystem", "PotentialField", "Probe", "SolveConfig",
    "SolveFailure", "SolveReport", "SYSTEM_REGISTRY", "SystemDef",
    "TARGET_REGISTRY", "TargetManifold",
    "build_grid", "build_pair_set", "build_system", "check_ellipticity",
    "check_potential_norm_bound", "choose_norm_radius",
    "coefficient_deviation_sup", "constant_probe", "diagonalize",
    "estimate", "euclidean_target", "fd_values", "harmonic_map_system",
    "hyperbolic_disk_target", "laplacian_consistency", "lemma_battery",
    "make_state", "minimal_surface_system", "multi_indices",
    "newtonian_potential", "picard_map", "picard_solve", "poisson_system",
    "polynomial", "potential_hessian", "potential_probes",
    "prescribed_mean_curvature_system", "quad_weights", "residual_check",
    "run_lemma_suite", "shift_jet", "solve_system", "solver_norm",
    "source_term", "sphere_stereographic_target", "taylor_remainder_ratio",
    "uniform_ball_potential", "weighted_norm_values", "with_zero_jet",
]
