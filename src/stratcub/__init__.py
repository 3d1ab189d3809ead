"""Stratified random cubature on the torus and sphere.

Equal-measure diameter-bounded partitions, one uniform node per cell, and
the machinery to measure the resulting integration error: per-function
moment errors, exact dual-form worst-case errors over potential-space unit
balls, their two-sided square-function brackets, scale-indexed gradient
norms with computable error bounds, and convergence-rate fits.
"""

from .space import SPHERE2, TORUS, SpaceDescriptor, ball_measure, distance, make_space, sample_uniform
from .partition import (Partition, PartitionReport, cell_contains, cell_sample,
                        sphere_zonal_partition, torus_grid_partition, verify_partition)
from .kernel import CONST, RIESZ, ROUGH_RIESZ, KernelSpec, SingularPairError, regime_classify
from .sets import SetDescriptor, make_arc, make_box, make_cap, psi_tube_measure
from .funcs import TestFunction, make_function
from .cubature import ErrorStats, draw_nodes, estimate_BN
from .wce import (WceConfig, WceReport, delta_phi, estimate_AN, gamma_phi,
                  lower_hypothesis_probe, worst_case_error)
from .besov import (PhiGradient, besov_norm_bound_chi, besov_rhs_bounds,
                    chi_phi_gradient, poincare_check, sharpness_fn)
from .mz import MzReport, mz_pair
from .rates import RateFit, rate_fit
from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"
