"""pxlab: desk-scale numerical laboratory for quasilinear Neumann problems
with variable p(x) growth, cross-term inequality diagnostics, and hidden
convexity along segment paths."""

from .grid import (AnalyticFieldSpec, Grid, JetField, alpha_root_jet,
                   build_grid, discrete_gradient, integrate, jet_linear,
                   sample_jet, sample_values)
from .operators import (ExponentField, OperatorFamily, check_homogeneity,
                        exponent_field, image_coercivity_constants,
                        image_growth_constant, make_image_operator,
                        make_multiphase)
from .sources import (SourceFamily, make_fidelity_source, make_power_source,
                      make_zero_source)
from .hypotheses import (HypothesisReport, check_operator_hypotheses,
                         check_source_hypotheses)
from .inequality import (IntegralGap, ScalarIneqCase, fixture_counterexample,
                         fuzz_scalar_gaps, fuzz_subunit_gaps, integral_gap,
                         pointwise_gap, pointwise_gap_parts, quotient_jet,
                         ratio_power_jet, scalar_gap, subunit_power_gaps)
from .path import (BetaScan, PathContext, beta_scan, default_thetas, energy_J,
                   make_path, path_jets)
from .solver import (SolveConfig, SolveResult, discrete_energy,
                     discrete_hessian, discrete_residual, minimize,
                     residual_norm, synthetic_image, uniqueness_experiment,
                     verify_weak_solution)

__version__ = "0.1.0"
