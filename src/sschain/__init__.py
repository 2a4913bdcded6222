"""Non-increasing integer Markov chains and their self-similar scaling limits.

A numerical laboratory: transition-law zoo, exact absorption-time
analysis, subordinator simulation with the exponential clock change, and
a statistics harness that verifies the limit theorems at desk scale.
"""

__version__ = "0.1.0"

from .measures import (BetaTerm, FiniteMeasure, LevyMeasure, LevyTriple,
                       MeasureError, atom, barrier_levy_measure, barrier_measure,
                       beta_density, bracket, laplace_exponent, lebesgue, levy_atom,
                       levy_triple)
from .kernels import (CoalescentKernel, CompositionKernel, ExplicitKernel, Kernel,
                      KernelConstructionError, StepDistribution, barrier_kernel,
                      beta_coalescent_kernel, canonical_kernel, coalescent_kernel,
                      collapse_absorbing, composition_kernel, finite_step,
                      hypothesis_h_diagnostic, ignored_jump_kernel, power_tail,
                      truncated_kernel)
from .chain_engine import (ChainPath, Composition, CoupledTriple, RescaledPath,
                           StepFunction, TimeChange, coupled_barrier_triple,
                           composition_from_path, martingale_M, martingale_additive,
                           martingale_upsilon, rescale, sample_absorption_times,
                           sample_marginal_states, sample_path, time_change)
from .exact_dp import (MomentTable, absorption_distribution, absorption_moments,
                       marginal_moment)
from .limit_process import (InsufficientHorizonError, LimitSample, SubordinatorPath,
                            analytic_moments, balls_in_gaps, default_cutoff, lamperti,
                            sample_exponential_functional, sample_gap_compositions,
                            sample_subordinator, sample_y_marginals,
                            sample_z_marginals)
from .stats import (EstimateWithError, TrendReport, empirical_moment, ks_distance,
                    trend_verdict)
from .streams import philox_rng
