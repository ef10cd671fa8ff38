"""domlab: a desk-scale numerical laboratory for tail domination,
weak concentration and majorisation of sums of independent symmetric
random vectors in R^d (d <= 16).

Every quantity is computed either exactly (enumeration over finite
supports and sign patterns, or closed-form survival functions) or by
deterministic Monte Carlo with exact binomial confidence intervals;
claims about tails are answered with three-valued verdicts
(holds / violated / inconclusive), never with a point estimate alone.
"""

from .distributions import (DIMENSION_CAP, PRODUCT_SUPPORT_CAP, FiniteSupportDist,
                            ProductLaw, SamplerSource,
                            analytic_survival, enumerate_sign_classes, enumerate_sum,
                            gaussian, pareto_tail, scaled_source, symmetric_stable)
from .dominance import (DominationQuery, DominationReport, NormRecord, ProxyValue,
                        check_domination, proxy_bound_check, proxy_exact, proxy_mc,
                        tail_method, tail_table, tensorisation_experiment)
from .errors import CapacityError, ParameterError, PreconditionError
from .geometry import (ELLIPSOID_CONDITION_CAP, EllipsoidNorm, LpNorm,
                       PolytopeGauge, ScaledNorm, WeightedLpNorm, absolute_value,
                       euclidean, norm_from_spec, norm_to_spec, random_norm_family,
                       scale_norm)
from .inequalities import (SIGN_ENUMERATION_CAP, SignInstance, sign_mean_exact,
                           sign_tail_exact, sign_tail_mc, signed_mean_over_outcomes,
                           verify_L1L2, verify_PZ, verify_contraction,
                           verify_kahane, verify_sum_inequalities)
from .majorisation import (CounterexampleTable, PermutationMixture,
                           counterexample_experiment, decompose,
                           schur_convexity_check, weighted_domination_constants,
                           weighted_domination_experiment)
from .stats import (DEFAULT_CONFIDENCE, EXACT, Estimator, SlackReport,
                    TailEstimate, clopper_pearson, compare_tails, worst_verdict)
from .weakborell import (WBParams, WBReport, check_wb, recursion_bound,
                         wb_sum_experiment, wb_tensorize_constants)

__version__ = "0.1.0"
