"""Numerical laboratory for sub-linear expectation limit theorems.

Exact upper/lower expectations over finite ambiguity sets, conditional
expectation operators on scenario trees, a monotone solver for the G-heat
equation, and experiment drivers that compare exact pre-limit values of
normalised sums with their G-normal limits.
"""

from .ambiguity import (AmbiguitySet, DiscreteDistribution, LatticeSpec,
                        TestFunction, capacity_lower, capacity_upper,
                        expect_lower, expect_upper, expect_upper_member,
                        iid_sum_expect, independent_sum_expect, nested_expect,
                        nested_product, point_mass, running_max_expect,
                        symmetric_bernoulli_family, truncate, two_point_sum_expect)
from .cltlab import (HeterogeneousRows, IidRows, TreeRows, check_iid_necessary_conditions,
                     estimate_limit_G, run_clt_experiment, run_fdd_experiment)
from .errors import ConfigError, DomainError, ResourceCapError
from .gfunc import GFunction, SigmaInterval, g_1d, g_eval, g_eval_argmax, verify_g_laws
from .pde import (Grid, PdeEstimate, gbm_fdd_expect, gbm_quadratic_identity,
                  gnormal_expect, solve_gheat)
from .trees import (MartingaleArray, ScenarioTree, TreeRandomVariable, cond_expect,
                    cond_expect_lower, drift_stat, expectation, iid_level_tree,
                    lift, lindeberg_stat, quadratic_characteristic, random_tree,
                    rosenthal_check, tree_from_text, tree_to_text,
                    verify_operator_laws)

__version__ = "0.1.0"
