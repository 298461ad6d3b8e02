"""Bernstein-type tail bounds for functions of weakly interacting variables.

A verification-grade toolkit: the operator calculus on finite product
probability spaces, the interaction functionals that measure how much the
variation of a function in one argument depends on the others, the entropy
machinery connecting them to exponential tail bounds, and applications to
U-statistics and regularized least squares.  Every inequality ships with an
exact brute-force or seeded Monte Carlo check; see ``harness`` and the
``interaction-bounds`` command-line tool.
"""

from .space import (
    CapacityError,
    Configuration,
    DEFAULT_CAP,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    expectation,
    variance,
)
from .operators import (
    cond_expectation,
    cond_variance,
    cond_variance_pairs,
    scv,
    self_bounding_operator,
    substitute,
)
from .functionals import (
    GibbsState,
    InteractionReport,
    conditional_entropy,
    entropy,
    gibbs,
    gibbs_expectation,
    herbst_log_mgf,
    interaction,
    interaction_report,
    log_mgf,
    weighted_interaction,
)
from .bounds import (
    BoundReport,
    bias_second_difference_bound,
    bound_ingredients,
    bounded_difference_variance_term,
    chatterjee_variance,
    chernoff_infimum,
    conditional_mean_variance_sum,
    efron_stein_gap,
    main_bound,
    per_coordinate_range_bound,
    psi,
    psi_ratio_inequality,
    sup_bernstein_bound,
    variance_corollary_bound,
)
from .harness import (
    RandomInstanceSpec,
    SuiteReport,
    exact_tail,
    generate_instance,
    run_property_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
