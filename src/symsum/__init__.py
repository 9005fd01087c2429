"""Exact exponential sums of symmetric Boolean functions, their perturbations,
and the bounded binomial Diophantine equations behind balancedness."""

from .balance import (
    BalanceStatus,
    BalanceVerdict,
    EventualBalanceReport,
    VerificationError,
    WindowEntry,
    balance_window_report,
    classify,
    classify_range,
    eventual_balance,
    fibonacci,
    luca_szalay_gap,
    parity_function,
    periodic_propagation,
    singmaster_gap,
    singmaster_parameters,
    single_variable,
    verify_even_linear_family,
    verify_x1_family,
)
from .boolean_core import (
    MAX_VARIABLES,
    AnfExpression,
    AnfSyntaxError,
    BooleanFunction,
    WeightProfile,
    all_functions,
    all_profiles,
    anf_parse,
    anf_to_function,
    exp_sum_bruteforce,
    function_to_anf,
    symmetric_function,
    symmetric_sigma_eval,
    weight_profile,
)
from .diophantine import (
    BudgetExceeded,
    FoldedKey,
    GammaAlphabet,
    SolutionVector,
    canonical_key,
    class_enumeration_metric,
    count_classes,
    count_solutions,
    direct_enumeration_metric,
    enumerate_classes,
    enumerate_solutions,
    enumerate_trivial_solutions,
    gamma_integral_metric,
    gamma_via_integral,
    trivial_count,
)
from .expsum import (
    DeltaVector,
    SymmetricSpec,
    binom_parity,
    delta_vector,
    exp_sum_perturbation_decomposed,
    exp_sum_profile,
    exp_sum_symmetric,
    periodic_binomial_sums,
    shifted_identity_gap,
)
from .recurrence import (
    CyclotomicValue,
    RecurrencePoly,
    d0,
    d_coefficients,
    epsilon,
    extend,
    first_violation,
    lambda_value,
    master_recurrence,
    min_char_factors,
    min_char_poly,
    minimality_certificate,
    satisfies,
    xi_power,
)
from .search_cli import Campaign, main, run_search

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
