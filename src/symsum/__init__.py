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
    verify_even_linear_family,
    verify_x1_family,
)
from .boolean_core import (
    MAX_VARIABLES,
    AnfExpression,
    AnfSyntaxError,
    BooleanFunction,
    WeightProfile,
    all_profiles,
    anf_parse,
    anf_to_function,
    weight_profile,
)
from .diophantine import (
    FoldedKey,
    GammaAlphabet,
    SolutionVector,
    canonical_key,
    class_enumeration_metric,
    count_classes,
    count_solutions,
    direct_enumeration_metric,
    enumerate_classes,
    gamma_integral_metric,
    gamma_via_integral,
)
from .expsum import (
    DeltaVector,
    SymmetricSpec,
    binom_parity,
    delta_vector,
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
