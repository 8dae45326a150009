"""Exact Dirichlet products evaluated at Fibonacci numbers.

Rank of apparition, contractions of arithmetic functions along it, their
summatory functions, and a verification harness for the identities, closed
forms and asymptotic constants they satisfy.
"""

from .numtheory import (
    ArithFn,
    BudgetExceededError,
    DIVISOR_COUNT,
    Factorization,
    LIOUVILLE,
    MANGOLDT,
    MU,
    NAMED_FUNCTIONS,
    ONE,
    PHI,
    dirichlet_convolve,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    liouville,
    mangoldt_base,
    mertens,
    mobius,
    zeta_partial,
)
from .fib import (
    GOLDEN_RATIO,
    LCM_GROWTH_CONSTANT,
    entry_exponent,
    fib_mod,
    lcm_fib,
    primitive_primes,
    rank,
)
from .contraction import (
    alpha_contract,
    alpha_contract_iter,
    closed_delta23,
    closed_lambda_alpha,
    closed_mu_alpha,
    closed_mu_alpha2,
    closed_mu_alpha3,
    contributors,
    divisor_union_ranks,
    summatory_S,
    summatory_T,
)
from .verify import (
    VerificationReport,
    asymptotic_mangoldt_report,
    check_T_tables,
    check_corollary_completely_mult,
    check_theorem1,
    constant_c,
    euler_product_check,
    phi_recursive_fib,
    pi_alpha_bound_report,
    run_suite,
)

__version__ = "0.1.0"
