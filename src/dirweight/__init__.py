"""dirweight: weighted Dirichlet series toolkit.

Arithmetic kernels, truncated Dirichlet series algebra, weight families
with declared abscissas and growth bounds, the Mobius-convolution
nonnegativity condition computed by three cross-checked routes, and
numeric kernel evaluation with Gram positivity witnesses.
"""

from .arith import (
    Factorization,
    ResourceLimitError,
    big_omega,
    divisor_count,
    divisors,
    factorize,
    gpf,
    mobius,
    mobius_sieve,
    omega,
)
from .series import (
    EvaluatedValue,
    FormalDirichletSeries,
    convolve,
    evaluate,
    from_coeffs,
    inverse_zeta_coeffs,
    power,
    zeta_coeffs,
)
from .weights import (
    MeasureSpec,
    WeightFamily,
    additive_from_prime_powers,
    family_from_config,
    measure_induced,
    multiplicative_from_prime_powers,
    named_family,
)
from .condition import (
    ConditionReport,
    additive_Tt,
    check_range,
    divisor_sum,
    mult_product,
    prime_power_check,
    von_mangoldt_alpha,
)
from .kernel import (
    GramCheck,
    HalfPlanePoint,
    condition_kernel_ratio,
    condition_kernel_series,
    default_grid,
    gram_psd,
    weight_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "ResourceLimitError",
    "factorize",
    "mobius",
    "mobius_sieve",
    "divisors",
    "divisor_count",
    "gpf",
    "omega",
    "big_omega",
    "FormalDirichletSeries",
    "EvaluatedValue",
    "from_coeffs",
    "zeta_coeffs",
    "inverse_zeta_coeffs",
    "convolve",
    "power",
    "evaluate",
    "WeightFamily",
    "MeasureSpec",
    "named_family",
    "family_from_config",
    "multiplicative_from_prime_powers",
    "additive_from_prime_powers",
    "measure_induced",
    "ConditionReport",
    "divisor_sum",
    "mult_product",
    "additive_Tt",
    "von_mangoldt_alpha",
    "check_range",
    "prime_power_check",
    "GramCheck",
    "HalfPlanePoint",
    "weight_kernel",
    "condition_kernel_ratio",
    "condition_kernel_series",
    "default_grid",
    "gram_psd",
    "__version__",
]
