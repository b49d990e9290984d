"""Exact m-adic approximation toolkit over power-series rings in one and two
variables: sparse polynomial algebra, Groebner-based ideal computations,
Weierstrass preparation and division, certified Newton refinement of
approximate solutions, and effective bound calculators.
"""

from .bounds import (
    BoundReport,
    beta_estimate,
    colon_degree_bound,
    default_a_fn,
    doubly_exponential_bound,
    elkik_degree_bound,
    gamma,
    isolated_singularity_bound,
    power_exponent,
    unit_a_fn,
)
from .errors import (
    CapacityError,
    DomainMismatchError,
    HypothesisError,
    MadicError,
    ParseError,
    PrecisionError,
    UnsupportedInstanceError,
)
from .fields import QQ, PrimeField, RationalField
from .groebner import (
    DEGREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    buchberger,
    colon,
    elkik_ideal,
    ideal_equal,
    intersect,
    normal_form,
    radical_member,
)
from .parse import parse_polynomial, parse_series
from .poly import NEG_INF, Polynomial, PolyMatrix, determinant, jacobian, minors
from .series import OrderValue, SeriesVector, TruncatedSeries, evaluate
from .solver import (
    MinorSelection,
    OneVarSystem,
    ProbeReport,
    RefinementCertificate,
    SolverConfig,
    approximate_solve,
    artin_probe,
    build_one_var_system,
    rank_minors,
    select_minor,
    solve_one_var,
    tougeron_refine,
)
from .weierstrass import (
    DistinguishedPolynomial,
    LinearChange,
    PreparedDivisor,
    divide_series,
    generic_euclid,
    prepare,
    regularize,
    w_divide,
    weierstrass_divide,
    y_regular_order,
)

__version__ = "0.1.0"
