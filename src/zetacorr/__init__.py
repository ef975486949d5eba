"""Correlation sums over Riemann zeta zero ordinates.

Exact rational constants, certified Dirichlet series, two independent
evaluation routes for the correlation sum, and the repulsion-dip
analysis of the kernel profile.
"""

import os

# set before numpy loads OpenBLAS, whose idle worker would spin; a caller's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arithmetic import MangoldtTable, sieve_mangoldt
from .combinatorics import (
    balanced_coefficient,
    balanced_sinc_constant,
    dip_depth_prediction,
    sinc_product_exact,
)
from .correlation import (
    CorrelationReport,
    build_report,
    direct_correlation_sum,
    main_term,
    parse_tuple_text,
    routes_agree,
    spectral_correlation_sum,
)
from .dips import DipRecord, match_to_zeros, scan_grid, scan_minima, t_grid
from .errors import BudgetError, DataError, DomainError, ResourceError
from .series import closed_form_profile_integral, correlation_kernel
from .tuples import CoefficientTuple, coefficient_tuple
from .weights import GaussianTriplet, class_membership_report, gaussian_triplet
from .zeros import (
    ZeroTable,
    bundled_zeros_path,
    load_zeros,
    riemann_von_mangoldt_count,
    validate_zero_table,
    write_zeros,
    zeros_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CoefficientTuple",
    "CorrelationReport",
    "DataError",
    "DipRecord",
    "DomainError",
    "GaussianTriplet",
    "MangoldtTable",
    "ResourceError",
    "ZeroTable",
    "balanced_coefficient",
    "balanced_sinc_constant",
    "build_report",
    "bundled_zeros_path",
    "class_membership_report",
    "closed_form_profile_integral",
    "coefficient_tuple",
    "correlation_kernel",
    "dip_depth_prediction",
    "direct_correlation_sum",
    "gaussian_triplet",
    "load_zeros",
    "main_term",
    "match_to_zeros",
    "parse_tuple_text",
    "riemann_von_mangoldt_count",
    "routes_agree",
    "scan_grid",
    "scan_minima",
    "sieve_mangoldt",
    "sinc_product_exact",
    "spectral_correlation_sum",
    "t_grid",
    "validate_zero_table",
    "write_zeros",
    "zeros_up_to",
]
