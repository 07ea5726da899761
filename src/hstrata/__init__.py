"""Exact computation and enumeration of H-stratum dimensions via diagrams.

The stratum dimension attached to an m x n Cauchon diagram is computed by
three mutually independent routes: the odd-cycle count of the diagram's toric
permutation, the kernel dimension of its skew-symmetric white-square matrix,
and closed-form / generating-function counting.  All arithmetic is exact.
"""

from .diagrams import Diagram, DiagramParseError
from .enumeration import (
    StratumTally,
    cauchon_diagrams,
    diagram_from_permutation,
    tally_dimensions,
)
from .exactlinalg import (
    cycle_kernel_basis,
    in_white_kernel,
    kernel_basis,
    kernel_dim,
    rank,
    to_boundary_kernel,
    to_square_kernel,
    white_adjacency_matrix,
)
from .genfunc import (
    ClosedForm,
    RatPoly,
    TruncatedSeries3,
    asymptotic_proportion,
    closed_form_coeffs,
    double_factorial_coeff,
    double_factorial_poly,
    poly_bernoulli,
    poly_bernoulli_series,
    series_pipeline_check,
    single_cycle_count,
    stirling2,
    stratum_count,
    stratum_poly,
    stratum_series,
)
from .pipedreams import (
    Permutation,
    all_black_permutation,
    cycle_decomposition,
    is_restricted,
    odd_cycle_count,
    toric_endpoint_table,
    toric_permutation,
    trace_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedForm",
    "Diagram",
    "DiagramParseError",
    "Permutation",
    "RatPoly",
    "StratumTally",
    "TruncatedSeries3",
    "all_black_permutation",
    "asymptotic_proportion",
    "cauchon_diagrams",
    "closed_form_coeffs",
    "cycle_decomposition",
    "cycle_kernel_basis",
    "diagram_from_permutation",
    "double_factorial_coeff",
    "double_factorial_poly",
    "in_white_kernel",
    "is_restricted",
    "kernel_basis",
    "kernel_dim",
    "odd_cycle_count",
    "poly_bernoulli",
    "poly_bernoulli_series",
    "rank",
    "series_pipeline_check",
    "single_cycle_count",
    "stirling2",
    "stratum_count",
    "stratum_poly",
    "stratum_series",
    "tally_dimensions",
    "to_boundary_kernel",
    "to_square_kernel",
    "toric_endpoint_table",
    "toric_permutation",
    "trace_permutation",
    "white_adjacency_matrix",
]
