"""Exact periodic-point counts and directional entropy for rank-one
algebraic Z^d-actions."""

from .action import (
    CharPComponent,
    LaurentPolynomial,
    compute_places,
    entropy_rank_one_check,
    load_spec,
    mixing_check,
    parse_spec,
    place_spec,
)
from .counting import (
    charp_window_oracle,
    count_composite,
    count_prime_char0,
    count_prime_charp,
    ledrappier_axis_closed_form,
)
from .entropy import (
    EntropyFunction,
    directional_entropy,
    entropy_function_of,
    mahler_measure,
    nonexpansive_candidates,
    sphere_extrema,
)
from .errors import ConsistencyError, MathDomainError, ResourceLimitError, SpecError
from .numberfield import build_field
from .scan import g_value, phi_v, point_record, shell_scan, write_records_csv

__version__ = "0.1.0"
