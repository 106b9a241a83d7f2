"""Exact periodic-point counts and directional entropy for rank-one
algebraic Z^d-actions."""

from .action import (
    ActionSpec,
    Char0Component,
    CharPComponent,
    LaurentPolynomial,
    PlacedComponent,
    PlacedSpec,
    compute_places,
    entropy_rank_one_check,
    load_spec,
    mixing_check,
    parse_spec,
    parse_spec_json,
    place_spec,
)
from .algebra import ord_p, resultant
from .counting import (
    CountResult,
    WindowOracle,
    charp_window_oracle,
    count_composite,
    count_prime_char0,
    count_prime_charp,
    ledrappier_axis_closed_form,
)
from .entropy import (
    EntropyFunction,
    Hyperplane,
    MahlerMeasure,
    SphereExtrema,
    directional_entropy,
    entropy_function_of,
    mahler_measure,
    nonexpansive_candidates,
    sphere_extrema,
)
from .errors import (
    ConsistencyError,
    EntrankError,
    MathDomainError,
    ResourceLimitError,
    SpecError,
    UnsupportedPrimeError,
)
from .numberfield import (
    Element,
    NumberField,
    Place,
    build_field,
    finite_places_above,
    log_abs_v,
    ord_v,
)
from .scan import (
    PointRecord,
    ScanReport,
    g_value,
    phi_v,
    point_record,
    shell_scan,
    write_records_csv,
)

__version__ = "0.1.0"
