"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: SpecError, MathDomainError and
UnsupportedPrimeError to 2, ResourceLimitError to 3, ConsistencyError to 4.
Two input conditions have one gate each: algebra.proven_prime (is p a
proven prime) and counting.require_nonzero (is n a nonzero vector of Z^d).
"""


class EntrankError(Exception):
    pass


class SpecError(EntrankError):
    """Invalid action specification (schema violation, bad field data, ...)."""


class MathDomainError(EntrankError):
    """Mathematically undefined request (n = 0, non-mixing direction, x = 0, bad algebra input)."""


class UnsupportedPrimeError(EntrankError):
    """Prime fails the p-maximality check; place data would be unreliable."""


class ResourceLimitError(EntrankError):
    """A configured budget (lattice points, basis size, degree cap) was hit."""


class ConsistencyError(EntrankError):
    """Two internally redundant computations disagreed; indicates a bug."""
