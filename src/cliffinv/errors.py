"""Exceptions shared across the package."""


class CliffinvError(Exception):
    """Base class for all package-specific errors."""


class DegenerateFormError(CliffinvError):
    """A quadratic form required to be regular is degenerate."""


class FactorBoundExceeded(CliffinvError):
    """Brent's rho found no factor of an integer within its step budget.

    Carries the unsplit integer so callers can report it.
    """

    def __init__(self, n):
        super().__init__(f"cannot factor {n}: no factor by Brent's rho within its step budget")
        self.n = n


class SearchExhausted(CliffinvError):
    """A bounded certificate search ran out of candidates."""

    def __init__(self, what, bound):
        super().__init__(f"search for {what} exhausted (bound {bound})")
        self.what = what
        self.bound = bound


class UnsupportedBase(CliffinvError):
    """The operation is not available over the given base field."""


class ClosureViolation(CliffinvError):
    """A pseudo-lattice product escaped its asserted coefficient ideal."""
