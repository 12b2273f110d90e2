"""Exception types shared across the package."""


class ZdgError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(ZdgError):
    """The cover relation contains a directed cycle."""


class NotBounded(ZdgError):
    """The poset lacks a required least or greatest element."""


class UnknownElement(ZdgError):
    """An element label is not part of the poset or graph."""


class NotALattice(ZdgError):
    """An operation needs all pairwise meets and joins to exist."""


class InvalidSpec(ZdgError):
    """A blow-up specification is malformed."""


class NotZeroDistributive(ZdgError):
    """The lattice fails a ∧ b = 0 and a ∧ c = 0 => a ∧ (b ∨ c) = 0."""


class LabelCollision(ZdgError):
    """Vertex labels clash where distinct labels are required."""


class Disconnected(ZdgError):
    """The graph is not connected where connectivity is required."""


class NotAZeroDivisor(ZdgError):
    """The element is not a nonzero zero divisor of the lattice."""


class TooLarge(ZdgError):
    """The instance exceeds a brute-force or enumeration cap."""


class NotApplicable(ZdgError):
    """A class-based construction needs a Boolean annihilator quotient."""


class HypothesisUnmet(ZdgError):
    """A closed formula was requested outside its hypotheses."""


class NotPrimePower(ZdgError):
    """A field order is not a prime power."""


class UnknownSuite(ZdgError):
    """The requested verification suite does not exist."""
