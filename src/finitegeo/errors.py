"""Exception types shared across the package."""


class FiniteGeoError(Exception):
    """Base class for all errors raised by this package."""


class NotAssociative(FiniteGeoError):
    """The supplied multiplication table fails associativity."""


class NoIdentity(FiniteGeoError):
    """The supplied multiplication table has no two-sided identity."""


class NoInverse(FiniteGeoError):
    """Some element of the supplied table has no inverse."""


class TooLarge(FiniteGeoError):
    """The requested structure exceeds the configured size limit."""


class NotAnAction(FiniteGeoError):
    """The supplied maps do not define a group action."""


class IdentityInHatG(FiniteGeoError):
    """A generating subset for a calculus may not contain the identity."""


class NotLeftCovariant(FiniteGeoError):
    """The digraph is not invariant under left translations."""


class NotBicovariant(FiniteGeoError):
    """The operation requires a bicovariant calculus."""


class NotInHatG(FiniteGeoError):
    """An index refers to a group element outside the calculus subset."""


class CalculusMismatch(FiniteGeoError):
    """Two objects built over different calculi were combined."""


class BadLambdaLength(FiniteGeoError):
    """A coefficient vector has the wrong length for the braiding order."""


class NotExtensible(FiniteGeoError):
    """The connection does not extend to tensor products."""


class NotUniversal(FiniteGeoError):
    """The operation is only defined for the universal calculus."""


class Infeasible(FiniteGeoError):
    """A linear system has no solution."""


class UsageError(FiniteGeoError):
    """Invalid arguments supplied to the command-line interface."""


class InternalInconsistency(FiniteGeoError):
    """Two computations of the same quantity disagree; a bug, not bad input."""
