"""Exception types shared across the package."""


class ModunitsError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(ModunitsError):
    """A group-spec string could not be parsed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.reason = message


class InvalidConfig(ModunitsError, ValueError):
    """A config file cannot be read, or a line is malformed, has an unknown key or an
    unparsable value; or a run setting, from a file or a flag, is out of range."""


class NotIntegral(ModunitsError, ValueError):
    """An array of coefficients or residues has a dtype other than integer or
    bool, so narrowing it would truncate or wrap its entries."""


class ShapeMismatch(ModunitsError, ValueError):
    """An array's axes do not fit the algebra: its first axis is not the group,
    or two operands' other axes do not broadcast."""


class ClosureExceedsCap(ModunitsError):
    """Generating a group blew past the configured order cap."""


class NotPrime(ModunitsError):
    """A parameter that must be prime is not."""


class AlgebraTooLarge(ModunitsError):
    """|G| * (p-1)^2 reaches 2^63, so int64 products in GF(p)[G] could overflow."""


class ContextMismatch(ModunitsError):
    """Two algebra elements from different algebras were combined."""


class OrderMismatch(ModunitsError):
    """A group element does not have the order an operation requires."""


class NotCentral(ModunitsError):
    """A group element required to be central is not."""


class NotAUnit(ModunitsError):
    """An element that must be invertible is not."""


class NotUnitary(ModunitsError):
    """A witness construction produced a unit that is not unitary."""


class PreconditionViolated(ModunitsError):
    """A witness constructor or a count law was called outside its stated preconditions."""


class PredicateNotSatisfied(ModunitsError):
    """An operation requires the group criterion to hold and it does not."""


class BudgetExceeded(ModunitsError):
    """An enumeration or closure would exceed its configured cap."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class EngelInconclusive(ModunitsError):
    """An Engel iteration hit its step cap without stabilizing or cycling."""
