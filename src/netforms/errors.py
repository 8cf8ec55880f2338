"""Exception hierarchy.

Validation errors mean the input data or query is malformed or outside the
supported regime; numerical errors mean a computation failed (singular solve,
tolerance breach, divergent quantity). The CLI maps the former to exit code 1
and the latter to exit code 2.
"""


class NetformsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NetformsError, ValueError):
    """Invalid input data, dimensions, or query parameters."""


class FactorMemoryError(ValidationError):
    """A sparse LU factor or its solves ran out of memory. SuperLU may have
    written part of a line to stderr first, so the CLI starts the JSON error
    object on a line of its own."""


class UnsupportedRegimeError(ValidationError):
    """Operation defined only for conservative (killing-free) forms
    received a form with killing."""


class NotInAlgebraError(ValidationError):
    """Function is not constant on the equivalence classes of an embedding,
    so it does not define a function on the quotient."""


class DescentError(ValidationError):
    """A form failed the numerical check that it descends to the quotient."""


class NumericalError(NetformsError, RuntimeError):
    """A numerical computation failed or breached its tolerance."""


class SingularBlockError(NumericalError):
    """The interior block of a trace computation is singular, typically
    because a component is disconnected from the subset and carries no
    killing."""


class InfiniteResistanceError(NumericalError):
    """The requested effective resistance is infinite (disconnected pair)."""
