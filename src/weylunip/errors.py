"""Exception types shared by all modules."""


class WeylUnipError(Exception):
    """Base class for every error raised by this package."""


class BadInput(WeylUnipError, ValueError):
    """A value violates the domain contract of an operation."""


class NotInQ(BadInput):
    """Partition has an even value with odd multiplicity."""


class NotInR(BadInput):
    """Partition fails the gap/parity conditions of the adjusted image set."""


class InvalidClass(BadInput):
    """Class symbol is not valid in the given group context."""


class WrongFamily(BadInput):
    """Operation applied to a group context of the wrong family."""


class NotSpecial(BadInput):
    """Class (or pair sequence / bipartition) fails a specialness condition."""


class BoundExceeded(WeylUnipError):
    """Requested enumeration exceeds the configured safety bound."""


class ParseError(WeylUnipError, ValueError):
    """Malformed text form; carries the offending position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownContext(BadInput):
    """No table is shipped for the requested group context (a lookup's
    refusal of its input, so a ``BadInput``)."""


class UnknownClass(BadInput):
    """Class label does not occur in the table of the context (a lookup's
    refusal of its input, so a ``BadInput``)."""


class UnknownUnipotent(BadInput):
    """Unipotent name does not occur in the table of the context (a lookup's
    refusal of its input, so a ``BadInput``)."""


class TableIntegrityError(WeylUnipError):
    """A shipped data file failed its loading-time consistency checks."""
