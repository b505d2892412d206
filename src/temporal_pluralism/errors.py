"""Shared exception base; every domain failure raised by this package derives from it."""


class PluralismError(Exception):
    """Base class for all domain errors (parse failures, invalid machines, scoring errors)."""


class FieldError(ValueError):
    """A value a constructor refuses, tagged with the `field` it sits in:
    a name, or (name, index) for one item of a tuple.  A reader maps the
    tag to the line that gave the value."""

    def __init__(self, message: str, field):
        super().__init__(message)
        self.field = field
