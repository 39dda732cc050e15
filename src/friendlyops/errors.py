"""Shared exception types."""


class ParseError(ValueError):
    """A document, literal, or expression failed to parse.

    Messages carry a position (line number or character offset) where one
    is known.
    """


class CapExceeded(RuntimeError):
    """A configured resource cap was hit.

    The capped counts are states, letters, transitions, stored images,
    words and the exponents of a ``Root`` scan.
    """
