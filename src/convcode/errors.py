"""Shared exception types."""


class ParseError(ValueError):
    """Malformed generator-matrix file; message carries line/column context."""


class LimitError(RuntimeError):
    """A configured resource ceiling was exceeded (state space, search budget,
    truncation order too small to decide)."""


class InternalError(RuntimeError):
    """An internal certificate failed: a result did not pass its own
    independent re-check.  This is a bug in convcode, not bad input."""
