"""Shared exception types, and the one check of a count against its bound."""

PRINTABLE_BITS = 14_000  # under the 4300 digits Python will print of an int


class ParseError(ValueError):
    """Malformed generator-matrix file; message carries line/column context."""


class LimitError(RuntimeError):
    """A configured resource ceiling was exceeded (state space, search budget,
    truncation order too small to decide)."""


class InternalError(RuntimeError):
    """An internal certificate failed: a result did not pass its own
    independent re-check.  This is a bug in convcode, not bad input."""


def check_limit(bound: int, template: str, factors) -> int:
    """The product of the ints `factors`, each >= 1; above `bound`, LimitError from `template`
    with {count} and {bound} filled in.  A product past both the bound and
    2^PRINTABLE_BITS is multiplied no further and named "more than 2^PRINTABLE_BITS"."""
    count, cap = 1, 1 << PRINTABLE_BITS
    for f in factors:
        count *= f
        if count > max(bound, cap):
            raise LimitError(template.format(count=f"more than 2^{PRINTABLE_BITS}", bound=bound))
    if count > bound:
        raise LimitError(template.format(count=count, bound=bound))
    return count
