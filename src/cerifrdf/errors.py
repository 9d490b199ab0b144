"""Exception types shared by every layer of the toolkit."""

from contextlib import contextmanager


class CerifError(Exception):
    """Base class for all toolkit errors."""


class FormatError(CerifError):
    """Input read from outside the program (a document, export, page,
    exchange name, store, registry or equivalence file, or an argument)
    does not fit its format."""


class InvariantViolation(CerifError):
    """A writer or container refuses a value that breaks one of its own
    stated invariants."""


@contextmanager
def located(where: str):
    """Lead the message of a CerifError raised in the block with *where*."""
    try:
        yield
    except CerifError as exc:
        raise type(exc)(f"{where}: {exc}") from None
