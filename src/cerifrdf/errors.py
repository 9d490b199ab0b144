"""Exception types shared by every layer of the toolkit."""

from contextlib import contextmanager


class CerifError(Exception):
    """Base class for all toolkit errors."""


class FormatError(CerifError):
    """A scalar value (date, list, registry line) does not match its grammar."""


class UnknownCode(CerifError):
    """A translation-type code outside the accepted O/H/M set."""


class EncodingError(CerifError):
    """Input bytes do not decode in the expected or requested text encoding."""


class XmlError(CerifError):
    """The document is not well-formed XML or not a CERIF-RDF document."""


class DuplicateId(CerifError):
    """The same (type, id) pair was declared twice in one document."""


class MissingId(CerifError):
    """A typed node carries no ID attribute."""


class InvariantViolation(CerifError):
    """A value handed to a writer breaks one of its own stated invariants."""


class UnterminatedRecord(CerifError):
    """A legacy record block was opened but never closed."""


class MalformedTagLine(CerifError):
    """A line inside a legacy record block is neither a tag line nor a continuation."""


class UnrecognizedName(CerifError):
    """A file name does not match any exchange name grammar."""


class DuplicateObject(CerifError):
    """Two inputs would be written to the same file names."""


@contextmanager
def located(where: str):
    """Lead the message of a CerifError raised in the block with *where*."""
    try:
        yield
    except CerifError as exc:
        raise type(exc)(f"{where}: {exc}") from None
