"""Toolkit for the CERIF-RDF research-information dialect.

Records (projects, persons, org-units) travel as restricted RDF/XML, embed
into web pages, convert from a legacy SGML export, ship under structured
exchange file names and gather into a queryable triple store.
"""

from .errors import (
    CerifError,
    DuplicateId,
    DuplicateObject,
    EncodingError,
    FormatError,
    InvariantViolation,
    MalformedTagLine,
    MissingId,
    UnknownCode,
    UnrecognizedName,
    UnterminatedRecord,
    XmlError,
)
from .model import (
    Contact,
    ExpertSkill,
    OrgUnit,
    OuOuRelation,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    Record,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
    format_partial_date,
    normalize_translation_code,
    parse_partial_date,
    split_semicolon_list,
)
from .rdfxml import (
    CERIF_NS,
    RDF_NS,
    RDFS_NS,
    RecordSet,
    parse_document,
    resolve_alias,
    serialize_document,
)
from .validation import (
    CascadeFrom,
    DiscardReport,
    MissingMandatoryField,
    Violation,
    apply_discard_cascade,
    check_document_uniqueness,
    validate_record,
)

__version__ = "0.1.0"
