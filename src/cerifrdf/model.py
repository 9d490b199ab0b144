"""Core CERIF domain types: partial dates, translated text and the three record kinds.

Record objects are permissive value containers.  The constructors normalize
sequence fields to tuples so every record is immutable and hashable, but they
do not reject incomplete content; completeness is the job of the validator,
which has to be able to look at broken records in order to report them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import ClassVar, NamedTuple

from .errors import FormatError

#: Record-type tokens allowed in relation references and exchange file names.
RECORD_TYPES = ("project", "person", "orgunit", "equipment", "result",
                "publication", "patent")

LANGUAGE_RE = re.compile(r"^[a-z]{2}$")


def collapse_ws(text: str) -> str:
    """Trim *text* and collapse interior whitespace runs to single spaces."""
    return " ".join(text.split())


def split_semicolon_list(text: str) -> list[str]:
    """Split a semicolon-separated value into trimmed, non-empty items."""
    return [item for item in (collapse_ws(part) for part in text.split(";")) if item]


def join_semicolon_list(items) -> str:
    return "; ".join(items)


class TranslationType(Enum):
    """How a language-tagged value was produced."""

    ORIGINAL = "O"
    HUMAN = "H"
    MACHINE = "M"


def normalize_translation_code(token: str, warnings: list[str]) -> TranslationType:
    """Map a one-letter translation-type code to its enum value.

    The digit '0' is accepted as a legacy spelling of 'O'; when that happens a
    note is appended to *warnings*.  Anything else outside O/H/M raises
    FormatError.
    """
    tok = token.strip()
    if tok == "0":
        warnings.append("translation code '0' normalized to O (original)")
        return TranslationType.ORIGINAL
    try:
        return TranslationType(tok.upper())
    except ValueError:
        raise FormatError(f"unknown translation code {token!r}") from None


class ProjectStatus(Enum):
    EXECUTION = "Execution"
    ACCEPTED = "Accepted"
    COMPLETED = "Completed"
    STARTED = "Started"


STATUS_BY_TOKEN = {s.value: s for s in ProjectStatus}

#: Accepted person sex codes.
SEX_CODES = ("M", "F")


def status_token(status: ProjectStatus | str) -> str:
    """Wire and display text of a project status, accepted token or not."""
    return status.value if isinstance(status, ProjectStatus) else str(status)


#: Days in each month of a common year; February has 29 in a leap year.
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


@dataclass(frozen=True, slots=True)
class PartialDate:
    """A calendar date whose day, or day and month, may be unknown.

    The wire form is day-first with unknown leading fields omitted entirely,
    never written as zeros: "06.2000" is a month, "00.06.2000" is rejected.
    """

    year: int
    month: int | None = None
    day: int | None = None

    def __post_init__(self) -> None:
        if self.day is not None and self.month is None:
            raise FormatError("a day without a month is not representable")
        if not 1000 <= self.year <= 9999:
            raise FormatError(f"year {self.year} outside 1000-9999")
        if self.month is not None and not 1 <= self.month <= 12:
            raise FormatError(f"month {self.month} outside 1-12")
        if self.day is not None and not 1 <= self.day <= 28:  # every month has 28
            leap = self.year % 4 == 0 and (self.year % 100 != 0 or self.year % 400 == 0)
            last = _MONTH_DAYS[self.month - 1] + (self.month == 2 and leap)
            if not 1 <= self.day <= last:
                raise FormatError(f"day {self.day} outside 1-{last}")

    @property
    def is_full(self) -> bool:
        return self.day is not None

    @property
    def is_year_only(self) -> bool:
        return self.month is None

    def earliest(self) -> tuple[int, int, int]:
        """Lower bound of the range of exact dates this value could denote."""
        return (self.year, self.month or 1, self.day or 1)

    def latest(self) -> tuple[int, int, int]:
        """Upper bound of the range of exact dates this value could denote."""
        return (self.year, self.month or 12, self.day or 31)

    def certainly_before(self, other: "PartialDate") -> bool:
        """True when every exact date this value could denote precedes every
        exact date *other* could denote."""
        return self.latest() < other.earliest()

    def __str__(self) -> str:
        return format_partial_date(self)


def _date_fields(text: str, sep: str) -> list[int]:
    parts = collapse_ws(text).split(sep)
    if not 1 <= len(parts) <= 3:
        raise FormatError(f"expected 1-3 date fields, got {len(parts)}: {text!r}")
    values = []
    for part in parts:
        p = part.strip()
        # isdecimal, not isdigit: int() refuses digits such as '²'
        if not p or not p.isdecimal():
            raise FormatError(f"non-numeric date field {part!r} in {text!r}")
        n = int(p)
        if n == 0:
            raise FormatError(
                f"zero date field in {text!r}; omit an unknown day or month instead")
        values.append(n)
    return values


def parse_partial_date(text: str) -> PartialDate:
    """Parse a day-first partial date: DD.MM.YYYY, MM.YYYY or YYYY."""
    return PartialDate(*reversed(_date_fields(text, ".")))


def parse_iso_date(text: str) -> PartialDate:
    """Parse a year-first dash-separated date: YYYY-MM-DD, YYYY-MM or YYYY.

    Legacy export headers use this ordering; exchange file names and record
    bodies use the day-first form.  The two coexist and must not be confused.
    """
    return PartialDate(*_date_fields(text, "-"))


def format_partial_date(d: PartialDate) -> str:
    """Emit exactly the fields present, day-first, zero-padded."""
    if d.day is not None:
        return f"{d.day:02d}.{d.month:02d}.{d.year:04d}"
    if d.month is not None:
        return f"{d.month:02d}.{d.year:04d}"
    return f"{d.year:04d}"


#: Text form of a present value of each scalar shape: its element text on
#: the wire, its row text on a page and the object of its store triple (a
#: list gives one triple per item instead).
SCALAR_TEXT = {
    "status": status_token,
    "date": format_partial_date,
    "text": str,
    "sex": str,
    "list": join_semicolon_list,
}


class RecordKey(NamedTuple):
    kind: str
    id: str

    def __str__(self) -> str:
        """The "kind:id" form that names a record in triples, index lines
        and reports."""
        return f"{self.kind}:{self.id}"


@dataclass(frozen=True, slots=True)
class TranslatedText:
    """One language variant of a text value.

    translation is None when the wire carried no recognizable code; the
    validator reports that as an invariant breach rather than the parser
    refusing the whole document.
    """

    language: str
    translation: TranslationType | None
    text: str


@dataclass(frozen=True, slots=True)
class ExpertSkill:
    skill: str
    role: str | None = None


@dataclass(frozen=True, slots=True)
class Contact:
    telephone: str | None = None
    email: str | None = None
    uri: str | None = None

    @property
    def is_empty(self) -> bool:
        return self.telephone is None and self.email is None and self.uri is None


@dataclass(frozen=True, slots=True)
class Relation:
    """A directed, role-labelled edge between two records.

    mandatory marks a dependency: a record whose mandatory relation points at
    a discarded record is itself discarded by the cascade.
    """

    source: RecordKey
    target: RecordKey
    role: str
    mandatory: bool = False

    def sort_key(self):
        return (self.source, self.target, self.role, self.mandatory)

    def faults(self, no_id: str, no_role: str):
        """A message for each rule the relation breaks, in a fixed order; the
        caller words an endpoint without an id and an empty role."""
        if self.source == self.target:
            yield "relation with identical endpoints"
        for key in (self.source, self.target):
            if key.kind not in RECORD_TYPES:
                yield f"unknown record type {key.kind!r}"
            if not key.id:
                yield no_id
        if not self.role:
            yield no_role


@dataclass(frozen=True, slots=True)
class OuOuRelation:
    """A relation between org-units; target names the other unit's id."""

    target: str
    role: str


@dataclass(frozen=True, slots=True)
class Record:
    """What the three record kinds share: an identifier, a kind and a key.

    kind is the token of keys, typed node names and file names.  Every field
    whose default is () is frozen into a tuple, so a record built from lists
    is still immutable and hashable.
    """

    kind: ClassVar[str]
    id: str

    def __post_init__(self) -> None:
        for name in _TUPLE_FIELDS[type(self)]:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def key(self) -> RecordKey:
        return RecordKey(self.kind, self.id)


@dataclass(frozen=True, slots=True)
class Project(Record):
    """A research project.

    status holds a plain string when the wire carried a token outside the
    four accepted ones, so the validator can report it verbatim.
    """

    kind = "project"
    status: ProjectStatus | str | None = None
    start: PartialDate | None = None
    end: PartialDate | None = None
    uri: str | None = None
    prize_awards: tuple[str, ...] = ()
    titles: tuple[TranslatedText, ...] = ()
    abstracts: tuple[TranslatedText, ...] = ()
    keywords: tuple[TranslatedText, ...] = ()
    relations: tuple[Relation, ...] = ()


@dataclass(frozen=True, slots=True)
class Person(Record):
    kind = "person"
    family_names: str = ""
    first_names: str = ""
    sex: str | None = None
    prize_awards: tuple[str, ...] = ()
    uri: str | None = None
    expert_skills: tuple[ExpertSkill, ...] = ()
    contacts: tuple[Contact, ...] = ()


@dataclass(frozen=True, slots=True)
class OrgUnit(Record):
    """An organisational unit.

    descriptions is an extension field filled by the legacy converter; it is
    carried under an extension element on the wire and is absent from records
    that never passed through that converter.
    """

    kind = "orgunit"
    acronym: str | None = None
    prize_award: str | None = None
    url: str | None = None
    names: tuple[TranslatedText, ...] = ()
    ou_relations: tuple[OuOuRelation, ...] = ()
    expert_skills: tuple[ExpertSkill, ...] = ()
    descriptions: tuple[TranslatedText, ...] = ()


#: Record class by the kind token used in keys and typed node names.
RECORD_CLASSES: dict[str, type[Record]] = {cls.kind: cls
                                           for cls in (Project, Person, OrgUnit)}

#: The fields each record class freezes into tuples.
_TUPLE_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.default == ())
                 for cls in RECORD_CLASSES.values()}

# str.splitlines, which reads the store's index, also breaks at U+2028 and
# U+2029, so an identifier holding one would save an index no load reads
_NOT_IN_FILE_NAMES = re.compile(r"[/\\\x00-\x1f\x7f-\x9f\u2028\u2029]")


def file_safe_id(ident: str) -> bool:
    """True when *ident* can stand inside a file name and an index line: it
    holds no '/', no '\\', no control character and no line or paragraph
    separator, so it cannot steer where a file goes."""
    return _NOT_IN_FILE_NAMES.search(ident) is None


def exchange_name_fault(ident: str, *, per_object: bool = True) -> str | None:
    """Why an exchange file name would not read *ident* back as itself, or
    None.  No file name keeps an empty or space-padded dot segment, and a
    per-object name, which ends in its identifier, reads a last "rdf"
    segment, in any case, as the extension."""
    segments = ident.split(".")
    if any(not segment or segment != segment.strip() for segment in segments):
        return "has an empty or space-padded dot segment, which no file name keeps"
    if per_object and segments[-1].lower() == "rdf":
        return ("ends in an rdf segment, which its per-object file name would "
                "read as the extension")
    return None


class Field(NamedTuple):
    """How one record field looks on the wire, in the validator and on a page.

    attr names the dataclass attribute and element its canonical wire
    element.  shape is the value form every layer dispatches on: scalar
    shapes (the keys of SCALAR_TEXT) are one literal element, bag
    shapes hold one rdf:Bag item per value, and parts names the item element
    followed by the elements inside it.  label is the HTML row label and
    mandatory marks a field whose absence breaks the record.  predicate
    names the field's triples in the store; it defaults to attr for a
    scalar field and is None for a bag whose items name their own.  default
    is the dataclass default: a field counts as present when its value
    differs (see present_fields).
    """

    attr: str
    element: str
    shape: str
    label: str
    mandatory: bool = False
    parts: tuple[str, ...] = ()
    predicate: str | None = None
    default: object = None


def _field_table(cls, *specs: Field) -> tuple[Field, ...]:
    defaults = {f.name: f.default for f in fields(cls)}
    return tuple(spec._replace(
        default=defaults[spec.attr],
        predicate=spec.predicate or (None if spec.parts else spec.attr))
        for spec in specs)


#: Every field of each record kind except id, in dataclass order, which is
#: also the order the serializer writes them in.
RECORD_FIELDS: dict[type, tuple[Field, ...]] = {
    Project: _field_table(
        Project,
        Field("status", "proj_status", "status", "status", mandatory=True),
        Field("start", "proj_startdate", "date", "start date"),
        Field("end", "proj_enddate", "date", "end date"),
        Field("uri", "proj_uri", "text", "URI"),
        Field("prize_awards", "proj_prizeaward", "list", "prizes and awards",
              predicate="prize_award"),
        Field("titles", "project-titles", "translated", "title", mandatory=True,
              parts=("Project-title", "proj_title_language",
                     "proj_title_trans_type", "proj_title"), predicate="title"),
        Field("abstracts", "project-abstracts", "translated", "abstract", mandatory=True,
              parts=("Project-abstract", "proj_abs_language",
                     "proj_abs_trans_type", "proj_abstract"), predicate="abstract"),
        Field("keywords", "project-keywords", "translated", "keywords",
              parts=("Project-keyword", "proj_kw_language",
                     "proj_kw_trans_type", "proj_keywords"), predicate="keywords"),
        Field("relations", "project-relations", "relations", "relation",
              parts=("Project-relation",)),
    ),
    Person: _field_table(
        Person,
        Field("family_names", "person.per_family_names", "text", "family names",
              mandatory=True),
        Field("first_names", "person.per_first_names", "text", "first names"),
        Field("sex", "person.per_sex", "sex", "sex"),
        Field("prize_awards", "person.per_prize_awards", "list", "prizes and awards",
              predicate="prize_award"),
        Field("uri", "person.per_uri", "text", "URI"),
        Field("expert_skills", "person.expert_skills", "skills", "expert skill",
              parts=("person.expert_skill", "person.es.role", "person.es.id"),
              predicate="expert_skill"),
        Field("contacts", "person.contacts", "contacts", "contact",
              parts=("contact", "contact.telephone", "contact.email", "contact.uri")),
    ),
    OrgUnit: _field_table(
        OrgUnit,
        Field("acronym", "orgunit.org_acronym", "text", "acronym"),
        Field("prize_award", "orgunit.org_prizeaward", "text", "prize or award"),
        Field("url", "orgunit.org_url", "text", "URL"),
        Field("names", "orgunit.orgunit_names", "translated", "name", mandatory=True,
              parts=("orgunit.orgunit_name", "orgunit.oun.language",
                     "orgunit.oun.translation", "orgunit.oun.name"), predicate="name"),
        Field("ou_relations", "orgunit.ou_ou_relations", "ou_relations",
              "related org-unit",
              parts=("orgunit.ou_ou_relation", "orgunit.ou_ou_r.orgunit",
                     "orgunit.ou_ou_r.role")),
        Field("expert_skills", "orgunit.expert_skills", "skills", "expert skill",
              parts=("orgunit.expert_skill", "orgunit.es.role", "orgunit.es.skill"),
              predicate="expert_skill"),
        Field("descriptions", "orgunit.descriptions", "translated", "description",
              parts=("orgunit.description", "orgunit.od.language",
                     "orgunit.od.translation", "orgunit.od.description"),
              predicate="description"),
    ),
}

#: Attributes of the fields that nest relations, by record class.
_NESTING = {cls: [spec.attr for spec in table if spec.shape == "relations"]
            for cls, table in RECORD_FIELDS.items()}


def nested_relations(record: Record) -> tuple[Relation, ...]:
    """The relations *record* carries inside itself."""
    return tuple(rel for attr in _NESTING[type(record)] for rel in getattr(record, attr))


def present_fields(record: Record):
    """(field, value) for each field of *record* whose value differs from the
    field's default, in table order."""
    for spec in RECORD_FIELDS[type(record)]:
        value = getattr(record, spec.attr)
        if value != spec.default:
            yield spec, value
