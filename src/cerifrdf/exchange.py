"""Exchange file naming, session planning and the identifier registry.

Four name families exist.  Full snapshots and per-object files spell the
sending organization first (ORG.DD.MM.YYYY.ALL, ORG.DD.MM.YYYY.TYPE.ID);
annual snapshots and incremental updates lead with their kind
(ANNUAL.ORG.YYYY.rdf, CHANGE.ORG.TYPE.ID.DD.MM.YYYY.rdf).  Identifiers may
contain dots, so parsing anchors on the fixed-width date fields instead of
counting segments from the end of the identifier.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import DuplicateObject, FormatError, InvariantViolation, UnrecognizedName
from .model import (
    PartialDate,
    RecordKey,
    RECORD_TYPES,
    Relation,
    format_partial_date,
    nested_relations,
    parse_partial_date,
)
from .rdfxml import RecordSet
from .store import read_rows, write_atomic


class ExchangeKind(Enum):
    ALL = "all"
    PER_OBJECT = "per-object"
    ANNUAL = "annual"
    CHANGE = "change"


@dataclass(frozen=True)
class ExchangeName:
    """Structured form of an exchange file name."""

    kind: ExchangeKind
    organization: str
    date: PartialDate
    record_type: str | None = None
    identifier: str | None = None
    extension: str | None = None


def _check_org(org: str) -> None:
    if not org:
        raise InvariantViolation("empty organization token")
    if "." in org:
        raise InvariantViolation(f"organization token {org!r} must not contain dots")
    if org != org.strip() or any(c.isspace() for c in org):
        raise InvariantViolation(f"organization token {org!r} must not contain whitespace")


def _check_identifier(name: ExchangeName) -> None:
    """Refuse an identifier that parse_name would not read back as itself."""
    segments = name.identifier.split(".")
    if any(not segment or segment != segment.strip() for segment in segments):
        raise InvariantViolation(
            f"{name.record_type} {name.identifier!r}: identifier has an empty or "
            "space-padded dot segment, which no file name keeps")
    # only a per-object name ends in its identifier, so only there does a
    # last "rdf" segment read back as the extension
    if name.kind is ExchangeKind.PER_OBJECT and segments[-1].lower() == "rdf":
        raise InvariantViolation(
            f"{name.record_type} {name.identifier!r}: identifier ends in an rdf "
            "segment, which its per-object file name would read as the extension")


def format_name(name: ExchangeName) -> str:
    """Render *name* in its canonical spelling.

    Snapshot and per-object names carry no extension; annual and change names
    end in .rdf.  The stored extension field does not override that rule.
    An identifier that parse_name would not read back as itself raises
    InvariantViolation.
    """
    _check_org(name.organization)
    if name.kind in (ExchangeKind.ALL, ExchangeKind.PER_OBJECT, ExchangeKind.CHANGE):
        if not name.date.is_full:
            raise InvariantViolation(f"{name.kind.value} name needs a full date")
    else:
        if not name.date.is_year_only:
            raise InvariantViolation("annual name needs a year-only date")
    if name.kind in (ExchangeKind.PER_OBJECT, ExchangeKind.CHANGE):
        if name.record_type not in RECORD_TYPES:
            raise InvariantViolation(f"unknown record type {name.record_type!r}")
        if not name.identifier:
            raise InvariantViolation("missing object identifier")
        _check_identifier(name)
    else:
        if name.record_type is not None or name.identifier is not None:
            raise InvariantViolation(
                f"{name.kind.value} name does not take a type or identifier")

    date = format_partial_date(name.date)
    if name.kind is ExchangeKind.ALL:
        return f"{name.organization}.{date}.ALL"
    if name.kind is ExchangeKind.PER_OBJECT:
        return f"{name.organization}.{date}.{name.record_type.upper()}.{name.identifier}"
    if name.kind is ExchangeKind.ANNUAL:
        return f"ANNUAL.{name.organization}.{date}.rdf"
    return (f"CHANGE.{name.organization}.{name.record_type.upper()}."
            f"{name.identifier}.{date}.rdf")


def _full_date(segments: list[str], name: str) -> PartialDate:
    if len(segments) != 3:
        raise UnrecognizedName(f"{name!r}: date not full")
    try:
        date = parse_partial_date(".".join(segments))
    except FormatError as exc:
        raise UnrecognizedName(f"{name!r}: {exc}") from None
    if not date.is_full:
        raise UnrecognizedName(f"{name!r}: date not full")
    return date


def parse_name(text: str) -> ExchangeName:
    """Parse a file name in any of the four families.

    A trailing .rdf is accepted on every family; whitespace around segments
    is tolerated and stripped.
    """
    segments = [s.strip() for s in text.strip().split(".")]
    if any(not s for s in segments):
        raise UnrecognizedName(f"{text!r}: empty name segment")
    extension = None
    if len(segments) > 1 and segments[-1].lower() == "rdf":
        extension = ".rdf"
        segments = segments[:-1]

    if segments and segments[0].upper() == "ANNUAL":
        if len(segments) != 3:
            raise UnrecognizedName(f"{text!r}: expected ANNUAL.ORG.YYYY")
        org, year = segments[1], segments[2]
        if not (year.isdigit() and len(year) == 4):
            raise UnrecognizedName(f"{text!r}: {year!r} is not a four-digit year")
        return ExchangeName(ExchangeKind.ANNUAL, org, PartialDate(int(year)),
                            extension=extension)

    if segments and segments[0].upper() == "CHANGE":
        if len(segments) < 7:
            raise UnrecognizedName(
                f"{text!r}: expected CHANGE.ORG.TYPE.ID.DD.MM.YYYY")
        org = segments[1]
        rtype = segments[2].lower()
        if rtype not in RECORD_TYPES:
            raise UnrecognizedName(f"{text!r}: unknown record type {segments[2]!r}")
        date = _full_date(segments[-3:], text)
        identifier = ".".join(segments[3:-3])
        return ExchangeName(ExchangeKind.CHANGE, org, date, rtype, identifier,
                            extension=extension)

    if len(segments) < 5:
        raise UnrecognizedName(f"{text!r}: too few segments, date not full")
    org = segments[0]
    date = _full_date(segments[1:4], text)
    tail = segments[4:]
    if len(tail) == 1 and tail[0].upper() == "ALL":
        return ExchangeName(ExchangeKind.ALL, org, date, extension=extension)
    rtype = tail[0].lower()
    if rtype not in RECORD_TYPES:
        raise UnrecognizedName(f"{text!r}: unknown record type {tail[0]!r}")
    if len(tail) < 2:
        raise UnrecognizedName(f"{text!r}: missing object identifier")
    identifier = ".".join(tail[1:])
    return ExchangeName(ExchangeKind.PER_OBJECT, org, date, rtype, identifier,
                        extension=extension)


def plan_session(rs: RecordSet, organization: str, date: PartialDate,
                 kind: ExchangeKind) -> list[tuple[ExchangeName, RecordSet]]:
    """Lay out a validated record set as exchange files.

    All mode produces one file holding the whole set.  PerObject mode
    produces one file per record; every relation is written into the files of
    both of its endpoints, nested when the endpoint is a project and as a
    document-level relation otherwise, so each file stands on its own.
    """
    if not date.is_full:
        raise InvariantViolation("session date must be a full date")
    _check_org(organization)
    if kind is ExchangeKind.ALL:
        return [(ExchangeName(ExchangeKind.ALL, organization, date), rs)]
    if kind is not ExchangeKind.PER_OBJECT:
        raise InvariantViolation(f"cannot plan a session of kind {kind.value}")

    # each record's relations, in all_relations order; a relation whose
    # endpoints are equal is listed once
    incident: dict[RecordKey, list[Relation]] = {}
    for rel in rs.all_relations():
        incident.setdefault(rel.source, []).append(rel)
        if rel.target != rel.source:
            incident.setdefault(rel.target, []).append(rel)
    out: list[tuple[ExchangeName, RecordSet]] = []
    seen_names: set[str] = set()
    for key in sorted(rs.records):
        record = rs.records[key]
        sub = RecordSet()
        sub.records[key] = record
        nested = set(nested_relations(record))
        sub.relations = [rel for rel in incident.get(key, ()) if rel not in nested]
        name = ExchangeName(ExchangeKind.PER_OBJECT, organization, date,
                            key.kind, key.id)
        rendered = format_name(name)
        if rendered in seen_names:
            raise DuplicateObject(f"two objects map to file name {rendered}")
        seen_names.add(rendered)
        out.append((name, sub))
    return out


def merge_session(files: list[tuple[ExchangeName, RecordSet]]) -> RecordSet:
    """Reassemble session files into one set, deduplicating relations."""
    merged = RecordSet()
    for _, sub in files:
        for key, record in sub.records.items():
            if key in merged.records:
                if merged.records[key] != record:
                    raise DuplicateObject(
                        f"conflicting copies of {key.kind} {key.id} in session")
                continue
            merged.records[key] = record
    merged.extend_relations(rel for _, sub in files for rel in sub.relations)
    nested = {rel for record in merged.records.values()
              for rel in nested_relations(record)}
    merged.relations = [rel for rel in merged.relations if rel not in nested]
    return merged


class IdRegistry:
    """Append-only memory of every (org, type, id) ever sent, with the date
    it was first seen.  The backing file is one tab-separated line per entry,
    sorted, and is replaced atomically on save."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: dict[tuple[str, str, str], PartialDate] = {}

    @classmethod
    def load(cls, path: str | os.PathLike) -> "IdRegistry":
        registry = cls(path)
        if not registry.path.exists():
            return registry
        for lineno, (org, rtype, ident, date_text) in read_rows(registry.path, 4):
            if rtype not in RECORD_TYPES:
                raise FormatError(f"{registry.path}:{lineno}: unknown record type "
                                  f"{rtype!r}")
            registry.entries[(org, rtype, ident)] = parse_partial_date(date_text)
        return registry

    def register(self, org: str, rtype: str, ident: str, date: PartialDate) -> bool:
        """Record a first sighting; existing entries are never touched."""
        key = (org, rtype, ident)
        if key in self.entries:
            return False
        self.entries[key] = date
        return True

    def save(self) -> None:
        if self.path is None:
            raise InvariantViolation("registry has no backing path")
        lines = [f"{org}\t{rtype}\t{ident}\t{format_partial_date(date)}"
                 for (org, rtype, ident), date in sorted(self.entries.items())]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, "".join(line + "\n" for line in lines))


@dataclass(frozen=True)
class SessionIssue:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"FLAG {self.code} {self.detail}"


@dataclass
class SessionReport:
    issues: list[SessionIssue]
    registered: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_lines(self) -> list[str]:
        return [str(issue) for issue in self.issues]


def check_session(files: list[tuple[ExchangeName, RecordSet]],
                  registry: IdRegistry) -> SessionReport:
    """Consistency checks over one outgoing session.

    Flags duplicated objects, relations absent from one endpoint's file and
    identifiers previously registered under a different type.  Only a clean
    session is written into the registry (and saved, when it has a path).
    """
    issues: list[SessionIssue] = []

    locations: dict[RecordKey, list[int]] = {}
    for index, (_, sub) in enumerate(files):
        for key in sub.records:
            locations.setdefault(key, []).append(index)
    for key, where in sorted(locations.items()):
        if len(where) > 1:
            names = ", ".join(format_name(files[i][0]) for i in where)
            issues.append(SessionIssue(
                "duplicate-in-session", f"{key.kind} {key.id} appears in {names}"))

    views = [set(sub.all_relations()) for _, sub in files]
    union = set().union(*views) if views else set()
    first_location = {key: where[0] for key, where in locations.items()}
    for rel in sorted(union, key=lambda r: r.sort_key()):
        for endpoint in (rel.source, rel.target):
            index = first_location.get(endpoint)
            if index is not None and rel not in views[index]:
                issues.append(SessionIssue(
                    "relation-not-duplicated",
                    f"{rel.source} -[{rel.role}]-> {rel.target} missing from "
                    f"{format_name(files[index][0])}"))

    # one pass over the registry, keeping only the session's (org, id) pairs
    sent = {(name.organization, key.id) for name, sub in files for key in sub.records}
    registered_types: dict[tuple[str, str], set[str]] = {}
    for org, rtype, ident in registry.entries:
        if (org, ident) in sent:
            registered_types.setdefault((org, ident), set()).add(rtype)
    for name, sub in files:
        for key in sorted(sub.records):
            other = registered_types.get((name.organization, key.id), set()) - {key.kind}
            if other:
                listed = ", ".join(sorted(other))
                issues.append(SessionIssue(
                    "type-drift",
                    f"{key.id} sent as {key.kind} but registered as {listed}"))

    registered = 0
    if not issues:
        for name, sub in files:
            for key in sorted(sub.records):
                if registry.register(name.organization, key.kind, key.id, name.date):
                    registered += 1
        if registry.path is not None:
            registry.save()
    return SessionReport(issues=issues, registered=registered)
