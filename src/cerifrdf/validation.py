"""Record validation, the mandatory-field discard cascade and uniqueness checks.

Discarding is a least fixed point: records that fail their own invariants go
first, then any record whose mandatory relation points at a discarded record
follows, repeated until nothing changes.  Dangling references to records that
were never in the document are warnings, not discards, because documents may
legitimately point across file boundaries.

Which fields each record kind has, and which are mandatory, comes from the
field table model.RECORD_FIELDS; this module only knows how to check each
value shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import (
    LANGUAGE_RE,
    Project,
    ProjectStatus,
    Record,
    RecordKey,
    RECORD_FIELDS,
    Relation,
    SEX_CODES,
    TranslatedText,
    file_safe_id,
)
from .rdfxml import CERIF_NS, RecordSet, parse_with_duplicates


@dataclass(frozen=True)
class Violation:
    """One invariant breach inside a record.

    field names the record field held responsible; code is "missing" for an
    absent or empty mandatory field and "invalid" for a present but unusable
    value.
    """

    field: str
    code: str
    message: str


@dataclass(frozen=True)
class MissingMandatoryField:
    field: str

    def __str__(self) -> str:
        return f"missing-mandatory-field:{self.field}"


@dataclass(frozen=True)
class CascadeFrom:
    key: RecordKey

    def __str__(self) -> str:
        return f"cascade-from:{self.key}"


DiscardReason = Union[MissingMandatoryField, CascadeFrom]


@dataclass
class DiscardReport:
    kept: RecordSet
    discarded: list[tuple[RecordKey, DiscardReason]]

    @property
    def ok(self) -> bool:
        return not self.discarded

    def to_lines(self) -> list[str]:
        return [f"DISCARD {key.kind} {key.id} {reason}"
                for key, reason in self.discarded]


# Checks of a present value (one that differs from the field's default) take
# the field's attribute name, the value and the output list.

def _check_status(prefix: str, status, out: list[Violation]) -> None:
    if not isinstance(status, ProjectStatus):
        out.append(Violation(prefix, "invalid",
                             f"status token {status!r} not one of the "
                             "four accepted values"))


def _check_sex(prefix: str, sex, out: list[Violation]) -> None:
    if sex not in SEX_CODES:
        out.append(Violation(prefix, "invalid",
                             f"sex code {sex!r} is neither M nor F"))


def _check_translated(prefix: str, items: tuple[TranslatedText, ...],
                      out: list[Violation]) -> None:
    for i, tt in enumerate(items):
        where = f"{prefix}[{i}]"
        if not LANGUAGE_RE.match(tt.language):
            out.append(Violation(prefix, "invalid",
                                 f"{where}: language {tt.language!r} is not a "
                                 "two-letter lowercase code"))
        if tt.translation is None:
            out.append(Violation(prefix, "invalid",
                                 f"{where}: translation type missing or unrecognized"))
        if not tt.text:
            out.append(Violation(prefix, "invalid", f"{where}: empty text"))


def _check_relations(prefix: str, relations: tuple[Relation, ...],
                     out: list[Violation]) -> None:
    for i, rel in enumerate(relations):
        for fault in rel.faults("endpoint without an id", "empty role"):
            out.append(Violation(prefix, "invalid", f"{prefix}[{i}]: {fault}"))


def _check_skills(prefix: str, skills, out: list[Violation]) -> None:
    for i, sk in enumerate(skills):
        if not sk.skill:
            out.append(Violation(prefix, "invalid", f"{prefix}[{i}]: empty skill"))


def _check_contacts(prefix: str, contacts, out: list[Violation]) -> None:
    for i, contact in enumerate(contacts):
        if contact.is_empty:
            out.append(Violation(prefix, "invalid", f"{prefix}[{i}]: no channel present"))


def _check_ou_relations(prefix: str, relations, out: list[Violation]) -> None:
    for i, rel in enumerate(relations):
        if not rel.target:
            out.append(Violation(prefix, "invalid", f"{prefix}[{i}]: empty target"))
        if not rel.role:
            out.append(Violation(prefix, "invalid", f"{prefix}[{i}]: empty role"))


# shape -> (phase, check of a present value, message for a missing one).
# Missing mandatory fields and scalar values are reported first (phase 0),
# then the items of language-tagged bags (1), then all other items (2), each
# phase in field order.  The order shows: it is the order of VIOLATION lines,
# and the first breach names a record's discard reason.
_SHAPES = {
    "status": (0, _check_status, "no {} value"),
    "date": (0, None, "no {}"),
    "text": (0, None, "no {}"),
    "sex": (0, _check_sex, "no {}"),
    "list": (0, None, "no {}"),
    "translated": (1, _check_translated, "no {}"),
    "relations": (2, _check_relations, "no {}"),
    "skills": (2, _check_skills, "no {}"),
    "contacts": (2, _check_contacts, "no {}"),
    "ou_relations": (2, _check_ou_relations, "no {}"),
}


def _plan(table) -> tuple:
    """Ordered (attribute, default, check, missing message) steps; a None
    check stands for the missing-field check of a mandatory field."""
    steps = []
    for spec in table:
        phase, check, missing = _SHAPES[spec.shape]
        message = missing.format(spec.attr.replace("_", " "))
        if spec.mandatory:
            steps.append((0, spec.attr, spec.default, None, message))
        if check is not None:
            steps.append((phase, spec.attr, spec.default, check, message))
    steps.sort(key=lambda step: step[0])
    return tuple(step[1:] for step in steps)


# record class -> ordered steps of validate_record
_PLANS = {cls: _plan(table) for cls, table in RECORD_FIELDS.items()}


def validate_record(record: Record) -> list[Violation]:
    """Every missing mandatory field and type-invariant breach in *record*."""
    out: list[Violation] = []
    if not record.id:
        out.append(Violation("id", "missing", "empty identifier"))
    elif not file_safe_id(record.id):
        out.append(Violation("id", "invalid", f"identifier {record.id!r} holds "
                                              "'/', '\\' or a control character"))
    for attr, default, check, missing in _PLANS[type(record)]:
        value = getattr(record, attr)
        if value != default:
            if check is not None:
                check(attr, value, out)
        elif check is None:
            out.append(Violation(attr, "missing", missing))
    return out


def lint_record(record: Record, language_codes=None) -> list[str]:
    """Non-fatal findings: suspicious but admissible content."""
    notes: list[str] = []
    if isinstance(record, Project):
        if (record.start is not None and record.end is not None
                and record.end.certainly_before(record.start)):
            notes.append(f"project {record.id}: end date {record.end} lies before "
                         f"start date {record.start}")
    if language_codes is not None:
        for spec in RECORD_FIELDS[type(record)]:
            if spec.shape != "translated":
                continue
            for i, tt in enumerate(getattr(record, spec.attr)):
                if LANGUAGE_RE.match(tt.language) and tt.language not in language_codes:
                    notes.append(f"{record.kind} {record.id}: {spec.attr}[{i}] uses "
                                 f"unassigned language code {tt.language!r}")
    return notes


def apply_discard_cascade(rs: RecordSet, *,
                          missing_targets_discard: bool = False) -> DiscardReport:
    """Split *rs* into kept and discarded records.

    Seeds are records with a non-empty validate_record result.  The cascade
    then discards, wave by wave, every kept record with a mandatory relation
    to a record discarded in the wave before, until a wave is empty.  Such a
    record is discarded because of the target of the first of those
    relations in Relation.sort_key order.  With missing_targets_discard set,
    a mandatory relation whose target never was in the set also pulls its
    source down, in the first wave; by default such targets only matter to
    lint.
    """
    reasons: dict[RecordKey, DiscardReason] = {}
    for key in sorted(rs.records):
        problems = validate_record(rs.records[key])
        if problems:
            reasons[key] = MissingMandatoryField(problems[0].field)

    # mandatory edges by target, each list in sort_key order with its rank
    by_target: dict[RecordKey, list[tuple[int, Relation]]] = {}
    relations = sorted(set(rs.all_relations()), key=Relation.sort_key)
    for rank, rel in enumerate(relations):
        if rel.mandatory:
            by_target.setdefault(rel.target, []).append((rank, rel))

    frontier = list(reasons)
    if missing_targets_discard:
        frontier += [target for target in by_target if target not in rs.records]
    while frontier:
        # A source still kept can only point at the last wave's records: an
        # edge into an earlier wave would have pulled it down already.
        wave: dict[RecordKey, tuple[int, RecordKey]] = {}
        for target in frontier:
            for rank, rel in by_target.get(target, ()):
                source = rel.source
                if (source in rs.records and source not in reasons
                        and (source not in wave or rank < wave[source][0])):
                    wave[source] = (rank, target)
        for source, (_, target) in wave.items():
            reasons[source] = CascadeFrom(target)
        frontier = list(wave)

    kept = RecordSet()
    for key, record in rs.records.items():
        if key not in reasons:
            kept.records[key] = record
    kept.relations = [rel for rel in rs.relations if rel.source not in reasons]
    discarded = [(key, reasons[key]) for key in sorted(reasons)]
    return DiscardReport(kept=kept, discarded=discarded)


def duplicate_violations(duplicates: list[RecordKey]) -> list[Violation]:
    """One violation per (type, id) in *duplicates*, in first-seen order."""
    return [Violation("id", "invalid", f"{key.kind} {key.id} declared more than once")
            for key in dict.fromkeys(duplicates)]


def check_document_uniqueness(data: str | bytes, *, cerif_ns=None) -> list[Violation]:
    """Report each (type, id) declared more than once in the raw document."""
    _, _, duplicates = parse_with_duplicates(data, cerif_ns=cerif_ns or CERIF_NS)
    return duplicate_violations(duplicates)
