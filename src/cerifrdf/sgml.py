"""Reader and converter for the legacy line-oriented SGML export format.

Records sit between <RECORD> and </RECORD> lines.  Inside a record each line
starting with a three-letter tag like <DEG> opens a value that runs until the
next tag line; there are no closing tags and continuation lines are joined
with single spaces.  Only org-unit descriptions are produced from this
format: the tag set carries no project or result data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EncodingError, MalformedTagLine, MissingId, UnterminatedRecord
from .model import (
    Contact,
    ExpertSkill,
    OrgUnit,
    OuOuRelation,
    PartialDate,
    Person,
    Record,
    Relation,
    TranslatedText,
    TranslationType,
    collapse_ws,
    parse_iso_date,
)
from .rdfxml import RecordSet

KNOWN_TAGS = frozenset({
    "HRU", "KUG", "KUE", "RUG", "RUE", "DUG", "DUE", "SEQ", "SRC", "UPD",
    "CON", "STR", "PCD", "TWN", "TAC", "TEL", "FAX", "EML", "URL", "RCN",
    "UNG", "UNE", "FAG", "FAE", "DEG", "DEE",
})

_TAG_LINE = re.compile(r"^<([A-Z][A-Z0-9]{2})>(.*)$")
_PAREN = re.compile(r"\s*\([^)]*\)")
_SLUG_STRIP = re.compile(r"[^0-9A-Za-zÀ-ÖØ-öø-ÿ]+")


@dataclass(frozen=True)
class LegacyRecord:
    """One legacy record: ordered (tag, value) entries, repeats preserved."""

    entries: tuple[tuple[str, str], ...] = ()

    def values(self, tag: str) -> list[str]:
        return [value for t, value in self.entries if t == tag]

    def first(self, tag: str) -> str | None:
        for t, value in self.entries:
            if t == tag:
                return value
        return None


def parse_sgml(data: str | bytes,
               encoding: str = "utf-8") -> tuple[list[LegacyRecord], list[str]]:
    """Parse legacy export text into records plus unknown-tag warnings.

    Bytes are decoded with *encoding*; bytes that do not decode, or an
    encoding name Python does not know, raise EncodingError.
    """
    try:
        text = data.decode(encoding) if isinstance(data, bytes) else data
    except (UnicodeDecodeError, LookupError) as exc:
        raise EncodingError(f"export not readable as {encoding}: {exc}") from None
    records: list[LegacyRecord] = []
    warnings: list[str] = []
    entries: list[tuple[str, str]] | None = None
    tag: str | None = None
    parts: list[str] = []

    def flush_entry() -> None:
        nonlocal tag, parts
        if tag is not None:
            assert entries is not None
            entries.append((tag, " ".join(p for p in parts if p)))
        tag = None
        parts = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("<"):
            if line == "<RECORD></RECORD>":
                if entries is not None:
                    raise MalformedTagLine(f"line {lineno}: record opened inside a record")
                records.append(LegacyRecord())
                continue
            if line == "<RECORD>":
                if entries is not None:
                    raise UnterminatedRecord(
                        f"line {lineno}: new record before the previous one closed")
                entries = []
                continue
            if line == "</RECORD>":
                if entries is None:
                    raise MalformedTagLine(f"line {lineno}: </RECORD> without <RECORD>")
                flush_entry()
                records.append(LegacyRecord(entries=tuple(entries)))
                entries = None
                continue
            m = _TAG_LINE.match(line)
            if m is None:
                raise MalformedTagLine(f"line {lineno}: {line!r}")
            if entries is None:
                raise MalformedTagLine(f"line {lineno}: tag line outside a record")
            flush_entry()
            tag = m.group(1)
            parts = [collapse_ws(m.group(2))]
            if tag not in KNOWN_TAGS:
                warnings.append(f"line {lineno}: unknown tag <{tag}>")
            continue
        if not line:
            continue
        if entries is None:
            warnings.append(f"line {lineno}: text outside any record ignored")
            continue
        if tag is None:
            raise MalformedTagLine(f"line {lineno}: value text before the first tag")
        parts.append(collapse_ws(line))
    if entries is not None:
        raise UnterminatedRecord("record still open at end of input")
    flush_entry()
    return records, warnings


@dataclass
class ConvertedRecord:
    """Output of mapping one legacy record: the unit itself, the records it
    implies (head person and parent stubs) and the relations joining them."""

    orgunit: OrgUnit
    related: list[Record] = field(default_factory=list)
    relations: list[Relation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _slug(name: str) -> str:
    """Deterministic org-unit identifier derived from a display name."""
    return _SLUG_STRIP.sub(".", name).strip(".").upper()


def _bilingual(german, english) -> tuple[TranslatedText, ...]:
    """German originals, then English human translations; empty values are
    skipped."""
    return (*(TranslatedText("de", TranslationType.ORIGINAL, v) for v in german if v),
            *(TranslatedText("en", TranslationType.HUMAN, v) for v in english if v))


def _stub(ident: str, de_name: str | None, en_name: str | None,
          parent: str | None) -> OrgUnit:
    relations = (OuOuRelation(target=parent, role="parent"),) if parent else ()
    return OrgUnit(id=ident, names=_bilingual([de_name], [en_name]),
                   ou_relations=relations)


def map_record(lr: LegacyRecord, export_date: PartialDate) -> ConvertedRecord:
    """Convert one legacy record to an org-unit with its surrounding records.

    export_date is the date of the session the output is written for; it is
    threaded to converter defaulting rules that depend on it.  Values with no
    CERIF home (address lines, fax, provenance tags) are reported in warnings
    rather than dropped silently.
    """
    warnings: list[str] = []
    rcn = lr.first("RCN")
    if not rcn:
        raise MissingId("legacy record without an RCN identifier")

    skills: list[ExpertSkill] = []
    for tag, value in lr.entries:
        if not value:
            continue
        if tag in ("KUG", "KUE"):
            skills.append(ExpertSkill(skill=value))
        elif tag in ("RUG", "RUE"):
            skills.append(ExpertSkill(skill=value, role="research-field"))

    descriptions = _bilingual(lr.values("DUG"), lr.values("DUE"))
    if descriptions:
        warnings.append("descriptions kept under the extension element "
                        "cerif:orgunit.descriptions")

    # Parent chain: unit under faculty under university, whichever are named.
    ung, une = lr.first("UNG"), lr.first("UNE")
    fag, fae = lr.first("FAG"), lr.first("FAE")
    related: list[Record] = []
    relations: list[Relation] = []
    university_id = _slug(ung or une) if (ung or une) else None
    faculty_id = _slug(fag or fae) if (fag or fae) else None
    parent_of_unit = faculty_id or university_id
    if faculty_id:
        related.append(_stub(faculty_id, fag, fae, university_id))
    if university_id:
        related.append(_stub(university_id, ung, une, None))

    orgunit = OrgUnit(
        id=rcn,
        url=lr.first("URL") or None,
        names=_bilingual(lr.values("DEG"), lr.values("DEE")),
        ou_relations=(OuOuRelation(target=parent_of_unit, role="parent"),)
        if parent_of_unit else (),
        expert_skills=tuple(skills),
        descriptions=descriptions,
    )

    telephone = " ".join(v for v in (lr.first("TAC"), lr.first("TEL")) if v) or None
    email = lr.first("EML") or None
    contact = Contact(telephone=telephone, email=email) \
        if (telephone or email) else None

    hru = lr.first("HRU")
    if hru:
        dropped = _PAREN.findall(hru)
        for suffix in dropped:
            warnings.append(f"dropped name suffix {collapse_ws(suffix)!r} from HRU")
        cleaned = collapse_ws(_PAREN.sub("", hru))
        family, _, first = cleaned.partition(",")
        head = Person(
            id=f"{rcn}.head",
            family_names=collapse_ws(family),
            first_names=collapse_ws(first),
            contacts=(contact,) if contact else (),
        )
        related.insert(0, head)
        relations.append(Relation(source=orgunit.key, target=head.key, role="head"))
    elif contact:
        warnings.append("contact data without an HRU head person was dropped")

    for tag in ("STR", "PCD", "TWN", "FAX"):
        value = lr.first(tag)
        if value:
            warnings.append(f"no CERIF field for {tag}={value!r}")
    for tag in ("SEQ", "SRC", "CON"):
        value = lr.first(tag)
        if value:
            warnings.append(f"provenance only: {tag}={value!r}")
    upd = lr.first("UPD")
    if upd:
        try:
            parsed = parse_iso_date(upd)
        except Exception as exc:
            warnings.append(f"unusable UPD date {upd!r}: {exc}")
        else:
            warnings.append(f"provenance only: UPD={parsed}")

    return ConvertedRecord(orgunit=orgunit, related=related,
                           relations=relations, warnings=warnings)


def build_record_set(converted: list[ConvertedRecord]) -> tuple[RecordSet, list[str]]:
    """Union many conversions into one document, sharing parent stubs.

    Stubs for the same university compare equal across records and merge
    silently; genuinely conflicting duplicates keep the first version and
    produce a warning.
    """
    rs = RecordSet()
    warnings: list[str] = []
    for cv in converted:
        for record in [cv.orgunit, *cv.related]:
            key = record.key
            if key in rs.records:
                if rs.records[key] != record:
                    warnings.append(f"conflicting duplicate {key.kind} {key.id}; "
                                    "first version kept")
                continue
            rs.records[key] = record
    rs.extend_relations(rel for cv in converted for rel in cv.relations)
    return rs, warnings
