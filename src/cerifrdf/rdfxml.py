"""Reader and writer for the CERIF-RDF document dialect.

The dialect is a restricted RDF/XML profile: an rdf:RDF root whose children
are typed record nodes carrying an ID attribute, literal property elements,
rdf:Bag containers for repeating groups, and resource= attributes for
references.  Parsing is deliberately forgiving (unknown elements, stray
whitespace, a missing cerif prefix declaration and legacy spellings all come
back as warnings); writing is strict and byte-deterministic.

Which elements a record kind has, in which order, and what value shape each
holds comes from the field table model.RECORD_FIELDS; this module only knows
how to read and write each shape.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections.abc import Iterable
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

from .errors import DuplicateId, InvariantViolation, MissingId, UnknownCode, XmlError
from .model import (
    Contact,
    ExpertSkill,
    OuOuRelation,
    PartialDate,
    Record,
    RecordKey,
    Relation,
    RECORD_CLASSES,
    RECORD_FIELDS,
    RECORD_TYPES,
    SEX_CODES,
    STATUS_BY_TOKEN,
    TranslatedText,
    collapse_ws,
    format_partial_date,
    join_semicolon_list,
    nested_relations,
    normalize_translation_code,
    parse_partial_date,
    present_fields,
    split_semicolon_list,
    status_token,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
CERIF_NS = "http://derpi.tuwien.ac.at/~andrei/cerif-rdf#"

_RDF_BAG = f"{{{RDF_NS}}}Bag"
_RDF_LI = f"{{{RDF_NS}}}li"

# Accepted alternative spellings of canonical element names.  The canonical
# column follows the worked record examples; the alternatives cover the
# tabular naming style and a few attested one-off variants.  Every element
# named in the field table is canonical, with or without alternatives.
_ALIASES: dict[str, tuple[str, ...]] = {
    "project": ("project.project",),
    "person": ("person.person",),
    "orgunit": ("orgunit.orgunit",),
    "proj_status": ("project.status",),
    "proj_startdate": ("proj_start_date", "project.startdate"),
    "proj_enddate": ("proj_end_date", "project.enddate"),
    "proj_uri": ("proj_url", "project.uri"),
    "proj_prizeaward": ("proj_prize_award", "project.prizeawards", "project.prizeaward"),
    "project-titles": ("project.project-titles",),
    "Project-title": ("project.project-title",),
    "proj_title_trans_type": ("proj_title_transl_type",),
    "project-abstracts": ("project.project-abstracts",),
    "Project-abstract": ("project.project-abstract",),
    "proj_abs_trans_type": ("proj_abs_transl_type",),
    "proj_abstract": ("proj-abstract",),
    "project-keywords": ("project.project-keywords",),
    "Project-keyword": ("project.project-keyword",),
    "proj_keywords": ("project.keywords",),
    "project-relations": ("project.project-relations",),
    "Project-relation": ("project.project-relation",),
}

_CANONICAL = (*RECORD_CLASSES, "relations", "relation", "rel.role", "rel.mandatory",
              *(name for table in RECORD_FIELDS.values() for spec in table
                for name in (spec.element, *spec.parts)))
_ALIAS_LOOKUP: dict[str, str] = {name.lower(): name for name in _CANONICAL}
for _canonical, _variants in _ALIASES.items():
    for _v in _variants:
        _ALIAS_LOOKUP[_v.lower()] = _canonical


def resolve_alias(name: str) -> tuple[str, bool]:
    """Return the canonical spelling for a cerif element name.

    The result is (canonical, known).  Unknown names come back unchanged with
    known=False so callers can warn without losing the original spelling.
    Relation endpoint elements are recognized structurally because the record
    type is part of the name.
    """
    lowered = name.lower()
    hit = _ALIAS_LOOKUP.get(lowered)
    if hit is not None:
        return hit, True
    for prefix in ("rel.from.", "rel.to."):
        if lowered.startswith(prefix) and lowered[len(prefix):] in RECORD_TYPES:
            return lowered, True
    return name, False


@dataclass(eq=False)
class RecordSet:
    """One parsed or buildable document: records keyed by (type, id).

    relations holds document-level relation descriptions, those not nested
    inside any record.  Per-object exchange files for persons and org-units
    carry their incident relations this way, because only project records
    embed relations directly.  It is a plain list that add_relation and
    extend_relations keep free of duplicates.
    """

    records: dict[RecordKey, Record] = field(default_factory=dict)
    relations: list[Relation] = field(default_factory=list)

    def add(self, record: Record) -> None:
        key = record.key
        if key in self.records:
            raise DuplicateId(f"{key.kind} {key.id} already present")
        self.records[key] = record

    def add_relation(self, relation: Relation) -> None:
        self.extend_relations((relation,))

    def extend_relations(self, relations: Iterable[Relation]) -> None:
        """Append each relation not yet present, in order, in linear time."""
        self.relations = list(dict.fromkeys([*self.relations, *relations]))

    def all_relations(self) -> list[Relation]:
        """Every relation in the set, nested ones first, without duplicates."""
        nested = [rel for key in sorted(self.records)
                  for rel in nested_relations(self.records[key])]
        return list(dict.fromkeys([*nested, *self.relations]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return (self.records == other.records
                and set(self.relations) == set(other.relations))


def _scan_tag_end(text: str, start: int) -> int | None:
    """Index just past the '>' closing the tag that starts at *start*."""
    quote: str | None = None
    for i in range(start, len(text)):
        c = text[i]
        if quote:
            if c == quote:
                quote = None
        elif c in "\"'":
            quote = c
        elif c == ">":
            return i + 1
    return None


def _inject_namespaces(text: str, cerif_ns: str) -> tuple[str, list[str]]:
    """Add missing standard xmlns declarations to a literal rdf:RDF root tag."""
    m = re.search(r"<rdf:RDF\b", text)
    if m is None:
        raise XmlError("undeclared namespace prefix and no rdf:RDF root to repair")
    end = _scan_tag_end(text, m.start())
    if end is None:
        raise XmlError("unterminated rdf:RDF start tag")
    head = text[m.start():end]
    missing = [(p, u) for p, u in
               (("rdf", RDF_NS), ("rdfs", RDFS_NS), ("cerif", cerif_ns))
               if f"xmlns:{p}" not in head]
    if not missing:
        raise XmlError("undeclared namespace prefix not repairable from the root tag")
    insertion = "".join(f' xmlns:{p}="{u}"' for p, u in missing)
    cut = head.rindex("/>") if head.rstrip().endswith("/>") else head.rindex(">")
    repaired = head[:cut] + insertion + head[cut:]
    warnings = [f"assumed namespace {u} for undeclared prefix {p}:" for p, u in missing]
    return text[:m.start()] + repaired + text[end:], warnings


def _split_tag(tag: str) -> tuple[str | None, str]:
    if tag.startswith("{"):
        uri, _, local = tag[1:].partition("}")
        return uri, local
    return None, tag


def _cerif_local(tag: str, cerif_ns: str, warnings: list[str]) -> str | None:
    """Local name of a cerif element, tolerating the bare 'cerif.' spelling."""
    uri, local = _split_tag(tag)
    if uri == cerif_ns:
        return local
    if uri is None and local.startswith("cerif."):
        warnings.append(f"element {local} read as cerif:{local[len('cerif.'):]}")
        return local[len("cerif."):]
    return None


def _cerif_children(el: ET.Element, cerif_ns: str, warnings: list[str], where: str):
    """(child, local name) for each cerif child of *el*, in order; a child
    from another namespace is warned about where it stands and skipped."""
    for child in el:
        local = _cerif_local(child.tag, cerif_ns, warnings)
        if local is None:
            warnings.append(f"{where}: foreign element ignored")
        else:
            yield child, local


def _text_of(el: ET.Element) -> str:
    return collapse_ws("".join(el.itertext()))


def _read_bag(container: ET.Element, read_item, cerif_ns: str, warnings: list[str],
              where: str) -> tuple:
    """Values read from the inner element of each non-empty rdf:li under the
    container's rdf:Bag; read_item may return None to drop an item.  Every
    warning about the bag's structure comes before those about its items."""
    bags = [child for child in container if child.tag == _RDF_BAG]
    if not bags:
        warnings.append(f"{where}: no rdf:Bag inside container")
        return ()
    if len(bags) > 1:
        warnings.append(f"{where}: more than one rdf:Bag, extra ones ignored")
    items: list[ET.Element] = []
    for li in bags[0]:
        if li.tag != _RDF_LI:
            warnings.append(f"{where}: non-li bag member ignored")
            continue
        inner = list(li)
        if not inner:
            if _text_of(li):
                warnings.append(f"{where}: bare-text list item dropped")
            else:
                warnings.append(f"{where}: empty list item dropped")
            continue
        if len(inner) > 1:
            warnings.append(f"{where}: extra elements inside one list item ignored")
        items.append(inner[0])
    values = (read_item(item, cerif_ns, warnings, where) for item in items)
    return tuple(value for value in values if value is not None)


def _parse_translated(item: ET.Element, cerif_ns: str, warnings: list[str],
                      where: str) -> TranslatedText:
    language = ""
    translation = None
    text = ""
    have_text = False
    for child, local in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        if "lang" in lowered:
            language = _text_of(child).lower()
        elif "trans" in lowered:
            token = _text_of(child)
            if token:
                try:
                    translation = normalize_translation_code(token, warnings)
                except UnknownCode as exc:
                    warnings.append(f"{where}: {exc}")
        elif not have_text:
            text = _text_of(child)
            have_text = True
        else:
            warnings.append(f"{where}: second text element cerif:{local} ignored")
    return TranslatedText(language=language, translation=translation, text=text)


def _parse_skill(item: ET.Element, cerif_ns: str, warnings: list[str],
                 where: str) -> ExpertSkill:
    role: str | None = None
    skill = ""
    for child, local in _cerif_children(item, cerif_ns, warnings, where):
        if local.lower().endswith(".role"):
            role = _text_of(child) or None
        else:
            skill = _text_of(child)
    return ExpertSkill(skill=skill, role=role)


def _parse_contact(item: ET.Element, cerif_ns: str, warnings: list[str],
                   where: str) -> Contact:
    fields = {"telephone": None, "email": None, "uri": None}
    for child, local in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        for name in fields:
            if lowered.endswith("." + name) or lowered == name:
                fields[name] = _text_of(child) or None
                break
        else:
            warnings.append(f"contact: unknown element cerif:{local} ignored")
    return Contact(**fields)


def _parse_ou_relation(item: ET.Element, cerif_ns: str, warnings: list[str],
                       where: str) -> OuOuRelation | None:
    target = None
    role = ""
    for child, local in _cerif_children(item, cerif_ns, warnings, where):
        if local.lower().endswith(".role"):
            role = _text_of(child)
        elif "resource" in child.attrib:
            target = collapse_ws(child.attrib["resource"])
        else:
            warnings.append(f"ou_ou_relation: element cerif:{local} without resource ignored")
    if not target:
        warnings.append("ou_ou_relation without a target dropped")
        return None
    return OuOuRelation(target=target, role=role)


def _parse_relation(item: ET.Element, cerif_ns: str, warnings: list[str],
                    where: str) -> Relation | None:
    source = None
    target = None
    role = ""
    mandatory = False
    for child, local in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        if lowered.startswith("rel.from.") or lowered.startswith("rel.to."):
            kind = lowered.rsplit(".", 1)[1]
            if kind not in RECORD_TYPES:
                warnings.append(f"relation endpoint with unknown type {kind!r} ignored")
                continue
            ident = collapse_ws(child.attrib.get("resource", ""))
            if not ident:
                warnings.append("relation endpoint without resource ignored")
                continue
            if lowered.startswith("rel.from."):
                source = RecordKey(kind, ident)
            else:
                target = RecordKey(kind, ident)
        elif lowered.endswith(".role"):
            role = _text_of(child)
        elif lowered.endswith(".mandatory"):
            mandatory = _text_of(child).lower() in ("true", "1", "yes")
        else:
            warnings.append(f"relation: unknown element cerif:{local} ignored")
    if source is None or target is None:
        warnings.append("relation without both endpoints dropped")
        return None
    return Relation(source=source, target=target, role=role, mandatory=mandatory)


def _record_id(el: ET.Element, kind: str) -> str:
    raw = el.attrib.get("ID")
    if raw is None:
        raise MissingId(f"cerif:{kind} node without ID attribute")
    ident = collapse_ws(raw)
    if not ident:
        raise MissingId(f"cerif:{kind} node with empty ID attribute")
    return ident


# Scalar readers take the element text, "kind id" of the record for
# warnings, the field spec and the warning list.

def _read_status(token: str, owner: str, spec, warnings: list[str]):
    if not token:
        return None
    status = STATUS_BY_TOKEN.get(token)
    if status is None:
        warnings.append(f"{owner}: unrecognized status {token!r}")
        return token
    return status


def _read_date(raw: str, owner: str, spec, warnings: list[str]) -> PartialDate | None:
    if not raw:
        return None
    try:
        return parse_partial_date(raw)
    except Exception as exc:  # FormatError, reported not raised
        warnings.append(f"unusable {spec.label} {raw!r}: {exc}")
        return None


def _read_text(text: str, owner: str, spec, warnings: list[str]) -> str | None:
    return text or spec.default


def _read_sex(token: str, owner: str, spec, warnings: list[str]) -> str | None:
    if token and token not in SEX_CODES:
        warnings.append(f"{owner}: unrecognized sex code {token!r}")
    return token or None


def _read_list(text: str, owner: str, spec, warnings: list[str]) -> tuple[str, ...]:
    return tuple(split_semicolon_list(text))


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def literal(self, depth: int, name: str, value: str) -> None:
        self.line(depth, f"<cerif:{name}>{escape(value)}</cerif:{name}>")

    def reference(self, depth: int, name: str, value: str) -> None:
        self.line(depth, f"<cerif:{name} resource={quoteattr(value)}/>")


# Bag item writers emit the children of one item element; parts is the
# field's (item element, inner elements...) tuple.

def _write_translated(w: _Writer, depth: int, parts, tt: TranslatedText) -> None:
    _, language, translation, text = parts
    w.literal(depth, language, tt.language)
    w.literal(depth, translation, tt.translation.value if tt.translation else "")
    w.literal(depth, text, tt.text)


def _write_relation(w: _Writer, depth: int, parts, rel: Relation) -> None:
    w.reference(depth, f"rel.from.{rel.source.kind}", rel.source.id)
    w.reference(depth, f"rel.to.{rel.target.kind}", rel.target.id)
    w.literal(depth, "rel.role", rel.role)
    if rel.mandatory:
        w.literal(depth, "rel.mandatory", "true")


def _write_skill(w: _Writer, depth: int, parts, sk: ExpertSkill) -> None:
    _, role, skill = parts
    if sk.role is not None:
        w.literal(depth, role, sk.role)
    w.literal(depth, skill, sk.skill)


def _write_contact(w: _Writer, depth: int, parts, contact: Contact) -> None:
    for name, value in zip(parts[1:], (contact.telephone, contact.email, contact.uri)):
        if value is not None:
            w.literal(depth, name, value)


def _write_ou_relation(w: _Writer, depth: int, parts, rel: OuOuRelation) -> None:
    _, target, role = parts
    w.reference(depth, target, rel.target)
    w.literal(depth, role, rel.role)


# shape -> (reader, writer).  A scalar shape reads element text and formats
# its value as element text; a bag shape reads and writes one item.
_SHAPES = {
    "status": (_read_status, status_token),
    "date": (_read_date, format_partial_date),
    "text": (_read_text, str),
    "sex": (_read_sex, str),
    "list": (_read_list, join_semicolon_list),
    "translated": (_parse_translated, _write_translated),
    "relations": (_parse_relation, _write_relation),
    "skills": (_parse_skill, _write_skill),
    "contacts": (_parse_contact, _write_contact),
    "ou_relations": (_parse_ou_relation, _write_ou_relation),
}

# record class -> canonical element -> (field spec, reader, the container's
# last word, which names the bag in warnings)
_ELEMENTS = {
    cls: {spec.element: (spec, _SHAPES[spec.shape][0],
                         re.split(r"[._-]", spec.element)[-1])
          for spec in table}
    for cls, table in RECORD_FIELDS.items()
}


def _parse_record(el: ET.Element, kind: str, cerif_ns: str,
                  warnings: list[str]) -> Record:
    cls = RECORD_CLASSES[kind]
    elements = _ELEMENTS[cls]
    ident = _record_id(el, kind)
    owner = f"{kind} {ident}"
    values: dict = {}
    for child, local in _cerif_children(el, cerif_ns, warnings, owner):
        canonical, _ = resolve_alias(local)
        hit = elements.get(canonical)
        if hit is None:
            warnings.append(f"{owner}: unknown element cerif:{local} ignored")
            continue
        spec, read, word = hit
        if spec.attr in values:
            warnings.append(f"{owner}: duplicate {canonical} element, first one kept")
        elif spec.parts:
            values[spec.attr] = _read_bag(child, read, cerif_ns, warnings,
                                          f"{owner} {word}")
        else:
            values[spec.attr] = read(_text_of(child), owner, spec, warnings)
    return cls(id=ident, **values)


def _parse(data: str | bytes, cerif_ns: str,
           collect_duplicates: bool) -> tuple[RecordSet, list[str], list[RecordKey]]:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XmlError(f"document is not UTF-8: {exc}") from None
    else:
        text = data
    warnings: list[str] = []
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        if "unbound prefix" not in str(exc):
            raise XmlError(f"not well-formed: {exc}") from None
        repaired, inject_warnings = _inject_namespaces(text, cerif_ns)
        try:
            root = ET.fromstring(repaired)
        except ET.ParseError as exc2:
            raise XmlError(f"not well-formed: {exc2}") from None
        warnings.extend(inject_warnings)

    uri, local = _split_tag(root.tag)
    if (uri, local) != (RDF_NS, "RDF"):
        raise XmlError(f"root element is {root.tag}, expected rdf:RDF")

    rs = RecordSet()
    duplicates: list[RecordKey] = []
    for child in root:
        local = _cerif_local(child.tag, cerif_ns, warnings)
        if local is None:
            warnings.append("non-CERIF element under rdf:RDF ignored")
            continue
        canonical, known = resolve_alias(local)
        if canonical in RECORD_CLASSES:
            record = _parse_record(child, canonical, cerif_ns, warnings)
            key = record.key
            if key in rs.records:
                if not collect_duplicates:
                    raise DuplicateId(f"{key.kind} {key.id} declared more than once")
                duplicates.append(key)
                continue
            rs.records[key] = record
        elif canonical == "relations":
            rs.extend_relations(_read_bag(child, _parse_relation, cerif_ns,
                                          warnings, "document relations"))
        else:
            warnings.append(f"unknown typed element cerif:{local} ignored")
    return rs, warnings, duplicates


def parse_document(data: str | bytes, *,
                   cerif_ns: str = CERIF_NS) -> tuple[RecordSet, list[str]]:
    """Parse one CERIF-RDF document.

    Returns the record set together with the list of recovery warnings.
    Raises XmlError for documents that are not usable at all, DuplicateId when
    one (type, id) is declared twice and MissingId for typed nodes without an
    ID attribute.
    """
    rs, warnings, _ = _parse(data, cerif_ns, collect_duplicates=False)
    return rs, warnings


def parse_with_duplicates(data: str | bytes, *, cerif_ns: str = CERIF_NS
                          ) -> tuple[RecordSet, list[str], list[RecordKey]]:
    """parse_document for a document that may declare one (type, id) twice.

    The first declaration is kept; each later one is listed in the third
    value, in document order, instead of raising DuplicateId.
    """
    return _parse(data, cerif_ns, collect_duplicates=True)


# ---------------------------------------------------------------------------
# serialization

def _check_relation(rel: Relation, where: str) -> None:
    for fault in rel.faults("relation endpoint without id", "relation without a role"):
        raise InvariantViolation(f"{where}: {fault}")  # the first fault refuses


def _write_bag(w: _Writer, depth: int, container: str, parts, items,
               write_item) -> None:
    w.line(depth, f"<cerif:{container}>")
    w.line(depth + 1, "<rdf:Bag>")
    for item in items:
        w.line(depth + 2, "<rdf:li>")
        w.line(depth + 3, f"<cerif:{parts[0]}>")
        write_item(w, depth + 4, parts, item)
        w.line(depth + 3, f"</cerif:{parts[0]}>")
        w.line(depth + 2, "</rdf:li>")
    w.line(depth + 1, "</rdf:Bag>")
    w.line(depth, f"</cerif:{container}>")


def _write_record(w: _Writer, record: Record) -> None:
    w.line(1, f"<cerif:{record.kind} ID={quoteattr(record.id)}>")
    for spec, value in present_fields(record):
        write = _SHAPES[spec.shape][1]
        if spec.parts:
            _write_bag(w, 2, spec.element, spec.parts, value, write)
        else:
            w.literal(2, spec.element, write(value))
    w.line(1, f"</cerif:{record.kind}>")


def serialize_document(rs: RecordSet, *, cerif_ns: str = CERIF_NS,
                       validate: bool = True) -> str:
    """Write a record set to canonical CERIF-RDF text.

    Records are emitted sorted by (type, id) with properties in schema order,
    so output is byte-identical across runs.  By default records that break
    their own invariants are refused with InvariantViolation; validate=False
    lifts that for callers persisting gathered material that was never
    claimed to be complete.  Relations are checked either way because broken
    ones cannot be read back.
    """
    from .validation import validate_record

    for key in sorted(rs.records):
        record = rs.records[key]
        if validate:
            problems = validate_record(record)
            if problems:
                detail = "; ".join(v.message for v in problems)
                raise InvariantViolation(f"{key.kind} {key.id}: {detail}")
        for rel in nested_relations(record):
            _check_relation(rel, f"{key.kind} {key.id}")
    for rel in rs.relations:
        _check_relation(rel, "document relations")

    w = _Writer()
    w.lines.append(f'<rdf:RDF xmlns:rdf="{RDF_NS}"')
    w.lines.append(f'    xmlns:rdfs="{RDFS_NS}"')
    w.lines.append(f'    xmlns:cerif="{cerif_ns}">')
    for key in sorted(rs.records):
        _write_record(w, rs.records[key])
    if rs.relations:
        _write_bag(w, 1, "relations", ("relation",),
                   sorted(set(rs.relations), key=Relation.sort_key), _write_relation)
    w.lines.append("</rdf:RDF>")
    return "\n".join(w.lines) + "\n"
