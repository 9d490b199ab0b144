"""Reader and writer for the CERIF-RDF document dialect.

The dialect is a restricted RDF/XML profile: an rdf:RDF root whose children
are typed record nodes carrying an ID attribute, literal property elements,
rdf:Bag containers for repeating groups, and resource= attributes for
references.  Parsing is deliberately forgiving (unknown elements, stray
whitespace, a missing cerif prefix declaration and legacy spellings all come
back as warnings); writing is byte-deterministic.

The reader maps each top-level child of rdf:RDF as soon as it is complete.
A text longer than one chunk (_CHUNK characters) is fed to a pull parser a
chunk at a time and each mapped child is dropped, so past one chunk the
reader holds the text and about one top-level child's subtree, not a tree of
the whole text.  A shorter text is parsed whole, which is faster at that
size; both go through the same mapping.  The reader never touches gc, whose
setting belongs to the process.

The writer refuses only what the reader would not read back as written,
by one rule, writer_faults, which Store.save and exchange.plan_session also
apply before their first file; exchange.plan_session and
htmlbridge.render_html, not the writer, refuse incomplete records.

Which elements a record kind has, in which order, and what value shape each
holds comes from the field table model.RECORD_FIELDS; this module only knows
how to read and write each shape.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CerifError, FormatError, InvariantViolation
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
    SCALAR_TEXT,
    SEX_CODES,
    STATUS_BY_TOKEN,
    TranslatedText,
    collapse_ws,
    nested_relations,
    normalize_translation_code,
    parse_partial_date,
    present_fields,
    split_semicolon_list,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
CERIF_NS = "http://derpi.tuwien.ac.at/~andrei/cerif-rdf#"

_RDF_BAG = f"{{{RDF_NS}}}Bag"
_RDF_LI = f"{{{RDF_NS}}}li"

# Accepted alternative spellings of record kinds and field containers.  The
# canonical column follows the worked record examples; the alternatives cover
# the tabular naming style and a few attested one-off variants.  Elements
# inside a bag item are not looked up here: each rdf:li's element is taken by
# its position, and its children by a rule on their local name (see the
# _parse_* item readers), so their spelling decides nothing.
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
    "project-abstracts": ("project.project-abstracts",),
    "project-keywords": ("project.project-keywords",),
    "project-relations": ("project.project-relations",),
}

_CANONICAL = (*RECORD_CLASSES, "relations",
              *(spec.element for table in RECORD_FIELDS.values() for spec in table))
_ALIAS_LOOKUP: dict[str, str] = {name.lower(): name for name in _CANONICAL}
for _canonical, _variants in _ALIASES.items():
    for _v in _variants:
        _ALIAS_LOOKUP[_v.lower()] = _canonical


# xml.sax.saxutils has the same two, but importing it loads urllib.request,
# http.client, email and ssl, about 40 ms of every command's start-up
def escape(text: str) -> str:
    """*text* with '&', '<' and '>' written as entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """*text* as a quoted attribute value, escaped, and with line breaks
    and tabs as character references; quoted with '"' unless it holds
    only that quote, then with "'"."""
    text = (escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


@dataclass(eq=False, slots=True)
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
            raise InvariantViolation(f"{key.kind} {key.id} already present")
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


# Up to the first '>' outside a quoted attribute value; unrolled so that
# each run of plain characters is one step.
_TAG_END = re.compile(r"""[^"'>]*(?:(?:"[^"]*"|'[^']*')[^"'>]*)*>""")


def find_tag_end(text: str, start: int) -> int | None:
    """Index just past the '>' closing the tag that starts at *start*, or
    None when the tag does not end; a '>' inside quotes does not close it."""
    m = _TAG_END.match(text, start)
    return m.end() if m else None


def _inject_namespaces(text: str, cerif_ns: str) -> tuple[str, list[str]]:
    """Add missing standard xmlns declarations to a literal rdf:RDF root tag."""
    m = re.search(r"<rdf:RDF\b", text)
    if m is None:
        raise FormatError("undeclared namespace prefix and no rdf:RDF root to repair")
    end = find_tag_end(text, m.start())
    if end is None:
        raise FormatError("unterminated rdf:RDF start tag")
    head = text[m.start():end]
    missing = [(p, u) for p, u in
               (("rdf", RDF_NS), ("rdfs", RDFS_NS), ("cerif", cerif_ns))
               if f"xmlns:{p}" not in head]
    if not missing:
        raise FormatError("undeclared namespace prefix not repairable from the root tag")
    insertion = "".join(f" xmlns:{p}={quoteattr(u)}" for p, u in missing)
    cut = head.rindex("/>") if head.rstrip().endswith("/>") else head.rindex(">")
    repaired = head[:cut] + insertion + head[cut:]
    warnings = [f"assumed namespace {u} for undeclared prefix {p}:" for p, u in missing]
    return text[:m.start()] + repaired + text[end:], warnings


def check_namespace(cerif_ns: str) -> str:
    """*cerif_ns*, refused with FormatError when empty, which would undeclare
    the cerif prefix, or holding '}', at which ElementTree splits tags."""
    if not cerif_ns or "}" in cerif_ns:
        raise FormatError(f"cerif namespace URI {cerif_ns!r} is empty or holds "
                          "'}', so documents under it would not read back")
    return cerif_ns


def _split_tag(tag: str) -> tuple[str | None, str]:
    if tag.startswith("{"):
        uri, _, local = tag[1:].partition("}")
        return uri, local
    return None, tag


@lru_cache(maxsize=1024)  # tags come from the input, so the cache is bounded
def _cerif_tag(tag: str, cerif_ns: str) -> tuple[str, str, bool] | None:
    """(local name, canonical spelling, whether it came bare) of a cerif
    element tag, or None for a tag in another namespace.  A name that spells
    no record kind or field container comes back as it stands.  A bare tag
    is the 'cerif.x' spelling without a namespace, read as cerif:x."""
    uri, local = _split_tag(tag)
    if uri == cerif_ns:
        bare = False
    elif uri is None and local.startswith("cerif."):
        local, bare = local[len("cerif."):], True
    else:
        return None
    return local, _ALIAS_LOOKUP.get(local.lower(), local), bare


def _cerif_local(tag: str, cerif_ns: str,
                 warnings: list[str]) -> tuple[str, str] | None:
    """(local name, canonical spelling) of a cerif element, tolerating the
    bare 'cerif.' spelling with a warning at each occurrence."""
    names = _cerif_tag(tag, cerif_ns)
    if names is None:
        return None
    local, canonical, bare = names
    if bare:
        warnings.append(f"element cerif.{local} read as cerif:{local}")
    return local, canonical


def _cerif_children(el: ET.Element, cerif_ns: str, warnings: list[str], where: str):
    """(child, local name, canonical spelling) for each cerif child of *el*,
    in order; a child from another namespace is warned about where it stands
    and skipped."""
    for child in el:
        names = _cerif_local(child.tag, cerif_ns, warnings)
        if names is None:
            warnings.append(f"{where}: foreign element ignored")
        else:
            yield child, *names


def _text_of(el: ET.Element) -> str:
    if len(el):
        return collapse_ws("".join(el.itertext()))
    return collapse_ws(el.text or "")


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


def _first(seen: set[str], slot: str, local: str, warnings: list[str],
           where: str) -> bool:
    """Whether cerif:*local* is the first element of its bag item to fill
    *slot*; a later one is warned about, for its caller to ignore, so an
    item keeps its first element as a record keeps its first field."""
    if slot in seen:
        warnings.append(f"{where}: repeated cerif:{local} in one item, first one kept")
        return False
    seen.add(slot)
    return True


def _parse_translated(item: ET.Element, cerif_ns: str, warnings: list[str],
                      where: str) -> TranslatedText:
    language = ""
    translation = None
    text = ""
    seen: set[str] = set()
    for child, local, _ in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        if "lang" in lowered:
            if _first(seen, "lang", local, warnings, where):
                language = _text_of(child).lower()
        elif "trans" in lowered:
            token = _text_of(child)
            if _first(seen, "trans", local, warnings, where) and token:
                try:
                    translation = normalize_translation_code(token, warnings)
                except FormatError as exc:
                    warnings.append(f"{where}: {exc}")
        elif "text" not in seen:
            text = _text_of(child)
            seen.add("text")
        else:
            warnings.append(f"{where}: second text element cerif:{local} ignored")
    return TranslatedText(language=language, translation=translation, text=text)


def _parse_skill(item: ET.Element, cerif_ns: str, warnings: list[str],
                 where: str) -> ExpertSkill:
    role: str | None = None
    skill = ""
    seen: set[str] = set()
    for child, local, _ in _cerif_children(item, cerif_ns, warnings, where):
        if local.lower().endswith(".role"):
            if _first(seen, "role", local, warnings, where):
                role = _text_of(child) or None
        elif _first(seen, "skill", local, warnings, where):
            skill = _text_of(child)
    return ExpertSkill(skill=skill, role=role)


def _parse_contact(item: ET.Element, cerif_ns: str, warnings: list[str],
                   where: str) -> Contact:
    fields = {"telephone": None, "email": None, "uri": None}
    seen: set[str] = set()
    for child, local, _ in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        for name in fields:
            if lowered.endswith("." + name) or lowered == name:
                if _first(seen, name, local, warnings, where):
                    fields[name] = _text_of(child) or None
                break
        else:
            warnings.append(f"{where}: unknown element cerif:{local} ignored")
    return Contact(**fields)


def _parse_ou_relation(item: ET.Element, cerif_ns: str, warnings: list[str],
                       where: str) -> OuOuRelation | None:
    target = None
    role = ""
    seen: set[str] = set()
    for child, local, _ in _cerif_children(item, cerif_ns, warnings, where):
        if local.lower().endswith(".role"):
            if _first(seen, "role", local, warnings, where):
                role = _text_of(child)
        elif "resource" in child.attrib:
            if _first(seen, "target", local, warnings, where):
                target = collapse_ws(child.attrib["resource"])
        else:
            warnings.append(f"{where}: element cerif:{local} without resource ignored")
    if not target:
        warnings.append(f"{where}: ou_ou_relation without a target dropped")
        return None
    return OuOuRelation(target=target, role=role)


def _parse_relation(item: ET.Element, cerif_ns: str, warnings: list[str],
                    where: str) -> Relation | None:
    source = None
    target = None
    role = ""
    mandatory = False
    seen: set[str] = set()
    for child, local, _ in _cerif_children(item, cerif_ns, warnings, where):
        lowered = local.lower()
        if lowered.startswith("rel.from.") or lowered.startswith("rel.to."):
            end = "from" if lowered.startswith("rel.from.") else "to"
            kind = lowered.rsplit(".", 1)[1]
            if kind not in RECORD_TYPES:
                warnings.append(f"{where}: relation endpoint with unknown type {kind!r} "
                                "ignored")
                continue
            ident = collapse_ws(child.attrib.get("resource", ""))
            if not ident:
                warnings.append(f"{where}: relation endpoint without resource ignored")
            elif _first(seen, end, local, warnings, where):
                if end == "from":
                    source = RecordKey(kind, ident)
                else:
                    target = RecordKey(kind, ident)
        elif lowered.endswith(".role"):
            if _first(seen, "role", local, warnings, where):
                role = _text_of(child)
        elif lowered.endswith(".mandatory"):
            if _first(seen, "mandatory", local, warnings, where):
                mandatory = _text_of(child).lower() in ("true", "1", "yes")
        else:
            warnings.append(f"{where}: unknown element cerif:{local} ignored")
    if source is None or target is None:
        warnings.append(f"{where}: relation without both endpoints dropped")
        return None
    return Relation(source=source, target=target, role=role, mandatory=mandatory)


def _record_id(el: ET.Element, kind: str) -> str:
    raw = el.attrib.get("ID")
    if raw is None:
        raise FormatError(f"cerif:{kind} node without ID attribute")
    ident = collapse_ws(raw)
    if not ident:
        raise FormatError(f"cerif:{kind} node with empty ID attribute")
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
    except FormatError as exc:
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


# shape -> reader.  A scalar shape reads element text; a bag shape one item.
_READERS = {
    "status": _read_status,
    "date": _read_date,
    "text": _read_text,
    "sex": _read_sex,
    "list": _read_list,
    "translated": _parse_translated,
    "relations": _parse_relation,
    "skills": _parse_skill,
    "contacts": _parse_contact,
    "ou_relations": _parse_ou_relation,
}

# shape -> writer.  A scalar shape gives element text; a bag shape one item.
_WRITERS = {
    **SCALAR_TEXT,
    "translated": _write_translated,
    "relations": _write_relation,
    "skills": _write_skill,
    "contacts": _write_contact,
    "ou_relations": _write_ou_relation,
}

# record class -> canonical element -> (field spec, reader, the container's
# last word, which names the bag in warnings)
_ELEMENTS = {
    cls: {spec.element: (spec, _READERS[spec.shape],
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
    for child, local, canonical in _cerif_children(el, cerif_ns, warnings, owner):
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


def _map_child(child: ET.Element, rs: RecordSet, duplicates: list[RecordKey],
               cerif_ns: str, collect_duplicates: bool, warnings: list[str]) -> None:
    """Map one complete top-level child of rdf:RDF into *rs*."""
    names = _cerif_local(child.tag, cerif_ns, warnings)
    if names is None:
        warnings.append("non-CERIF element under rdf:RDF ignored")
        return
    local, canonical = names
    if canonical in RECORD_CLASSES:
        record = _parse_record(child, canonical, cerif_ns, warnings)
        key = record.key
        if key not in rs.records:
            rs.records[key] = record
        elif collect_duplicates:
            duplicates.append(key)
        else:
            raise FormatError(f"{key.kind} {key.id} declared more than once")
    elif canonical == "relations":
        rs.extend_relations(_read_bag(child, _parse_relation, cerif_ns,
                                      warnings, "document relations"))
    else:
        warnings.append(f"unknown typed element cerif:{local} ignored")


# Past this many characters a text is parsed a chunk at a time.
_CHUNK = 1 << 16


def _top_level(text: str):
    """The root element of *text*, then each child of the root once it is
    complete; ET.ParseError where the text is not well-formed.

    A text of at most one chunk is parsed whole.  A longer one is fed to a
    pull parser a chunk at a time, and each child leaves the tree once it
    has been handed on, so the tree never holds more than the root and the
    children begun since the last one handed on.
    """
    if len(text) <= _CHUNK:
        root = ET.fromstring(text)
        yield root
        yield from root
        return
    parser = ET.XMLPullParser(("start",))
    root = None
    # one step past the text closes the parser, which may still give events:
    # expat may defer a token that spans chunks until the end
    for start in range(0, len(text) + _CHUNK, _CHUNK):
        if start < len(text):
            parser.feed(text[start:start + _CHUNK])
        else:
            parser.close()
        for _, el in parser.read_events():
            if root is None:
                root = el
                yield root
            elif len(root) > 1 and el is root[-1]:
                # the last child has begun, so every earlier one is complete
                while len(root) > 1:
                    yield root[0]
                    del root[0]
    yield from root


def _read(text: str, cerif_ns: str, collect_duplicates: bool,
          warnings: list[str]) -> tuple[RecordSet, list[str], list[RecordKey]]:
    """Map the children of the root of *text* in document order.

    The first CerifError of the root check or the mapping is held until the
    whole text is parsed, so that an ET.ParseError anywhere in the text comes
    first, as it would from a tree built whole.
    """
    elements = _top_level(text)
    root = next(elements)
    held: CerifError | None = None
    if _split_tag(root.tag) != (RDF_NS, "RDF"):
        held = FormatError(f"root element is {root.tag}, expected rdf:RDF")
    rs = RecordSet()
    duplicates: list[RecordKey] = []
    for child in elements:
        if held is None:
            try:
                _map_child(child, rs, duplicates, cerif_ns, collect_duplicates, warnings)
            except CerifError as exc:
                held = exc
    if held is not None:
        raise held
    return rs, warnings, duplicates


_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _parse(data: str | bytes, cerif_ns: str,
           collect_duplicates: bool) -> tuple[RecordSet, list[str], list[RecordKey]]:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"document is not UTF-8: {exc}") from None
    else:
        text = data
    check_namespace(cerif_ns)
    # Only a str can hold a lone surrogate.  Expat cannot take one, and a
    # streamed text would reach it only after the chunks before it.
    bad = (None if isinstance(data, bytes) or text.isascii()
           else _LONE_SURROGATE.search(text))
    if bad:
        raise FormatError(f"document text holds lone surrogate {bad.group()!r} "
                          f"at character {bad.start()}, which UTF-8 cannot encode")
    try:
        try:
            return _read(text, cerif_ns, collect_duplicates, [])
        except ET.ParseError as exc:
            if "unbound prefix" not in str(exc):
                raise
        repaired, warnings = _inject_namespaces(text, cerif_ns)
        return _read(repaired, cerif_ns, collect_duplicates, warnings)
    except ET.ParseError as exc:
        raise FormatError(f"not well-formed: {exc}") from None


def parse_document(data: str | bytes, *,
                   cerif_ns: str = CERIF_NS) -> tuple[RecordSet, list[str]]:
    """Parse one CERIF-RDF document.

    Returns the record set together with the list of recovery warnings.
    Raises FormatError for a document that is not usable at all, declares
    one (type, id) twice or holds a typed node without an ID attribute.
    """
    rs, warnings, _ = _parse(data, cerif_ns, collect_duplicates=False)
    return rs, warnings


def parse_with_duplicates(data: str | bytes, *, cerif_ns: str = CERIF_NS
                          ) -> tuple[RecordSet, list[str], list[RecordKey]]:
    """parse_document for a document that may declare one (type, id) twice.

    The first declaration is kept; each later one is listed in the third
    value, in document order, instead of being refused.
    """
    return _parse(data, cerif_ns, collect_duplicates=True)


# ---------------------------------------------------------------------------
# serialization

# how the writer words an endpoint without an id and an empty role
_FAULT_WORDS = ("relation endpoint without id", "relation without a role")


def writer_faults(rs: RecordSet):
    """(key, fault) for each thing in *rs* the reader would not read back:
    a fault of a relation nested in record *key* (in key order) or of a
    document relation (key None), and an org-unit relation without a target."""
    for key in sorted(rs.records):
        for spec, value in present_fields(rs.records[key]):
            if spec.shape == "relations":
                for rel in value:
                    for fault in rel.faults(*_FAULT_WORDS):
                        yield key, fault
            elif spec.shape == "ou_relations" and not all(rel.target for rel in value):
                yield key, "org-unit relation without a target"
    for rel in rs.relations:
        for fault in rel.faults(*_FAULT_WORDS):
            yield None, fault


def check_writable(rs: RecordSet) -> None:
    """Refuse the first of writer_faults(rs) with InvariantViolation."""
    for key, fault in writer_faults(rs):
        where = "document relations" if key is None else f"{key.kind} {key.id}"
        raise InvariantViolation(f"{where}: {fault}")


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
        write = _WRITERS[spec.shape]
        if spec.parts:
            _write_bag(w, 2, spec.element, spec.parts, value, write)
        else:
            w.literal(2, spec.element, write(value))
    w.line(1, f"</cerif:{record.kind}>")


def serialize_document(rs: RecordSet, *, cerif_ns: str = CERIF_NS,
                       validate: object = None) -> str:
    """Write a record set to canonical CERIF-RDF text.

    Records are emitted sorted by (type, id) with properties in schema order,
    so output is byte-identical across runs.  What check_namespace and
    check_writable refuse raises; completeness is not checked here.
    validate is ignored, kept for callers that still pass it.
    """
    check_namespace(cerif_ns)
    check_writable(rs)
    w = _Writer()
    w.lines.append(f'<rdf:RDF xmlns:rdf="{RDF_NS}"')
    w.lines.append(f'    xmlns:rdfs="{RDFS_NS}"')
    w.lines.append(f"    xmlns:cerif={quoteattr(cerif_ns)}>")
    for key in sorted(rs.records):
        _write_record(w, rs.records[key])
    if rs.relations:
        _write_bag(w, 1, "relations", ("relation",),
                   sorted(set(rs.relations), key=Relation.sort_key), _write_relation)
    w.lines.append("</rdf:RDF>")
    return "\n".join(w.lines) + "\n"
