"""Embedding CERIF-RDF in web pages and getting it back out.

Rendering produces a human-readable HTML page whose machine-readable twin
travels inside a comment opened by the CERIF-RDF marker.  Extraction does the
inverse and is deliberately independent of everything around the block: it
scans for verbatim rdf:RDF regions wherever they sit, inline or commented.
It scans the page's bytes read as Latin-1, one character per byte, so every
position it finds is a byte offset by construction; only each block is
decoded as UTF-8.

The table rows of a rendered page follow the field table
model.RECORD_FIELDS: one row per scalar field and one per bag item, in
field order, under the field's label.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field

from .errors import CerifError
from .model import SCALAR_TEXT, Record, RecordKey, present_fields
from .rdfxml import CERIF_NS, RecordSet, find_tag_end, parse_document, serialize_document
from .validation import check_record

EMBED_MARKER = "<!--CERIF-RDF"
_OPEN = "<rdf:RDF"
_CLOSE = "</rdf:RDF>"


@dataclass(slots=True)
class ExtractionResult:
    """Documents recovered from one page, each with the byte offset where its
    rdf:RDF block starts, plus any per-block warnings.  blocks holds the
    verbatim text of each document's block, in the same order."""

    documents: list[tuple[RecordSet, int]] = field(default_factory=list)
    blocks: list[str] = field(default_factory=list)
    page_uri: str | None = None
    warnings: list[str] = field(default_factory=list)


def extract_rdf(page: str | bytes, page_uri: str | None = None, *,
                cerif_ns: str = CERIF_NS) -> ExtractionResult:
    """Pull every parseable CERIF-RDF block out of *page*.

    Blocks that fail to parse are reported in warnings and skipped; offsets
    are byte offsets into the page, or into the UTF-8 form of a text page,
    and strictly increase.  Each block is read from its bytes, with
    replacement characters for bytes that are not UTF-8.
    """
    data = page if isinstance(page, bytes) else page.encode("utf-8", "surrogatepass")
    text = data.decode("latin-1")
    result = ExtractionResult(page_uri=page_uri)
    pos = 0
    offset = -1
    while True:
        offset = text.find(_OPEN, max(offset + 1, pos))
        if offset < 0:
            break
        after = text[offset + len(_OPEN):offset + len(_OPEN) + 1]
        if after not in ("", " ", "\t", "\r", "\n", ">", "/"):
            continue
        tag_end = find_tag_end(text, offset)
        if tag_end is None:
            result.warnings.append(f"offset {offset}: unterminated rdf:RDF start tag")
            break
        if text[tag_end - 2:tag_end] == "/>":
            end = tag_end
        else:
            close = text.find(_CLOSE, tag_end)
            if close < 0:
                result.warnings.append(f"offset {offset}: rdf:RDF block never closed")
                pos = tag_end
                continue
            end = close + len(_CLOSE)
        block = data[offset:end].decode("utf-8", errors="replace")
        try:
            rs, block_warnings = parse_document(block, cerif_ns=cerif_ns)
        except CerifError as exc:
            result.warnings.append(f"offset {offset}: block skipped: {exc}")
        else:
            result.documents.append((rs, offset))
            result.blocks.append(block)
            result.warnings.extend(f"offset {offset}: {w}" for w in block_warnings)
        pos = end
    return result


# Bag item rows take the field label and one item and give (label, text).

def _row_translated(label: str, tt) -> tuple[str, str]:
    code = tt.translation.value if tt.translation else "?"
    return f"{label} ({tt.language}, {code})", tt.text


def _row_relation(label: str, rel) -> tuple[str, str]:
    return label, f"{rel.role}: {rel.source} -> {rel.target}"


def _row_skill(label: str, sk) -> tuple[str, str]:
    return label, sk.skill if sk.role is None else f"{sk.skill} (role: {sk.role})"


def _row_contact(label: str, contact) -> tuple[str, str]:
    channels = zip(("telephone", "email", "uri"),
                   (contact.telephone, contact.email, contact.uri))
    return label, "; ".join(f"{name} {value}" for name, value in channels
                            if value is not None)


def _row_ou_relation(label: str, rel) -> tuple[str, str]:
    return label, f"{rel.role}: {RecordKey('orgunit', rel.target)}"


# shape -> row renderer: a scalar shape formats its value as the row text, a
# bag shape renders one row per item.
_ROWS = {
    **SCALAR_TEXT,
    "translated": _row_translated,
    "relations": _row_relation,
    "skills": _row_skill,
    "contacts": _row_contact,
    "ou_relations": _row_ou_relation,
}


def render_html(record: Record, *, cerif_ns: str = CERIF_NS) -> str:
    """Render one record as a self-describing HTML page.

    The page carries the canonical CERIF-RDF form of the record inside a
    marked comment, so extract_rdf applied to the output recovers the record
    exactly.  A record that validate_record finds fault with is refused
    with InvariantViolation, as is one the writer refuses.
    """
    check_record(record)
    document = serialize_document(RecordSet(records={record.key: record}),
                                  cerif_ns=cerif_ns)

    rows = [("identifier", record.id)]
    for spec, value in present_fields(record):
        render = _ROWS[spec.shape]
        if spec.parts:
            for item in value:
                rows.append(render(spec.label, item))
        else:
            rows.append((spec.label, render(value)))

    key = record.key
    heading = html.escape(f"{key.kind} {key.id}")
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        f"<title>{heading}</title>",
        "</head>",
        "<body>",
        f"<h1>{heading}</h1>",
        "<table>",
    ]
    for label, value in rows:
        lines.append(f"<tr><th>{html.escape(label)}</th>"
                     f"<td>{html.escape(value)}</td></tr>")
    lines.append("</table>")
    lines.append(EMBED_MARKER)
    lines.append(document.rstrip("\n"))
    lines.append("-->")
    lines.append("</body>")
    lines.append("</html>")
    return "\n".join(lines) + "\n"
