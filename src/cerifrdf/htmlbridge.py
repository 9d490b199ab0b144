"""Embedding CERIF-RDF in web pages and getting it back out.

Rendering produces a human-readable HTML page whose machine-readable twin
travels inside a comment opened by the CERIF-RDF marker.  Extraction does the
inverse and is deliberately independent of everything around the block: it
scans for verbatim rdf:RDF regions wherever they sit, inline or commented.

The table rows of a rendered page follow the field table
model.RECORD_FIELDS: one row per scalar field and one per bag item, in
field order, under the field's label.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field

from .errors import CerifError
from .model import (
    Record,
    RecordKey,
    format_partial_date,
    join_semicolon_list,
    present_fields,
    status_token,
)
from .rdfxml import CERIF_NS, RecordSet, _scan_tag_end, parse_document, serialize_document

EMBED_MARKER = "<!--CERIF-RDF"
_OPEN = "<rdf:RDF"
_CLOSE = "</rdf:RDF>"


@dataclass
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
    and strictly increase.
    """
    data = page if isinstance(page, bytes) else page.encode("utf-8", "surrogatepass")
    text = page.decode("utf-8", errors="replace") if isinstance(page, bytes) else page
    result = ExtractionResult(page_uri=page_uri)
    # Decoding keeps every ASCII byte, so the n-th "<rdf:RDF" of the text is
    # the n-th of the bytes; i and offset step through both in lockstep.
    pos = 0
    i = offset = -1
    while True:
        i = text.find(_OPEN, i + 1)
        if i < 0:
            break
        offset = data.find(b"<rdf:RDF", offset + 1)
        after = text[i + len(_OPEN):i + len(_OPEN) + 1]
        if i < pos or after not in ("", " ", "\t", "\r", "\n", ">", "/"):
            continue
        tag_end = _scan_tag_end(text, i)
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
        block = text[i:end]
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
    "status": status_token,
    "date": format_partial_date,
    "text": str,
    "sex": str,
    "list": join_semicolon_list,
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
    exactly.  Records failing their invariants are refused.
    """
    rs = RecordSet()
    rs.add(record)
    document = serialize_document(rs, cerif_ns=cerif_ns)

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
