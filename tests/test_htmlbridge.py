"""Tests for HTML embedding and extraction of CERIF-RDF blocks."""

import random

from cerifrdf.htmlbridge import EMBED_MARKER, extract_rdf, render_html
from cerifrdf.model import (
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    TranslatedText,
    TranslationType,
)
from cerifrdf.rdfxml import CERIF_NS, RecordSet, parse_document

import randgen


# ---------------------------------------------------------------------------
# extraction

def test_extract_from_sample_page(html_page_bytes):
    result = extract_rdf(html_page_bytes, page_uri="auris_page.html")
    assert result.page_uri == "auris_page.html"
    keys = [sorted(rs.records) for rs, _ in result.documents]
    assert keys == [[RecordKey("project", "E015-01-08")],
                    [RecordKey("person", "273")]]
    # the page ends with a deliberately abandoned block
    assert len(result.warnings) == 1
    assert "never closed" in result.warnings[0]


def test_extract_offsets_are_byte_offsets(html_page_bytes):
    # the page holds umlauts before each block, so char and byte offsets differ
    result = extract_rdf(html_page_bytes)
    offsets = [offset for _, offset in result.documents]
    assert offsets == sorted(offsets)
    for _, offset in result.documents:
        assert html_page_bytes[offset:offset + 8] == b"<rdf:RDF"
    text = html_page_bytes.decode("utf-8")
    first = offsets[0]
    assert text.find("<rdf:RDF") != first  # char offset would be wrong


def test_extract_offsets_on_a_page_that_is_not_utf8():
    root = '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    result = extract_rdf(b"<p>\xff\xfe</p>" + root.encode() + b"/>")
    assert [offset for _, offset in result.documents] == [9]
    # undecodable bytes inside and between blocks, a similarly named element
    # and an rdf:RDF tag inside a comment of a block
    page = (b"<p>\xe9t\xe9</p><rdf:RDFontSize/>"
            + root.encode() + b"><!-- <rdf:RDF \xff --></rdf:RDF>\x80\x80"
            + root.encode() + b"/>")
    result = extract_rdf(page)
    starts = [page.index(root.encode()), page.rindex(root.encode())]
    assert [offset for _, offset in result.documents] == starts
    assert result.blocks == [root + "><!-- <rdf:RDF \ufffd --></rdf:RDF>", root + "/>"]
    assert result.warnings == []


def test_extract_ignores_similarly_named_elements():
    page = "<p><rdf:RDFontSize>x</rdf:RDFontSize></p>"
    result = extract_rdf(page)
    assert result.documents == [] and result.warnings == []


def test_extract_self_closed_root():
    page = ('before <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/'
            '22-rdf-syntax-ns#"/> after')
    result = extract_rdf(page)
    assert len(result.documents) == 1
    rs, offset = result.documents[0]
    assert rs.records == {}
    assert offset == len("before ")


def test_extract_skips_unparseable_blocks():
    page = ("<rdf:RDF><broken></rdf:RDF>"
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
            "</rdf:RDF>")
    result = extract_rdf(page)
    assert len(result.documents) == 1
    assert any("skipped" in w for w in result.warnings)


def test_extract_unterminated_start_tag():
    result = extract_rdf("text <rdf:RDF xmlns:rdf=\"unfinished")
    assert result.documents == []
    assert any("unterminated" in w for w in result.warnings)


# ---------------------------------------------------------------------------
# rendering

def sample_project() -> Project:
    return Project(
        id="E015-01-08",
        status=ProjectStatus.EXECUTION,
        titles=(TranslatedText("en", TranslationType.HUMAN, "A title"),),
        abstracts=(TranslatedText("de", TranslationType.ORIGINAL, "Kurztext"),),
    )


def test_render_produces_marked_page():
    page = render_html(sample_project())
    assert page.startswith("<!DOCTYPE html>")
    assert EMBED_MARKER in page
    assert "<th>status</th><td>Execution</td>" in page
    assert "project E015-01-08" in page


def test_render_extract_closure():
    record = sample_project()
    result = extract_rdf(render_html(record))
    assert result.warnings == []
    assert len(result.documents) == 1
    rs, _ = result.documents[0]
    assert rs.records == {record.key: record}


def test_closure_survives_comment_terminator_in_values():
    record = Person(id="Q-1", family_names="A --> B",
                    first_names="<!-- not a comment -->")
    page = render_html(record)
    # the first terminator in the payload must be the embedding's own
    body = page[page.index(EMBED_MARKER):]
    assert body.index("-->") == body.index("\n-->") + 1
    result = extract_rdf(page)
    assert result.warnings == []
    assert result.documents[0][0].records == {record.key: record}


def test_closure_with_custom_namespace():
    ns = "http://example.org/other#"
    record = sample_project()
    page = render_html(record, cerif_ns=ns)
    result = extract_rdf(page, cerif_ns=ns)
    assert result.documents[0][0].records == {record.key: record}


def test_closure_on_random_records():
    rng = random.Random(97)
    for i in range(50):
        kind = rng.randrange(3)
        if kind == 0:
            record = randgen.rand_project(rng, randgen.rand_id(rng, i))
        elif kind == 1:
            record = randgen.rand_person(rng, randgen.rand_id(rng, i))
        else:
            record = randgen.rand_orgunit(rng, randgen.rand_id(rng, i))
        result = extract_rdf(render_html(record))
        assert result.warnings == []
        assert len(result.documents) == 1
        assert result.documents[0][0].records == {record.key: record}


def test_rendered_page_round_trips_through_file(tmp_path):
    record = sample_project()
    path = tmp_path / "page.html"
    path.write_text(render_html(record), "utf-8")
    result = extract_rdf(path.read_bytes(), page_uri=str(path))
    assert result.documents[0][0].records[record.key] == record
